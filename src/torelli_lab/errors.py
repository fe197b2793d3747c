"""Exception hierarchy shared across the package.

``TorelliLabError`` marks a computation that failed for a mathematical or
numerical reason (CLI exit code 1).  ``UsageError`` marks invalid parameters
or inputs (CLI exit code 2).  ``ConsistencyError`` marks an exact identity
that holds by construction and failed: a defect in the package, not in the
input (CLI exit code 1).
"""


class TorelliLabError(Exception):
    pass


class UsageError(TorelliLabError):
    pass


class ConsistencyError(TorelliLabError):
    pass

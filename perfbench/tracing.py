"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds each traced function, in every loaded
``torelli_lab`` module that holds it, to a wrapper that records a span
(call count, total time, time covered by traced children) while a unit is
being recorded.  Module-level calls between the package's own functions go
through those module globals, so nested layer calls get a parent and self
time is measurable.  ``Tracer.uninstall`` puts the original objects back;
nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, metric prefix, reported statistics)
TARGETS = (
    ("binforms", "transvectant_first", None, ("calls", "self_ms")),
    ("binforms", "gcd_is_constant", None, ("calls", "self_ms")),
    ("binforms", "poly_gcd", None, ("calls", "self_ms")),
    ("binforms", "squarefree_decomposition", None, ("calls", "self_ms")),
    ("binforms", "roots_projective", None, ("calls", "self_ms")),
    # both classify_fibers and roots_projective reach it through the module
    ("binforms", "_roots_dense", "binforms.roots", ("calls", "self_ms")),
    ("surfaces", "make_random_general", None, ("calls", "self_ms")),
    ("surfaces", "make_with_I2", None, ("calls", "self_ms")),
    ("surfaces", "discriminant", None, ("calls", "self_ms")),
    ("surfaces", "classify_fibers", None, ("calls", "self_ms")),
    ("ramification", "ramification_divisor", None, ("calls", "self_ms", "total_ms")),
    ("ramification", "is_general", None, ("calls", "self_ms", "total_ms")),
    ("ivhs", "synthesize", None, ("calls", "self_ms", "total_ms")),
    ("ivhs", "presentation_from_json_dict", None, ("calls", "self_ms")),
    ("recovery", "extract_rank_ones", None, ("calls", "self_ms")),
    ("recovery", "recover_geometry", None, ("calls", "self_ms")),
    ("recovery", "match_points", None, ("calls", "self_ms")),
    ("recovery", "roundtrip", None, ("calls", "self_ms")),
    ("linalg", "eig_general", None, ("calls", "self_ms")),
    ("linalg", "nullspace", None, ("calls", "self_ms")),
    ("plumbing", "residue_pair", None, ("calls", "self_ms")),
    ("plumbing", "check_eta_proportionality", None, ("self_ms",)),
    ("jets", "JetSeries.mul", None, ("calls", "self_ms")),
)

# derived per-unit counts: metric name -> (parent span, child span)
CHILD_COUNTS = {
    "surfaces.make_random_general.draws":
        ("surfaces.make_random_general", "surfaces.discriminant"),
    "recovery.extract_rank_ones.eig_calls":
        ("recovery.extract_rank_ones", "linalg.eig_general"),
}
PRS_FALLBACK = ("binforms.gcd_is_constant", "binforms.poly_gcd")
ROOTS = "binforms.roots"
OVERHEAD = "trace.overhead_frac"


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_, unit) in Tracer().per_unit().items()] \
        + [(OVERHEAD, "ratio")]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "torelli_lab"
                                  or name.startswith("torelli_lab."))]


def _resolve(module, attr):
    """(owner object, attribute name) of a traced function."""
    owner = sys.modules[f"torelli_lab.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Aggregated spans of the units recorded while the wrappers are
    installed.  Spans outside ``record`` (set-up, output checks) pass
    straight through."""

    def __init__(self):
        self.recording = False
        self.units = 0
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.child_calls = Counter()       # (parent, child) -> child spans
        self.parents_with_child = Counter()  # (parent, child) -> parent spans
        self.degree_sum = 0
        self._stack = []
        self._restore = []

    # ---- wrappers ---------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, prefix, _ in TARGETS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            wrapper = self._wrap(prefix or f"{module}.{attr}", original)
            bindings = [(owner, name)]
            if "." not in attr:
                bindings += [(m, key) for m in _package_modules()
                             for key, value in list(vars(m).items())
                             if value is original and m is not owner]
            for holder, key in bindings:
                setattr(holder, key, wrapper)
                self._restore.append((holder, key, original))

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def _wrap(self, span, fn):
        stack = self._stack
        is_roots = span == ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if is_roots:
                self.degree_sum += len(args[0]) - 1
            frame = [span, 0.0, set()]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self._close(frame, dur)

        return wrapper

    def _close(self, frame, dur):
        span, child_s, children = frame
        self.calls[span] += 1
        self.total_s[span] += dur
        self.self_s[span] += dur - child_s
        for child in children:
            self.parents_with_child[span, child] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            parent[2].add(span)
            self.child_calls[parent[0], span] += 1

    # ---- recording ----------------------------------------------------------

    def record(self, fn, *args):
        """Call ``fn(*args)`` as one recorded unit."""
        self.recording = True
        try:
            return fn(*args)
        finally:
            self.recording = False
            self.units += 1

    def per_unit(self):
        """{name: (value per recorded unit, unit)} of every per-layer metric
        but the overhead, which needs an untraced comparison run."""
        n = max(self.units, 1)
        out = {}
        for module, attr, prefix, stats in TARGETS:
            span = prefix or f"{module}.{attr}"
            values = {
                "calls": (self.calls[span] / n, "count"),
                "self_ms": (1000.0 * self.self_s[span] / n, "ms"),
                "total_ms": (1000.0 * self.total_s[span] / n, "ms"),
            }
            for stat in stats:
                out[f"{span}.{stat}"] = values[stat]
            if span == PRS_FALLBACK[0]:
                calls = self.calls[span]
                out[f"{span}.prs_fallback_frac"] = (
                    self.parents_with_child[PRS_FALLBACK] / calls if calls else 0.0, "ratio")
            if span == ROOTS:
                out[f"{span}.degree_sum"] = (self.degree_sum / n, "count")
        for name, edge in CHILD_COUNTS.items():
            out[name] = (self.child_calls[edge] / n, "count")
        return out

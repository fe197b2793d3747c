"""torelli-lab benchmark: one workload, one process, one unit at a time.

    python3 perfbench/run.py --workload roundtrip --seed 0 --seconds 35 --trace 0

Closed loop with one client: unit k (inputs from seed + k) starts when unit
k - 1 has finished and been checked.  Unit 0 is the untimed warm-up.
Workloads, metrics and the baseline are described in BASELINE.md.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median of SETUP_REPEATS imports of the package (this
               process's and the rest in fresh interpreters) plus the
               median of SETUP_REPEATS set-ups (input generation and the
               warm-up unit)
  units_per_s  units that completed and passed their check, divided by the
               summed wall time of the timed units
  unit_p50_ms, unit_p90_ms
               quantiles of the wall times of the timed units that passed;
               the run goes on past ``--seconds`` until MIN_UNITS units are
               timed (at most MAX_SECONDS), so at least ten lie beyond the
               90th percentile
  peak_rss_mb  peak resident set of the process (ru_maxrss)

A timed unit's wall time is that of one run, or for a workload with
``runs`` > 1 the fastest of that many runs of the same unit, one per core
in turn (see ``workloads.Workload``).  The quantiles are taken over these.
For a ``corrected`` workload each run's wall time is divided by the time
of a fixed reference loop run just before and after it on the same core,
and given in milliseconds at the loop's speed on a quiet core
(REFERENCE_S); see ``reference_loop``.

``--trace 1`` runs a fixed number of units (the workload's ``trace_units``),
each once untraced and once with the tracer installed, and reports the
per-layer metrics per unit plus trace.overhead_frac (traced / untraced
units_per_s - 1).  ``--seconds`` does not apply: a fixed unit count makes
every count repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader, with failed_frac and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# reference_loop()'s time on a quiet core of the machine the baseline was
# measured on (2.0 GHz Xeon; median over ten runs of each run's 1st
# percentile); corrected times are given in milliseconds at this speed
REFERENCE_S = 0.70e-3
MIN_UNITS = 100
MAX_SECONDS = 90.0


def import_program():
    """Import the package from this checkout's ``src/``; return the
    workloads and the seconds the import took."""
    src = ROOT / "src"
    if not (src / "torelli_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no torelli_lab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import workloads
    elapsed = time.perf_counter() - t0
    import torelli_lab
    if Path(torelli_lab.__file__).resolve().parent != src / "torelli_lab":
        raise SystemExit(f"perfbench: imported {torelli_lab.__file__}, not {src}")
    return workloads.WORKLOADS, elapsed


FRESH_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - t0)")


def fresh_import_seconds():
    """Seconds the same import takes in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Tally:
    """Outcome of the units run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok_times = []      # seconds of timed units that passed (see attempt)
        self.timed_s = 0.0      # seconds of all timed units
        self.references = []    # reference_loop() seconds around corrected runs

    def attempt(self, workload, inputs, k, seed, timed=True, unit=None,
                runs=1, on_core=None, corrected=False):
        """Run unit k ``runs`` times (through ``unit`` in place of
        ``workload.unit`` when given), calling ``on_core(r)`` before run r;
        check every output and record the outcome, with the time of the
        fastest run.  With ``corrected``, a run's time is divided by the
        mean time of the reference loop run before and after it on the
        same core and multiplied by REFERENCE_S."""
        self.attempted += 1
        error, times = None, []
        for r in range(runs):
            if on_core:
                on_core(r)
            before = reference_loop() if corrected else None
            t0 = time.perf_counter()
            try:
                out = (unit or workload.unit)(inputs, k, seed + k)
            except Exception as exc:  # a unit that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if corrected:
                after = reference_loop()
                self.references += [before, after]
                dt *= REFERENCE_S / ((before + after) / 2)
            times.append(dt)
            if error is None and not workload.check(out, inputs, k):
                error = "failed its check"
            if error:
                break
        dt = min(times)
        if error:
            self.failed += 1
            print(f"unit {k} {error}", file=sys.stderr)
        if timed:
            self.timed_s += dt
            if not error:
                self.ok_times.append(dt)

    @property
    def units_per_s(self):
        return len(self.ok_times) / self.timed_s if self.timed_s > 0 else 0.0


def reference_loop():
    """Seconds that a fixed piece of pure-Python exact arithmetic takes on
    the current core: the product of two 8-term series of pairs of small
    fractions, held in dicts, the operations a verifier trial is made of.
    It uses nothing from the package, so a change to the program does not
    change it; it slows as other tenants load the core."""
    t0 = time.perf_counter()
    a = {e: (Fraction(e + 1, e + 3), Fraction(2 * e - 1, e + 5)) for e in range(8)}
    acc = {}
    for ea, (a0, a1) in a.items():
        for eb, (b0, b1) in a.items():
            p0, p1 = acc.get(ea + eb, (Fraction(0), Fraction(0)))
            acc[ea + eb] = (p0 + a0 * b0, p1 + a0 * b1 + a1 * b0)
    return time.perf_counter() - t0


def set_up(workload, seed, tally):
    """Input generation plus the untimed warm-up unit; (inputs, seconds)."""
    t0 = time.perf_counter()
    inputs = workload.setup(seed)
    tally.attempt(workload, inputs, 0, seed, timed=False)
    return inputs, time.perf_counter() - t0


@contextlib.contextmanager
def cores_in_turn():
    """Yield ``use_core(k)``, which pins this thread to core k mod n of the
    n it may run on, and restore the affinity on exit.

    The shared cores each switch between a fast and a slow state for seconds
    at a time, independently of each other; a run whose units visit the
    cores in turn averages over both instead of following one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda k: os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def measure(workload, inputs, seed, seconds, tally,
            min_units=MIN_UNITS, max_seconds=MAX_SECONDS):
    """Timed closed loop over units 1, 2, ... for ``seconds`` and at least
    ``min_units`` units (unless ``max_seconds`` pass first).  Each unit runs
    ``workload.runs`` times, the runs on the cores in turn."""
    t0 = time.perf_counter()
    k = 0
    with cores_in_turn() as use_core:
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and (k >= min_units or elapsed >= max_seconds):
                return
            k += 1
            tally.attempt(workload, inputs, k, seed, runs=workload.runs,
                          on_core=lambda r: use_core(k * workload.runs + r),
                          corrected=workload.corrected)


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_untraced(workload, seed, seconds, import_s,
                 min_units=MIN_UNITS, max_seconds=MAX_SECONDS):
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, dt = set_up(workload, seed, tally)
        setups.append(dt)
    measure(workload, inputs, seed, seconds, tally, min_units, max_seconds)
    if tally.references:
        low = statistics.quantiles(tally.references, n=100, method="inclusive")[0]
        print(f"reference loop: median {1000 * statistics.median(tally.references):.4g} ms, "
              f"1st percentile {1000 * low:.4g} ms; times given at "
              f"{1000 * REFERENCE_S:.4g} ms per loop")
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "units_per_s": (tally.units_per_s, "1/s"),
        "unit_p50_ms": (1000.0 * statistics.median(tally.ok_times or [0.0]), "ms"),
        "unit_p90_ms": (1000.0 * p90(tally.ok_times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def run_traced(workload, seed, units=None):
    """Units 1..units, each run untraced and traced."""
    import tracing

    units = workload.trace_units if units is None else units
    tally = Tally()
    inputs, _ = set_up(workload, seed, tally)
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()

    def run_plain(k):
        plain.attempt(workload, inputs, k, seed)

    def run_traced_unit(k):
        tracer.install()
        try:
            traced.attempt(workload, inputs, k, seed,
                           unit=functools.partial(tracer.record, workload.unit))
        finally:
            tracer.uninstall()

    with cores_in_turn() as use_core:
        for k in range(1, units + 1):
            # both runs of a unit back to back on one core see the same
            # machine state; the order alternates so that neither always
            # finds the caches warmed by the other
            use_core(k)
            pair = (run_plain, run_traced_unit)
            for run_one in (pair if (k - 1) // 2 % 2 == 0 else pair[::-1]):
                run_one(k)
    metrics = tracer.per_unit()
    metrics[tracing.OVERHEAD] = (traced.units_per_s / plain.units_per_s - 1.0
                                 if plain.units_per_s else 0.0, "ratio")
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
    return tally, metrics


def openblas_facts():
    """Build string and thread count of the OpenBLAS bundled with numpy."""
    import ctypes

    import numpy

    libs = sorted(Path(numpy.__file__).parent.parent.glob(
        "numpy.libs/libscipy_openblas64_*.so"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_config().decode(), get_threads()


def machine_facts(load1):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = openblas_facts()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "load_avg_1min_at_start": load1,
        "TORELLI_LAB_THREADS": os.environ.get("TORELLI_LAB_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    load1 = os.getloadavg()[0]

    workloads, import_s = import_program()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]
    if args.trace:
        tally, metrics = run_traced(workload, args.seed)
    else:
        imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
        tally, metrics = run_untraced(workload, args.seed, args.seconds,
                                      statistics.median(imports))

    print("machine " + json.dumps(machine_facts(load1), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}")
    print(f"units attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed / tally.attempted:.4g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WORKLOADS, _ = run.import_program()

import tracing  # noqa: E402
from torelli_lab import recovery, surfaces  # noqa: E402

COUNTS = [name for name, unit in tracing.metric_names()
          if unit == "count" or name.endswith("prs_fallback_frac")]


def _bindings():
    """Every function-valued name of the package's modules, and the methods
    of JetSeries."""
    from torelli_lab.jets import JetSeries

    out = {(m.__name__, key): value for m in tracing._package_modules()
           for key, value in vars(m).items() if callable(value)}
    out.update({("JetSeries", key): value for key, value in vars(JetSeries).items()})
    return out


ORIGINAL = _bindings()


def test_negative_control_counts_as_failed():
    def corrupt(inputs, k, seed):
        return recovery.roundtrip(surfaces.make_random_general(3, seed), seed,
                                  corrupt_span=True)

    workload = replace(WORKLOADS["roundtrip"], unit=corrupt)
    tally, metrics = run.run_untraced(workload, seed=0, seconds=0.0, import_s=0.0,
                                      min_units=2)
    assert tally.attempted == run.SETUP_REPEATS + 2
    assert tally.failed == tally.attempted
    assert metrics["units_per_s"][0] == 0.0


def test_failed_check_counts_as_failed():
    workload = replace(WORKLOADS["verify"], check=lambda out, inputs, k: k != 2)
    tally, metrics = run.run_untraced(workload, seed=0, seconds=0.0, import_s=0.0,
                                      min_units=3)
    assert (tally.attempted, tally.failed) == (run.SETUP_REPEATS + 3, 1)
    assert len(tally.ok_times) == 2
    assert metrics["units_per_s"][0] == pytest.approx(2 / tally.timed_s)


def test_repeated_runs_count_the_fastest_and_check_every_run():
    calls = []

    def unit(inputs, k, seed):
        calls.append(k)
        time.sleep(0.05 if len(calls) % 2 else 0.01)
        return len(calls)

    workload = replace(WORKLOADS["verify"], unit=unit,
                       check=lambda out, inputs, k: out != 4, runs=2)
    tally = run.Tally()
    for k in (1, 2):
        tally.attempt(workload, None, k, 0, runs=workload.runs)
    assert calls == [1, 1, 2, 2]
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.ok_times) == 1 and tally.ok_times[0] < 0.04


def test_corrected_runs_are_timed_against_the_reference_loop():
    def unit(inputs, k, seed):
        time.sleep(0.02)
        return {"status": "ok"}

    tally = run.Tally()
    tally.attempt(replace(WORKLOADS["verify"], unit=unit), None, 1, 0, corrected=True)
    before, after = tally.references
    expected = 0.02 * run.REFERENCE_S / ((before + after) / 2)
    assert tally.ok_times[0] == pytest.approx(expected, rel=0.5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = run.run_traced(WORKLOADS[name], seed=3, units=2)
    second = run.run_traced(WORKLOADS[name], seed=3, units=2)
    for tally in (first[0], second[0]):
        assert tally.failed == 0
    assert {m: first[1][m] for m in COUNTS} == {m: second[1][m] for m in COUNTS}
    assert list(first[1]) == [n for n, _ in tracing.metric_names()]


def test_traced_counts_see_the_layers():
    _, certify = run.run_traced(WORKLOADS["certify"], seed=11, units=2)
    assert certify["surfaces.make_random_general.draws"][0] >= 1
    assert certify["binforms.roots.degree_sum"][0] >= 68
    assert certify["plumbing.residue_pair.calls"][0] == 0
    _, i2 = run.run_traced(WORKLOADS["analyze-i2"], seed=11, units=2)
    assert i2["binforms.gcd_is_constant.prs_fallback_frac"][0] > 0
    _, verify = run.run_traced(WORKLOADS["verify"], seed=11, units=2)
    assert verify["plumbing.residue_pair.calls"][0] > 0
    assert verify["binforms.poly_gcd.calls"][0] == 0


def test_held_out_seed_is_accepted(capsys):
    assert run.main(["--workload", "verify", "--seed", "987654", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]


def test_untraced_run_installs_no_wrappers():
    cpus = os.sched_getaffinity(0)

    def unit(inputs, k, seed):
        assert _bindings() == ORIGINAL
        return WORKLOADS["verify"].unit(inputs, k, seed)

    workload = replace(WORKLOADS["verify"], unit=unit)
    tally, _ = run.run_untraced(workload, seed=0, seconds=0.0, import_s=0.0, min_units=3)
    assert tally.failed == 0
    assert os.sched_getaffinity(0) == cpus


def test_traced_run_restores_the_original_functions():
    seen = []

    def unit(inputs, k, seed):
        seen.append(surfaces.make_random_general is not ORIGINAL[
            ("torelli_lab.surfaces", "make_random_general")])
        return WORKLOADS["verify"].unit(inputs, k, seed)

    run.run_traced(replace(WORKLOADS["verify"], unit=unit), seed=0, units=1)
    assert seen == [False, False, True]
    assert _bindings() == ORIGINAL


def test_missing_program_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""

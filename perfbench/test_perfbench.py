"""Tests of the benchmark itself: its gates fail on bad outputs, its traced
counts repeat, and its printed names match BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_flipped_byte_in_a_figure_counts_as_failed(tmp_path):
    baselines = tmp_path / "baselines"
    shutil.copytree(ROOT / "tests" / "baselines", baselines)
    target = baselines / "fig2-right.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    scratch = tmp_path / "out"
    scratch.mkdir()

    tally = Tally()
    tally.run_round(workloads.Figures(baselines, scratch).round(0, 0))
    assert tally.attempted == 4
    assert tally.errors == ["fig2-right: figure fig2-right differs from its baseline"]


def _bhd_text(variance: float, approx: float, mean: float = 0.0, residual: str = "0.0") -> str:
    row = f"6.283185307179586,1883651567308853.2,{mean!r},{variance!r},{approx!r},{residual}"
    return workloads.BHD_COLUMNS + "\n" + row + "\n"


@pytest.mark.parametrize("text, expected_failures", [
    (_bhd_text(*workloads.README_PINNED), 0),
    (_bhd_text(workloads.README_PINNED[0] * (1 + 1e-6), workloads.README_PINNED[1]), 1),
    (_bhd_text(*workloads.README_PINNED, mean=1e-300), 1),
    (_bhd_text(*workloads.README_PINNED, residual="1e-6"), 1),
])
def test_perturbed_detector_value_counts_as_failed(text, expected_failures):
    op = workloads.Op("readme", lambda: (0, text),
                      lambda out: workloads.check_bhd_output(*out, pinned=workloads.README_PINNED))
    tally = Tally()
    tally.run_round([op])
    assert len(tally.errors) == expected_failures


def test_detector_gate_bounds_variance_by_twice_the_approximation():
    assert workloads.check_bhd_output(0, _bhd_text(2.0, 1.0)) is None
    assert workloads.check_bhd_output(0, _bhd_text(2.0000001, 1.0)) is not None
    assert workloads.check_bhd_output(0, _bhd_text(-1e-12, 1.0)) is not None
    assert workloads.check_bhd_output(0, _bhd_text(1.0, 1.0, residual="")) is None


def test_points_reference_matches_the_library_and_catches_a_perturbation():
    ops = workloads.Points().round(seed=3, index=0)[:60]
    tally = Tally()
    tally.run_round(ops)
    assert tally.errors == []
    bad = workloads.Op(ops[0].kind, lambda: ops[0].run() * (1 + 1e-6) + 1e-3, ops[0].check)
    tally.run_round([bad])
    assert len(tally.errors) == 1


def test_speed_log_normalises_each_segment_by_its_bracketing_probes(monkeypatch):
    probes = iter([9.0, 1.0, 1.0, 3.0])  # the first call is a discarded warm-up
    monkeypatch.setattr(speed, "probe", lambda: next(probes) * speed.NOMINAL_S)
    # begin, probe in the operation (before, after), end, closing probe (before, after)
    clock = iter([10.0, 10.6, 10.6, 10.9, 11.0, 11.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    log = speed.SpeedLog()
    log.begin()
    log.checkpoint()
    assert log.end() == pytest.approx(0.9)
    log.checkpoint()
    assert log.normalised(0) == pytest.approx(0.6 / 1.0 + 0.3 / 2.0)


def test_speed_log_holds_an_alarm_until_its_update_is_done(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: speed.NOMINAL_S)
    log = speed.SpeedLog()
    log._critical = True
    log._on_alarm(None, None)
    assert len(log.probes) == 1 and log._due
    log._leave()
    assert len(log.probes) == 2 and not log._due


def _kernel_ops(count: int, installed: list[bool]) -> list[workloads.Op]:
    """Operations that call one traced kernel and take twice as long when traced."""
    from cavityspectra import spectral

    def run():
        installed.append(hasattr(spectral.q_kernel, "__wrapped__"))
        spectral.q_kernel(0.5)
        time.sleep(0.02 if installed[-1] else 0.01)

    return [workloads.Op("sleep", run, lambda out: None) for _ in range(count)]


def test_traced_run_pairs_operations_until_the_untraced_runs_take_the_seconds(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: speed.NOMINAL_S)
    installed = []
    tally = Tally()
    rec, traced_wall, overhead = tally.run_traced(_kernel_ops(5, installed), seconds=0.025)
    # operation 0 runs traced only; untraced runs of 1-3 take 0.03 s >= 0.025 s, so 4 too
    assert installed == [True, False, True, True, False, False, True, True]
    assert tally.attempted == 8 and tally.errors == []
    assert rec.names.count("spectral.q_kernel") == 5
    assert traced_wall == pytest.approx(0.1, rel=0.3)
    assert overhead == pytest.approx(1.0, rel=0.3)


@pytest.mark.parametrize("count, expected", [
    (2, [True] + [False, True, True, False] * 2 + [False, True]),
    (1, [False, True, True, False, False, True]),  # a lone operation is paired at once
])
def test_traced_run_adds_passes_of_pairs_without_changing_the_counts(monkeypatch, count, expected):
    monkeypatch.setattr(speed, "probe", lambda: speed.NOMINAL_S)
    installed = []
    tally = Tally()
    rec, _, overhead = tally.run_traced(_kernel_ops(count, installed), seconds=0.025 + 0.02 * (count - 1))
    assert installed == expected
    assert rec.names.count("spectral.q_kernel") == count
    assert overhead == pytest.approx(1.0, rel=0.3)


def test_reference_kernels_have_their_closed_form_limits():
    u = reference.np.array([0.0, 1e-4, 0.999, 1.0, 7.3])
    q, w = reference._q_w(u)
    direct_q = math.sin(7.3) / 7.3 + math.cos(7.3) / 7.3**2 - math.sin(7.3) / 7.3**3
    assert q[0] == pytest.approx(2.0 / 3.0, abs=1e-16) and w[0] == 0.0
    assert q[-1] == pytest.approx(direct_q, rel=1e-13)
    assert q[2] == pytest.approx(q[3], abs=2e-3)  # continuous across the series switch


@pytest.mark.parametrize("workload", ["points", "figures"])
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = ({name: r["metrics"][name]["value"] for name in counts} for r in runs)
    assert first == second
    assert first["spectral.kernel_calls"] > 0


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    untraced = result_of(bench("--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0"))
    traced = result_of(bench("--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "1"))
    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {n: v["unit"] for n, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

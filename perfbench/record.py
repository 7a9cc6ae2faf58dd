"""Write a bench record: every workload, untraced and traced, plus the machine.

Usage, from the root of a checkout:

    python3 perfbench/record.py --out perfbench/records/<name>.json [--seeds 1,2,3]

Each workload runs once untraced per seed and once traced with the first
seed, each run for BENCHMARK.json's run_seconds.  The record holds each run's end-to-end metrics, their medians over
the seeds, the per-layer metrics of the traced run, the run record printed
by run.py (git SHA, versions, seed, BLAS threads) and the CPU model.  A
Markdown summary with the per-layer table is written next to the JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: What tracing from outside the package cannot see.
BLIND_SPOTS = [
    "smeared_density stops silently at QuadratureSpec.max_refinements: the y = 50 cross "
    "term of the README bhd example runs all panel doublings, and no span or argument "
    "shows whether rel_tol was met. That needs counters inside the program (a --stats "
    "record), not a wrapper around its entry points.",
    "Time inside private helpers (_spliced, _accumulate, _adaptive_gauss, the validate "
    "checks) is charged to the nearest traced entry point that called them.",
    "Kernel and density spans cannot tell Taylor-series elements from direct-formula "
    "elements; kernel_evals counts both.",
    "trace.overhead_frac compares traced runs of operations with untraced runs right next "
    "to them. A tracing cost below the noise between such neighbours can come out negative; "
    "it is reported as 0, and the signed estimate goes to standard error and into the "
    "record (trace_overhead_signed). On detector and validate, with few spans per second, "
    "the estimate is noise.",
]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    extras = {}
    for line in done.stderr.splitlines():
        key, _, payload = line.partition(": ")
        if key in ("run-record", "rounds"):
            extras[key] = json.loads(payload)
    return json.loads(done.stdout.strip().splitlines()[-1]), extras["run-record"], extras["rounds"]


def render(record: dict) -> str:
    """Markdown summary of a record: machine, end-to-end medians, per-layer table."""
    names = [w["name"] for w in SPEC["workloads"]]
    wl = record["workloads"]
    m = record["machine"]
    lines = [f"# Bench record {m['git_sha'][:12]}", "",
             f"Python {m['python']}, numpy {m['numpy']}, {m['nproc']} CPUs ({m['cpu_model']}), "
             f"{m['memory_mb']} MB, BLAS threads {m['blas_threads']}, "
             f"CAVITYSPECTRA_WORKERS {m['cavityspectra_workers']}. "
             f"Seeds {record['seeds']}, {record['seconds']} s per run.", "",
             "## End-to-end, median over the seeds", "",
             "| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for e in SPEC["end_to_end"]:
        lines.append(f"| {e['name']} | {e['unit']} | "
                     + " | ".join(f"{wl[w]['median'][e['name']]:.4g}" for w in names) + " |")
    lines += ["", "Raw seconds and the speed probe, median over the seeds (diagnostics, not gated):", "",
              "| quantity | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for key in ("raw_setup_s", "raw_wall_s", "speed_probe_s"):
        lines.append(f"| {key} | s | " + " | ".join(
            f"{statistics.median(r[key] for r in wl[w]['runs']):.4g}" for w in names) + " |")
    lines += ["", "Per-operation latency, median over the seeds (a diagnostic, not gated):", "",
              "| percentile | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for pct in ("p50", "p90"):
        lines.append(f"| {pct} | ms | " + " | ".join(
            f"{statistics.median(r['latency_ms'][pct] for r in wl[w]['runs']):.4g}" for w in names) + " |")
    lines += ["", f"## Per-layer, traced run, seed {record['seeds'][0]}", "",
              "| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for e in SPEC["per_layer"]:
        lines.append(f"| {e['name']} | {e['unit']} | "
                     + " | ".join(f"{wl[w]['traced']['metrics'][e['name']]['value']:.6g}" for w in names) + " |")
    lines += ["", "Signed tracing-overhead estimates (trace.overhead_frac reports them clamped at 0): "
              + ", ".join(f"{w} {wl[w]['traced']['trace_overhead_signed']:.3g}" for w in names) + "."]
    lines += ["", "## Not visible to the trace", ""] + [f"- {note}" for note in record["not_visible_to_the_trace"]]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1,2,3")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = SPEC["run_seconds"]

    record = {"machine": None, "seeds": seeds, "seconds": seconds, "workloads": {},
              "not_visible_to_the_trace": BLIND_SPOTS}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            result, run_record, rounds = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result, **rounds})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        traced, _, traced_rounds = run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "median": {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                       for m in SPEC["end_to_end"]},
            "runs": runs,
            "traced": {"seed": seeds[0], **traced, **traced_rounds},
        }
        if record["machine"] is None:
            record["machine"] = {**{k: v for k, v in run_record.items()
                                    if k not in ("workload", "seed", "seconds", "trace")},
                                 "cpu_model": cpu_model()}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    out.with_suffix(".md").write_text(render(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cavityspectra benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|detector|validate|points \
        --seed N --seconds S --trace 0|1

The package is imported from the checkout's own ``src`` (it need not be
installed).  The workload runs in one child process (perfbench/worker.py)
with BLAS pinned to one thread and CAVITYSPECTRA_WORKERS removed, so the
default code path is measured.  With --trace 0 this script also measures
``setup_s``: the median time of fresh interpreters that import
``cavityspectra.cli`` and build its parser, which every CLI call pays.
Times are reported in normalised seconds: ``setup_s`` by reference launches
of a bare ``import numpy`` (see ``measure_setup``), the worker's times by a
speed probe (see speed.py).  The raw times go to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record (seed,
versions, machine) goes to standard error.  Exit code 0 when every output
was correct, 1 when some were not, 2 when the checkout or the worker is
unusable or the run reaches RUN_LIMIT_S (then no result is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SCRATCH_NAME = ".perfbench_tmp"
SETUP_LAUNCHES = 9
SETUP_CODE = "import cavityspectra.cli as cli; cli.build_parser()"
#: Most of what a setup launch does, and nothing of this program.
REFERENCE_CODE = "import numpy"
#: Reference launch time on the VM the benchmark was defined on (see
#: speed.py) while the host was quiet.  It only fixes the scale of setup_s.
REFERENCE_NOMINAL_S = 0.13
SETUP_TIMEOUT_S = 30.0
#: The worker is stopped when the whole run reaches this, so that the run
#: still ends within the 180 s a benchmark run may take.
RUN_LIMIT_S = 175.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CAVITYSPECTRA_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def measure_setup(root: Path, env: dict[str, str]) -> tuple[float, float]:
    """Median launch time of `import cavityspectra.cli; build_parser()`.

    Returns (normalised, raw) seconds.  Setup launches alternate with
    reference launches of REFERENCE_CODE; a setup launch of t seconds
    between references of r1 and r2 seconds counts as
    t * REFERENCE_NOMINAL_S / ((r1 + r2) / 2).  The machine's speed moves
    both, a change to the program only t.  (An in-process numpy probe, as
    speed.py uses for the workloads, does not follow the cost of starting an
    interpreter.)  The first launch of each kind is discarded: it may compile
    the bytecode cache.
    """
    def launch(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        return perf_counter() - start

    launch(SETUP_CODE)
    launch(REFERENCE_CODE)
    refs = [launch(REFERENCE_CODE)]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        setups.append(launch(SETUP_CODE))
        refs.append(launch(REFERENCE_CODE))
    normalised = [t * REFERENCE_NOMINAL_S / (0.5 * (refs[k] + refs[k + 1])) for k, t in enumerate(setups)]
    return statistics.median(normalised), statistics.median(setups)


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_record(root: Path, args, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "blas_threads": 1,
        "cavityspectra_workers": "unset",
    }


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "cavityspectra" / "__init__.py").is_file():
        return fail(f"no cavityspectra sources under {root / 'src'}; run from the root of a checkout")
    if not (root / "tests" / "baselines").is_dir():
        return fail(f"no figure baselines under {root / 'tests' / 'baselines'}")

    env = workload_env(root)
    metrics = {}
    raw_setup = None
    try:
        if not args.trace:
            metrics["setup_s"], raw_setup = measure_setup(root, env)
        (root / SCRATCH_NAME).mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=root / SCRATCH_NAME))
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scratch", str(scratch)],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=RUN_LIMIT_S - (perf_counter() - started))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                (root / SCRATCH_NAME).rmdir()
            except OSError:
                pass  # another run still uses it
    except subprocess.CalledProcessError as exc:
        return fail(f"setup launch failed ({exc.returncode}): {exc.stderr.decode(errors='replace').strip()}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"timed out after {exc.timeout:g} s: {' '.join(map(str, exc.cmd))}")
    if done.returncode != 0 or not done.stdout.strip():
        return fail(f"worker exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    print("run-record: " + json.dumps(run_record(root, args, result["numpy"])), file=sys.stderr)
    print("rounds: " + json.dumps({"raw_setup_s": raw_setup,
                                   "raw_wall_s": result["raw_wall_s"],
                                   "speed_probe_s": result["speed_probe_s"],
                                   "trace_overhead_signed": result["trace_overhead_signed"],
                                   "round_walls_s": result["round_walls"],
                                   "median_by_kind_s": result["kind_median_s"],
                                   "latency_ms": result["latency_ms"]}), file=sys.stderr)
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)

    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        metrics.update(result["metrics"])
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        result["metrics"] = metrics
    out = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in wanted}
    for name, entry in out.items():
        print(f"{args.workload:>9} {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

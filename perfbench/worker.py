"""Run one workload in this process and print its measurements as one JSON line.

run.py launches this with the checkout's ``src`` on PYTHONPATH, BLAS pinned
to one thread and CAVITYSPECTRA_WORKERS removed.  The loop is closed and
single-threaded: each operation starts after the previous one returns.

Untraced (--trace 0): whole rounds run until their operation time reaches
--seconds (at least one round).  Reported: the median round time, in
seconds normalised by the speed probe (speed.py), and the process's peak
RSS; raw times and per-operation latency percentiles go along as
diagnostics.

Traced (--trace 1): round 0 runs once with the span recorder installed.
The per-layer metrics come from that traced pass, so their counts depend
only on the seed.  For the tracing overhead, operations also run in pairs,
untraced and traced one right after the other, until the untraced runs
have taken --seconds (see ``Tally.run_traced``).  Both sides are normalised
by the same speed probes; the spans are timed by a clock that leaves the
probes out.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, by the method of ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


class Tally:
    """Runs rounds of operations and keeps their times, failures and probes."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.round_walls: list[float] = []
        self.speed = speed.SpeedLog()

    def run_op(self, op: workloads.Op) -> float:
        """Run and check one operation; returns its raw time in seconds."""
        error = None
        self.speed.begin()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        finally:
            elapsed = self.speed.end()
        if error is None:
            reason = op.check(out)
            if reason is not None:
                error = f"{op.kind}: {reason}"
        self.attempted += 1
        if error is not None:
            self.errors.append(error)
        self.latencies.append(elapsed)
        self.by_kind.setdefault(op.kind, []).append(elapsed)
        return elapsed

    def run_round(self, ops: list[workloads.Op]) -> float:
        """Run one round; returns its raw operation time in seconds."""
        self.speed.tag = len(self.round_walls)
        wall = sum(self.run_op(op) for op in ops)
        self.round_walls.append(wall)
        return wall

    def run_pair(self, op: workloads.Op, rec: spans.Recorder, traced_first: bool) -> tuple[float, float]:
        """Run op untraced and traced, one right after the other; returns both raw times."""
        times = {}
        for traced in (traced_first, not traced_first):
            self.speed.tag = "traced" if traced else "untraced"
            if traced:
                with rec:
                    times[traced] = self.run_op(op)
            else:
                times[traced] = self.run_op(op)
        return times[False], times[True]

    def run_traced(self, ops: list[workloads.Op], seconds: float) -> tuple[spans.Recorder, float, float]:
        """Trace one pass over ops, and pair untraced with traced runs for the overhead.

        The first operation runs traced only, unless it is the only one: it
        pays the process's one-time costs (lazy imports, the first page
        faults of large arrays), which would land on one side of its pair.
        The next ones run as pairs until the untraced runs have taken
        ``seconds``, the rest traced only.  If the pass ends sooner, more
        passes of pairs follow, traced into a spare recorder so that the
        counts stay those of one pass.  Pairs alternate which side runs
        first.  Returns the recorder of the pass, its raw traced time, and
        the tracing overhead: normalised traced over untraced time of all
        pairs, minus 1.
        """
        rec, spare = spans.Recorder(self.speed.clock), spans.Recorder(self.speed.clock)
        traced_wall = untraced_wall = 0.0
        pairs = 0
        self.speed.start()
        for i, op in enumerate(ops):
            if (i > 0 or len(ops) == 1) and untraced_wall < seconds:
                untraced, traced = self.run_pair(op, rec, traced_first=pairs % 2 == 1)
                untraced_wall += untraced
                pairs += 1
            else:
                self.speed.tag = "unpaired"
                with rec:
                    traced = self.run_op(op)
            traced_wall += traced
        while untraced_wall < seconds:
            for op in ops:
                untraced_wall += self.run_pair(op, spare, traced_first=pairs % 2 == 1)[0]
                pairs += 1
                if untraced_wall >= seconds:
                    break
        self.speed.stop()
        self.round_walls.append(traced_wall)
        return rec, traced_wall, self.speed.normalised("traced") / self.speed.normalised("untraced") - 1.0

    def normalised_rounds(self) -> list[float]:
        """Round times in normalised seconds; call after ``speed.stop()``."""
        return [self.speed.normalised(tag) for tag in range(len(self.round_walls))]


def check_package_source(src: Path) -> None:
    """Refuse to measure a cavityspectra that was not imported from ``src``."""
    import cavityspectra

    location = Path(cavityspectra.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"cavityspectra imported from {location}, not from {src}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scratch", required=True, help="directory for the figure CSVs")
    args = p.parse_args(argv)

    root = Path.cwd()
    check_package_source(root / "src")
    import numpy

    workload = workloads.make(args.workload, root, Path(args.scratch))
    tally = Tally()
    overhead = None
    if args.trace:
        rec, traced_wall, overhead = tally.run_traced(workload.round(args.seed, 0), args.seconds)
        metrics = spans.layer_metrics(rec, traced_wall)
        # below the noise of paired runs the estimate can come out negative; that is no cost
        metrics["trace.overhead_frac"] = max(0.0, overhead)
    else:
        tally.speed.start()
        index = 0
        while index == 0 or sum(tally.round_walls) < args.seconds:
            tally.run_round(workload.round(args.seed, index))
            index += 1
        tally.speed.stop()
        metrics = {
            "wall_s": statistics.median(tally.normalised_rounds()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "errors": tally.errors[:5],
        "round_walls": tally.round_walls,
        "raw_wall_s": statistics.median(tally.round_walls),
        "speed_probe_s": statistics.median(tally.speed.probes),
        "kind_median_s": {kind: statistics.median(v) for kind, v in tally.by_kind.items()},
        "latency_ms": {f"p{pct}": 1e3 * percentile(tally.latencies, pct) for pct in (50, 90)},
        "trace_overhead_signed": overhead,
        "numpy": numpy.__version__,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

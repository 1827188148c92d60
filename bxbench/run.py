"""Closed-loop benchmark of bxmech: one process, one client, no threads.

Each op is one call into the library or into the in-process
``bxmech.cli.main``; the next op starts when the previous one returns.

    python3 bxbench/run.py --workload harness --seed 1 --seconds 20 --trace 0

``--trace 0`` measures whole periods of the workload (see workloads.py) until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
runs each op of one period once untraced and once traced, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Outcome:
    seconds: float
    text: str
    problem: str | None
    kind: str | None  # None, "check", "exit" or "raised"


def execute(op, tracer) -> Outcome:
    run = op.run if tracer is None else tracer.wrap("op", op.run)
    start = time.perf_counter()
    try:
        result = run(tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - start
        return Outcome(seconds, f"raised {type(exc).__name__}", f"raised {type(exc).__name__}: {exc}", "raised")
    seconds = time.perf_counter() - start
    check = op.check(result)
    return Outcome(seconds, check.text, check.problem, check.kind if check.problem else None)


def import_fresh():
    for name in [m for m in sys.modules if m == "bxmech" or m.startswith("bxmech.")]:
        del sys.modules[name]
    bxmech = importlib.import_module("bxmech")
    if Path(bxmech.__file__).resolve().parent != (SRC / "bxmech").resolve():
        raise SystemExit(f"error: imported bxmech from {bxmech.__file__}, not {SRC}")


def set_up(workload, seed: int, work_dir: Path):
    """Import bxmech and generate the inputs SETUP_REPEATS times; returns
    the last plan and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_fresh()
        plan = workload.make(seed, work_dir)
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


def tail_percentile(seconds: list[float]) -> tuple[float, float]:
    """(q, latency): the highest percentile up to p90 with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(seconds)
    n = len(ordered)
    q = min(0.9, (n - 10) / n) if n > 10 else 0.5
    return q, ordered[max(math.ceil(q * n) - 1, 0)]


def digest(ops, outcomes) -> str:
    h = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        h.update(f"{op.label}\t{outcome.text}\n".encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


class Report:
    """Failures, digest and final checks shared by both modes."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.lines: list[str] = []
        self.wrong: list[str] = []

    def failures(self, pairs) -> int:
        """Records the failed ones among (op, outcome) pairs; returns their count."""
        failed = [(op, o) for op, o in pairs if o.problem]
        for op, o in failed[:20]:
            self.lines.append(f"failed op ({o.kind}): {op.label}: {o.problem}")
        if len(failed) > 20:
            self.lines.append(f"... and {len(failed) - 20} more failed ops")
        self.wrong += [f"{op.label}: {o.problem}" for op, o in failed if o.kind == "check"]
        return len(failed)

    def check_digest(self, ops, outcomes) -> None:
        value = digest(ops, outcomes)
        pins = load_pins()
        pinned = pins["workloads"].get(self.name) if self.seed == pins["seed"] else None
        note = "not pinned for this seed"
        if pinned is not None:
            note = "matches the pin" if value == pinned else f"DIFFERS from the pin {pinned}"
            if value != pinned:
                self.wrong.append("digest of canonical outputs differs from the pin")
        self.lines.append(f"digest sha256:{value} over the {len(ops)} ops of period 0 ({note})")

    def final_checks(self, plan) -> None:
        if plan.final_check is not None:
            problems = plan.final_check()
            self.wrong += problems
            self.lines.append(f"final checks: {'; '.join(problems) or 'passed'}")


def run_untraced(workload, plan, setup_s: float, seconds: float, report: Report) -> dict:
    # only latencies and failed ops are kept, not every op's output, so that
    # peak_rss_mb does not grow with the number of ops a faster program runs
    latencies, failed_ops = [], []
    start = time.perf_counter()
    period = 0
    while True:
        ops = plan.periods[period % len(plan.periods)]
        done = [execute(op, None) for op in ops]
        if period == 0:
            report.check_digest(ops, done)
        latencies += [o.seconds for o in done]
        failed_ops += [(op, o) for op, o in zip(ops, done) if o.problem]
        period += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    failed = report.failures(failed_ops)
    report.final_checks(plan)
    q, tail = tail_percentile(latencies)
    n = len(latencies)
    op_time = sum(latencies)
    metrics = {
        "ops_per_s": ((n - failed) / op_time, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report.lines += [
        f"workload {workload.name}, seed {report.seed}: {n} ops in {period} periods "
        f"of {len(plan.periods[0])} ops, {elapsed:.1f} s",
        f"ops_per_s {metrics['ops_per_s'][0]:.4f} 1/s ({n - failed} completed ops in "
        f"{op_time:.3f} s of op time)",
        f"op_p50_ms {metrics['op_p50_ms'][0]:.4f} ms (median of {n} ops)",
        f"op_p90_ms {metrics['op_p90_ms'][0]:.4f} ms (p{100 * q:.1f} of {n} ops, "
        f"{n - math.ceil(q * n)} beyond it)",
        f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB",
        f"failed_frac {failed / n:.6f} ratio ({failed} failed of {n} attempted)",
    ]
    return {"attempted": n, "failed": failed, "metrics": metrics}


def run_traced(workload, plan, ops_limit: int | None, report: Report) -> dict:
    from tracer import BoundaryMissing, Tracer

    ops = [op for period in plan.periods for op in period][: ops_limit or len(plan.periods[0])]
    full_period = len(ops) >= len(plan.periods[0])
    tracer = Tracer()

    def run_traced_op(op) -> Outcome:
        tracer.install()
        try:
            return execute(op, tracer)
        finally:
            tracer.uninstall()

    # each op runs once untraced and once traced, alternating which goes
    # first, so warm-up and the machine's slow phases hit both passes alike
    untraced, traced = [], []
    for i, op in enumerate(ops):
        if i % 2:
            traced.append(run_traced_op(op))
            untraced.append(execute(op, None))
        else:
            untraced.append(execute(op, None))
            traced.append(run_traced_op(op))
    if full_period:
        report.check_digest(ops[: len(plan.periods[0])], traced)
        idle = [s for s in workload.expected_spans if tracer.calls(s) == 0]
        if idle:
            raise BoundaryMissing(
                f"{workload.name}: no calls recorded at {', '.join(idle)}"
            )
    if [o.text for o in untraced] != [o.text for o in traced]:
        report.wrong.append("traced and untraced outputs differ")
    failed = report.failures(zip(ops, traced))
    report.final_checks(plan)
    rate_untraced = len(ops) / sum(o.seconds for o in untraced)
    rate_traced = len(ops) / sum(o.seconds for o in traced)
    metrics = tracer.layer_metrics()
    metrics["tracing.ops"] = (len(ops), "count")
    metrics["tracing.ops_per_s_untraced"] = (rate_untraced, "1/s")
    metrics["tracing.ops_per_s_traced"] = (rate_traced, "1/s")
    metrics["tracing.slowdown"] = (rate_untraced / rate_traced, "ratio")
    report.lines += [
        f"workload {workload.name}, seed {report.seed}: traced pass of {len(ops)} ops",
        f"tracing overhead: ops_per_s {rate_untraced:.4f} 1/s untraced, "
        f"{rate_traced:.4f} 1/s traced ({rate_untraced / rate_traced:.3f}x slower)",
        *tracer.span_lines(),
        "counts: " + json.dumps(tracer.count_snapshot(), sort_keys=True),
    ]
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--ops", type=int, default=None, help="traced pass length (default: one period)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "bxmech" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bxmech sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    report = Report(workload.name, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bxbench-") as work:
        plan, setup_s = set_up(workload, args.seed, Path(work))
        if args.trace:
            result = run_traced(workload, plan, args.ops, report)
        else:
            result = run_untraced(workload, plan, setup_s, args.seconds, report)
    for line in report.lines:
        print(line)
    for problem in report.wrong[:20]:
        print(f"incorrect: {problem}")
    doc = {
        "correct": not report.wrong,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

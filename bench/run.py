"""The relang benchmark: one workload, one client, a closed loop.

    python3 bench/run.py --workload oltp_mix --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload for ``--seconds`` and prints every
end-to-end metric; with ``--trace 1`` it runs a fixed number of rounds
twice, untraced and then traced, and prints every per-layer metric. Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A traced run is this many rounds, so its counts repeat exactly for a seed.
TRACE_ROUNDS = 1


def _import_program():
    """Import relang from this checkout's ``src``, and nowhere else."""
    if not (SRC / "relang" / "__init__.py").is_file():
        sys.exit(f"bench: no relang sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relang

    if Path(relang.__file__).resolve().parent != SRC / "relang":
        sys.exit(f"bench: imported relang from {relang.__file__}, not {SRC}")


def _report(title: str, metrics, results) -> None:
    print(title)
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"  {name:36s} {value:14.4f} {unit}{extra}")
    attempted, failed = results.attempted, len(results.failures)
    print(f"  {'op_failure_ratio':36s} {failed / attempted:14.4f} ratio  ({failed} of {attempted} operations)")
    for line in results.failures:
        print(f"  failure: {line}")


def _result_line(metrics, results) -> str:
    failed = len(results.failures)
    return json.dumps({
        "correct": failed == 0,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relang benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import ops

    if args.workload not in ops.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(ops.WORKLOADS)}")
    workload = ops.Workload(args.workload, args.seed)
    head = (
        f"relang benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
        f" python={platform.python_version()} nproc={os.cpu_count()}"
    )
    if not args.trace:
        start = time.perf_counter()
        results = workload.run(seconds=args.seconds)
        metrics = ops.end_to_end(results, args.workload, time.perf_counter() - start)
        _report(head + f" seconds={args.seconds:g}", metrics, results)
        print(_result_line(metrics, results))
        return 0

    import spans

    plain = workload.run(rounds=TRACE_ROUNDS)
    with spans.tracing() as rec:
        results = workload.run(rounds=TRACE_ROUNDS, recorder=rec)
    per_op = [sum(sum(v) for k, v in r.samples.items() if k != "setup") / r.attempted for r in (plain, results)]
    metrics = spans.per_layer_metrics(rec, results.attempted, per_op[1] / per_op[0])
    rec.write(ROOT / ".bench_out" / f"{args.workload}.spans")
    _report(head + f" rounds={TRACE_ROUNDS} spans={len(rec.span_name)}", metrics, results)
    print(_result_line(metrics, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-kv-800 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` repeats the run with timing wrappers on every layer and
prints the per-layer metrics instead (see ``layers.SHOULD_MOVE`` for what
each should move, on which workload).  Every run checks its outputs and
exits non-zero without printing metrics when a check fails.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.

The workloads and why they exist are declared in ``BENCHMARK.json``; their
loads are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for cluster data directories, inside the checkout.
WORK_DIR = ROOT / ".perfbench_run"
#: A run that has not finished by now stops its cluster and fails.
DEADLINE_S = 170


class DeadlineExceeded(SystemExit):
    """Raised by SIGALRM; ``finally`` blocks still stop every replica.

    A ``SystemExit`` because asyncio's loop reports and swallows ordinary
    exceptions raised inside callbacks, but lets this one through.
    """


def _deadline(_signum, _frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    declared = W.DECLARED["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    from simbench import CheckFailed

    run_dir = WORK_DIR / f"run-{os.getpid()}"
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        if workload.backend == "sim":
            import simrun as runner
        else:
            import liverun as runner
        outcome = runner.run(workload, args.seed, args.seconds, bool(args.trace), str(run_dir))
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        print(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

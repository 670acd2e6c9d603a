#!/usr/bin/env python3
"""Benchmark for p5cert: honest certification, large proofs, soundness fuzzing.

Run from the repository root:

    python3 perfbench/run.py --workload certify-split --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all four workloads
    python3 perfbench/run.py --self-test                            # the gates catch planted faults

One invocation runs one workload in one single-threaded process (``all``
starts a fresh process per workload, so no two workloads share the
verifier's caches).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
README.md in this directory says what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program() -> None:
    """Import p5cert from this checkout's ``src``, or exit with status 1."""
    if not (SRC / "p5cert" / "__init__.py").is_file():
        sys.exit(f"error: no p5cert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import p5cert

    if Path(p5cert.__file__).resolve().parent != SRC / "p5cert":
        sys.exit(f"error: imported p5cert from {p5cert.__file__}, not from {SRC}")


def run_all(args) -> int:
    """Each workload in a fresh process; one combined report and JSON line."""
    from measure import child
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        out = child(["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
        for line in out["lines"]:
            print(f"[{name}] {line}")
        res = out["result"]
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(f"all workloads: failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that the gates catch planted faults")
    parser.add_argument("--closure-split", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import measure
    from workloads import WORKLOADS

    if args.self_test:
        return measure.self_test()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.closure_split:
        measure.closure_split(wl, args.seed)
    elif args.trace:
        measure.traced(wl, args.seed, args.seconds)
    else:
        measure.untraced(wl, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

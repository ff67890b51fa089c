"""Benchmark entry point: one workload, one seed, one measuring time.

    python3 perfbench/run.py --workload batch-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints every metric by name with its
unit and sample count, the failure accounting and response digest, and
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import SetupError, emit, require_sources  # noqa: E402

WORKLOADS = ("cli-files", "batch-large", "lint-batch", "serve-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        if args.workload == "cli-files":
            import wl_cli as workload
        elif args.workload == "serve-mix":
            import wl_serve as workload
        else:
            import wl_inproc as workload
        tally, metrics = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emit(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

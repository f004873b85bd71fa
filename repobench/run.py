"""The repository benchmark: one named workload, every metric with its unit.

Usage::

    python3 repobench/run.py --workload svc_small_mixed --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``svc_small_mixed``, ``svc_large_detect``, ``sim_campaign``
(see ``repobench/README.md``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from a traced run.
Run it from the root of a checkout.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the run's provenance and
diagnostics.  The exit status is non-zero when any oracle, golden or
digest check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
from shadow import SHAPES  # noqa: E402

WORKLOADS = ("svc_small_mixed", "svc_large_detect", "sim_campaign")


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repobench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (launch.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no src/repro under {launch.ROOT}; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    launch.reexec_pinned()
    ticks = launch.cpu_ticks()
    if args.trace:
        import traced
        result = traced.run(args.workload, args.seed, args.seconds)
    elif args.workload == "sim_campaign":
        import sim
        result = sim.run(args.seed, args.seconds)
    else:
        import svc
        result = svc.run(args.workload, args.seed, args.seconds)
    side = SHAPES.get(args.workload, {}).get("side")
    steal = launch.steal_share(ticks, launch.cpu_ticks())
    diagnostics = {"workload": args.workload, "trace": args.trace,
                   "provenance": {**launch.provenance(args.seed, side),
                                  "steal_share": steal},
                   **{key: value for key, value in result.items()
                      if key not in ("attempted", "failed", "metrics")}}
    print(json.dumps(diagnostics, sort_keys=True, default=str))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

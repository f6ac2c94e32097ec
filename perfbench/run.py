"""Pipeline benchmark for zetacalc: parse -> infer -> translate -> denote.

    python3 perfbench/run.py --workload {rules,hchain,sharing} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; zetacalc is imported from its `src/`. One
client runs ops in a closed loop: the next op starts when the previous one
returns, and whole passes over the workload's multiset run until S seconds
have gone. Every op is checked against a reference that does not come from
`denote`. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0 (times scaled to a reference machine speed, see measure.py), the
per-layer ones (from alternated untraced and traced passes, an
untimed count pass and a CLI pass) with --trace 1. Spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "zetacalc", "__init__.py")):
        print(f"no zetacalc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    same_shape = workloads.shape(workload) == workloads.shape(
        workloads.build(args.workload, workloads.DEFAULT_SEED))
    env = measure.environment()
    print("env: " + json.dumps(env))
    if args.trace:
        spans_path = os.path.join(measure.OUT, f"spans-{args.workload}-seed{args.seed}.json")
        metrics, attempted, failed = measure.per_layer(workload, args.seconds, spans_path, env)
    else:
        metrics, attempted, failed = measure.end_to_end(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not same_shape:
        print(f"seed {args.seed} changes the op mix of {args.workload}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and same_shape,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

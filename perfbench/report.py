"""Print every metric of every workload, and check that the counts repeat.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this runs `run.py` twice untraced and twice traced with the
same seed, prints each end-to-end and per-layer metric by name with its unit
(from the first run of each kind), and compares the counts between the two
runs of each kind. They must match exactly; timings are not compared. Exits
1 if a run is incorrect or a count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Metrics that depend only on the inputs, not on the speed of the machine.
COUNTS = ("peak_alloc_mb", "syntax.term_nodes", "types.derivation_nodes",
          "types.c_nodes", "diagram.nodes", "diagram.spiders", "diagram.max_width",
          "evaluator.peak_alloc_mb", "evaluator.result_to_peak", "theory.sound",
          "theory.side-condition-unmet", "theory.unsound", "theory.type-error",
          "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3")


def bench(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    ).stdout.splitlines()
    env = next(line for line in out if line.startswith("env: "))
    return env, json.loads(out[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            env, first = bench(workload, args.seed, args.seconds, trace)
            _, second = bench(workload, args.seed, args.seconds, trace)
            print(f"# {workload} trace={trace} seed={args.seed} "
                  f"correct={first['correct']} attempted={first['attempted']} "
                  f"failed={first['failed']} {env}")
            for name, m in first["metrics"].items():
                print(f"{workload:8s} {name:28s} {m['value']:14.6g} {m['unit']}")
            differ = [name for name in COUNTS if name in first["metrics"]
                      and first["metrics"][name] != second["metrics"][name]]
            print(f"# counts repeat across two runs: {'no: ' + ', '.join(differ) if differ else 'yes'}")
            ok &= first["correct"] and second["correct"] and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

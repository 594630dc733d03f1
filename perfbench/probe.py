"""Set-up probe: a fresh interpreter imports a workload's entry module and warms it up.

run.py times whole runs of this script (python3 perfbench/probe.py WORKLOAD SEED)
for the setup_s metric. cli_cold only imports qdiscrim.cli, as each of its
processes does; the in-process workloads import qdiscrim and run their
warm-up ops.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(workload: str, seed: int) -> None:
    if workload == "cli_cold":
        importlib.import_module("qdiscrim.cli")
        return
    module = importlib.import_module(f"perfbench.{workload}")
    for i in range(module.WARMUP_OPS):
        module.run(module.make_op(seed, 10**9 + i))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

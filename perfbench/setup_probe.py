"""Time one set-up in a fresh interpreter and print the seconds taken.

    python3 setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing framephase and building the workload's inputs, the
same inputs the timed loop of run.py uses (the cli workload writes its
input files under WORKDIR).
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import framephase  # noqa: F401  (the import is part of set-up)
    import workloads

    ctx = workloads.Context(seed, workdir, env={})
    workloads.build(name, ctx, workloads.WORKLOADS[name].rounds)
    print(time.perf_counter() - STARTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())

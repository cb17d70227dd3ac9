"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing ``hooktrees`` (with ``hooktrees.cli``) and building the
workload's permuted input.  Importing the benchmark's own modules is not
counted.  ``run.py`` starts several of these and reports the median:

    python3 hookbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from random import Random
from time import perf_counter


def main(name: str, seed: int) -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    start = perf_counter()
    import hooktrees.cli  # noqa: F401

    imported = perf_counter()
    from hookbench.workloads import WORKLOADS

    resumed = perf_counter()
    WORKLOADS[name].permute(Random(seed))
    print((imported - start) + (perf_counter() - resumed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

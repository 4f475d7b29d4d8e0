"""Time one set-up of a workload in a fresh process: ``import parmm`` plus
building the opening market.  Making the inputs is not timed.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the set-up time in seconds and the factor that scales it to the
reference machine (machine.py), from the kernel timed just before and just
after the set-up.

run.py starts it with the BLAS and OpenMP thread counts already pinned to 1.
"""

import sys
import time
from pathlib import Path

import machine


def main(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    before = machine.scale_now()
    t0 = time.perf_counter()
    import workloads  # imports parmm, numpy and scipy

    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, workdir)
    t2 = time.perf_counter()
    wl.build()
    seconds = (t1 - t0) + (time.perf_counter() - t2)
    return seconds, 0.5 * (before + machine.scale_now())


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))

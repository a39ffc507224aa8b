"""Time one workload's set-up in a fresh process and print the seconds.

Set-up is everything before the first timed call: importing NumPy and
``repro``, generating the fields, resolving the formats, and building
and running each format's first runner on one shard (which builds the
codec tables).  Its wall time is divided by the host slowdown measured
right after it (``hostspeed.py``).  ``run.py`` times its own set-up,
starts this script twice more, and reports the median.

    python3 perfbench/setup_probe.py --workload paper-durable --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

#: Start of set-up (after the standard library imports), as in run.py.
_START = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hostspeed
    import workloads

    workloads.setup(args.workload, args.seed)
    seconds = time.perf_counter() - _START
    print(seconds / hostspeed.slowdown(hostspeed.sample()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

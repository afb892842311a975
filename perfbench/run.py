#!/usr/bin/env python3
"""The repository benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload suite-small --seed 1 --trace 0

Runs the simulator from ``src/`` of this checkout and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    sys.path[:0] = [HERE, SRC]
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the golden ticks and digests.

    python3 perfbench/make_reference.py

Runs every suite-small point and every distinct service-mix point once
in-process and records its ``total_ticks`` with digests of its ``stats``
and of its whole ``RunResult``.  The benchmark fails any point that does
not reproduce its record.  Regenerate only for a change that is meant to
alter simulated behaviour, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import simpoints  # noqa: E402


def main() -> int:
    reference = {}
    for section, points in (("suite-small", inputs.suite_small(0)),
                            ("service-mix", inputs.service_sim_points())):
        records = {}
        for point in sorted(points, key=lambda p: p.key):
            records[point.key] = simpoints.fingerprint(
                simpoints.run_point(point).result)
            print(section, point.key, records[point.key], flush=True)
        reference[section] = records
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

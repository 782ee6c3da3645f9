"""Restore one snapshot in a fresh process, as a restart would, and time it.

Started by ``workloads.py``::

    python3 perfbench/restore_child.py --src src --kind engine --path SNAPSHOT

``--kind engine`` times ``Engine.load(path)``; ``--kind service`` times
``ServiceApp.restore(path)`` of a service store directory.  The last line
of standard output is one JSON object: the load's seconds, the host-speed
scale measured around it (see ``calibration``), and the restored engine's
budget ledger and next-round reports, which the parent checks against the
live engine's.

A fresh process is what a restart restores into, and it makes the load
repeatable: inside the benchmark process, after a pass, two loads of one
snapshot in a row differed by up to a fifth.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

#: Calibrations taken before the load, and again after it.
CALIBRATIONS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--kind", choices=("engine", "service"), required=True)
    parser.add_argument("--path", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    import calibration
    from repro.api import Engine
    from repro.service import RoundRequest, ServiceApp

    scales = [calibration.scale(memory=True) for _ in range(CALIBRATIONS)]
    started = perf_counter()
    if args.kind == "engine":
        restored = Engine.load(args.path)
    else:
        restored = ServiceApp.restore(args.path)
    seconds = perf_counter() - started
    scales += [calibration.scale(memory=True) for _ in range(CALIBRATIONS)]

    if args.kind == "engine":
        ledger = restored.budget_ledger()
        reports = {
            name: report.to_dict()
            for name, report in restored.run_round().items()
        }
    else:
        ledger = restored.ledger().to_wire()
        outcome = restored.run_rounds(RoundRequest(rounds=1)).to_wire()
        reports = {
            entry["task"]: entry["report"]
            for entry in outcome["results"][0]["outcomes"]
        }
    print(json.dumps({
        "seconds": seconds,
        "scale": statistics.fmean(scales),
        "ledger": ledger,
        "reports": reports,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

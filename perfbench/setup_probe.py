"""Set up one workload in a fresh process, report ready, then tear down.

Usage: ``python3 perfbench/setup_probe.py <workload>``.  Prints
``ready`` once the workload is set up; ``run.py`` times the process
from launch to that line.
"""

from __future__ import annotations

import sys

from workloads import import_repro, set_up, stop_helper_processes


def main() -> int:
    import_repro()
    try:
        runner = set_up(sys.argv[1])
        print("ready", flush=True)
        stop = getattr(runner, "stop", None)
        if stop is not None:
            stop()
    finally:
        stop_helper_processes()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Set-up time of one fresh interpreter, as a ratdyn CLI user pays it.

    python3 perfbench/probe_setup.py WORKLOAD SEED DIRECTORY

Before the clock starts this imports nothing but the standard library and
workloads.py, so numpy and every other ratdyn dependency load inside the
timed part.  It then imports ratdyn, writes the workload's seeded system
files into DIRECTORY, loads and parses them, removes DIRECTORY and prints
the seconds taken.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only)


def setup(workload: str, seed: int, directory: str):
    """Import ratdyn, write the seeded system files and load/parse them.

    Returns (seconds, ratdyn package, workload, {name: DynamicalSystem}).
    """
    started = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ratdyn
    import ratdyn.cli  # noqa: F401  (the entry point the queries use)
    wl = workloads.build(workload, seed)
    os.makedirs(directory, exist_ok=True)
    systems = {}
    for name, text in wl.files.items():
        path = os.path.join(directory, f"{name}.system")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        systems[name] = ratdyn.load_system(path).build()
    return time.perf_counter() - started, ratdyn, wl, systems


if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    try:
        seconds = setup(workload, seed, directory)[0]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(repr(seconds))

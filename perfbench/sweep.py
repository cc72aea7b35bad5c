"""Scaling sweep of GBABS.run, not gated.

Regenerates the RD-GBG baseline table: GBABS.run wall time, allocation and
orphan-ball statistics at n in {1500, 3000, 6000, 12000} for S5, S8, S10 and
S13 at 20 % label noise, one single-threaded call per point. Writes
perfbench/sweep.json. Takes about six minutes on 4 cores.

Usage: python3 perfbench/sweep.py [--out file.json]
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(build.HERE, "sweep.json"))
    args = ap.parse_args()
    try:
        classpath = build.build()
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")
    proc = subprocess.run(
        [build.java(), "-Xms3g", "-Xmx3g", "-cp", classpath, "perfbench.Sweep", args.out])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

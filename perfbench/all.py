"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/all.py [--seed 1] [--seconds 25]

Each run is a separate ``run.py`` process, one after another, so runs do not
compete for the CPU. Exits non-zero if any run fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

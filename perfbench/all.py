"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/all.py --seed 1 --seconds 25

Each workload runs in its own ``run.py`` process, one after another, so that
set-up time and peak memory are per workload.  Exits 1 if any run fails or
reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from jobs import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:14s} {m['value']:12.4f} {m['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload, each in its own process, and print one table.

    python3 perfbench/report.py --seed 1 --seconds 36            # end to end
    python3 perfbench/report.py --seed 1 --seconds 36 --trace    # and per layer

Workloads run one after another, never together. The exit code is 1 if any
run failed its output checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = ap.parse_args()
    all_correct = True
    for trace in (0, 1) if args.trace else (0,):
        for name in WORKLOADS:
            info, result = run(name, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"failed/attempted={result['failed']}/{result['attempted']} "
                  f"fail_share={info['fail_share']:.4g} runs={info['runs']} "
                  f"steps={info['steps']} test_sentences={info['test_sentences']}")
            for key, value in info["checked"].items():
                print(f"   checked {key:<38} {value}")
            for key, m in result["metrics"].items():
                print(f"   {key:<46} {m['value']:>14.6g} {m['unit']}")
            for failure in info["failures"]:
                print(f"   FAILED: {failure}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

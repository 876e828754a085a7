"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload cold-points --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints each one's table.  The
exit code is 0 only when every output matched its reference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("cold-points", "sweep-grid", "service-hits", "profiled-points")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())

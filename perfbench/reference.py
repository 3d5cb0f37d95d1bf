"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/reference.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/reference.py --workloads eval_attacked --seeds 1 2 --trace 1

Each (workload, seed) runs ``run.py`` in its own fresh process, one after
the other.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is the spread that ``BENCHMARK.json`` bounds.
The raw results are saved to ``perfbench/out/reference-<trace>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:42s} {med:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:.3f}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"reference-{args.trace}.json").write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()

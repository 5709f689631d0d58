"""Run the benchmark once per seed on each workload and report, for every
metric, the median and the quartile spread (q3 - q1) / median that the
bounds in BENCHMARK.json are judged against.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 1,2,...]
                                    [--trace 0|1] [--json FILE]

Runs go one after another, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the medians and spreads here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            result, wall = run_once(workload, seed, spec["run_seconds"], args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(seeds)} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        summary[workload] = {"run_wall_s": statistics.median(walls)}
        for name, vals in values.items():
            s = spread(vals) if len(vals) >= 2 else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER"))
            print(f"  {name:<34} median {statistics.median(vals):<12.6g} spread {s:7.4f}  bound {bound}  {flag}")
            summary[workload][name] = {"median": statistics.median(vals), "spread": s, "runs": vals}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

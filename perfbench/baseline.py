"""Run the benchmark over several seeds per workload and summarise it.

    python3 perfbench/baseline.py [--first-seed 2000] [--out FILE]

For every workload in BENCHMARK.json this makes one untraced run on each of
SEEDS seeds and one traced run (on the first seed), one process at a time,
with the run length from BENCHMARK.json.  It prints every end-to-end metric
with its unit, its median over the seeds and its spread (interquartile
range over median, as `statistics.quantiles(values, n=4)` gives the
quartiles), then the per-layer metrics of the traced run.  With --out it also writes the whole record,
which is how perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10  # as many seeds as the benchmark's acceptance check uses


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py; returns (result with its wall time, environment)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result, env


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=2000)
    ap.add_argument("--out", default=None, help="write the full record here")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record: dict = {"run_seconds": seconds, "seeds": SEEDS,
                    "first_seed": args.first_seed, "workloads": {}}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        walls = []
        wl_ok = True
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            res, env = bench(wl, seed, seconds, 0)
            wl_ok &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            walls.append(res["wall_s"])
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{wl} seed {seed}: correct={res['correct']} wall_s={res['wall_s']:.1f} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced, _ = bench(wl, args.first_seed, seconds, 1)
        wl_ok &= traced["correct"]
        ok &= wl_ok
        for key in ("seed", "workload"):
            env.pop(key, None)
        record["environment"] = env
        record["workloads"][wl] = {
            "correct": wl_ok,
            "attempted_steps": attempted,
            "failed_steps": failed,
            "fail_frac": failed / attempted,
            "invocation_wall_s": {"untraced": summarise(walls),
                                  "traced": traced["wall_s"]},
            "end_to_end": {name: {"unit": units[name], **summarise(vals)}
                           for name, vals in per_metric.items()},
            "per_layer": {name: m for name, m in traced["metrics"].items()},
        }
        print(f"\n{wl}: fail_frac {failed / attempted:.4g} ratio "
              f"({failed} of {attempted} steps)")
        for name, s in record["workloads"][wl]["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above bound/3)"
            print(f"  {name:16s} {s['median']:12.5g} {units[name]:8s} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        for name, m in traced["metrics"].items():
            print(f"  {name:40s} {m['value']:12.5g} {m['unit']}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The pathsgd benchmark: real `pathsgd train` runs, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/`.  Each training run is a fresh process (`perfbench/probe.py`), one at
a time, with BLAS pinned to one thread.  Runs of the same fixed-length
training command repeat until S seconds have passed, at least MIN_REPS
times, and every timing is the median over those runs.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced runs and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Every run goes through the output check in
`check_run`; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  `attempted` counts
training steps; a failing run counts its unfinished steps as failed.

See perfbench/README.md for why the workloads and metrics are these.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
RUNS_DIR = ROOT / ".perfbench-runs"
# Workload and metric names and units are read from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_REPS = 3           # setup_s and run_s are medians of at least this many runs
MIN_TRACE_PAIRS = 1
DEADLINE_S = 150.0     # start no run that is expected to end after this
BLAS_THREADS = 1       # set, not inherited; one is within nproc anywhere
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The settings of each workload named in BENCHMARK.json: a fixed
# `pathsgd train` command; --seed sets `seed` (init and batch stream).  The
# held-out sets stay fixed.
WORKLOADS = {
    "add-T750-k12": (
        "task=addition", "seq_len=750", "hidden=100", "optimizer=path_sgd",
        "kappa_mode=k1_plus_k2", "lr=1e-3", "init_range=0.1",
        "steps=12", "eval_interval=12",
    ),
    "charlm-H128-adam": (
        "task=charlm", "seq_len=50", "hidden=128", "optimizer=path_adam",
        "kappa_mode=k1", "lr=1e-3", "init_range=0.1", "eval_interval=100",
        "steps=50",
    ),
    "add-T40-k1": (
        "task=addition", "seq_len=40", "hidden=32", "optimizer=path_sgd",
        "kappa_mode=k1", "lr=1e-2", "init_range=0.3", "eval_size=1024",
        "eval_interval=25", "checkpoint_interval=250", "steps=500",
    ),
}

GOOD_STATUS = ("budget_exhausted", "converged")


def steps_of(settings) -> int:
    return int(next(s for s in settings if s.startswith("steps=")).split("=", 1)[1])


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    env.pop("PATHSGD_OUT_DIR", None)
    return env


def csv_without_wall(path: Path) -> str | None:
    """metrics.csv with the wall_ms column dropped, or None if missing."""
    if not path.is_file():
        return None
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if not rows or "wall_ms" not in rows[0]:
        return None
    col = rows[0].index("wall_ms")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)


def check_run(out_dir: Path, rec: dict, trace: bool) -> list[str]:
    """Reasons this run fails the output check; empty when it passes."""
    problems = []
    if rec.get("exit") != 0:
        problems.append(f"exit code {rec.get('exit')}")
    status_path = out_dir / "status.txt"
    status = status_path.read_text().strip() if status_path.is_file() else None
    if status not in GOOD_STATUS:
        problems.append(f"status {status!r}")
    metrics = out_dir / "metrics.csv"
    if not metrics.is_file():
        problems.append("no metrics.csv")
    else:
        lines = metrics.read_text().splitlines()
        header = lines[0].split(",") if lines else []
        try:
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        except ValueError:
            rows = []
        if (not rows or "test_metric" not in header
                or not all(math.isfinite(x) for r in rows for x in r)):
            problems.append("metrics.csv empty or not finite")
        else:
            col = header.index("test_metric")
            if min(r[col] for r in rows) >= rows[0][col]:
                problems.append("held-out metric never went below its step-0 value")
    if trace and (rec.get("kappa_checked", 0) == 0 or rec.get("kappa_bad", 0)):
        problems.append(f"kappa not finite and positive in {rec.get('kappa_bad')} "
                        f"of {rec.get('kappa_checked')} calls")
    return problems


def run_once(workload: str, seed: int, trace: bool, tag: str,
             timeout: float) -> dict:
    """One training run in a fresh process; returns its record with the
    check outcome and the step accounting."""
    settings = WORKLOADS[workload]
    steps = steps_of(settings)
    out_dir = RUNS_DIR / tag
    out_dir.mkdir(parents=True)
    result = out_dir / "probe.json"
    args = [sys.executable, str(PROBE), str(result), "1" if trace else "0", "--"]
    for kv in (*settings, f"seed={seed}", f"out_dir={out_dir / 'train'}"):
        args += ["--set", kv]
    rec: dict = {}
    with open(out_dir / "stdout.txt", "w") as out, open(out_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rec["exit"] = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode == 0 and result.is_file():
        rec = json.loads(result.read_text())
    elif "exit" not in rec:
        rec["exit"] = f"probe exit {proc.returncode}"
    problems = check_run(out_dir / "train", rec, trace)
    done = rec.get("steps_done") or 0
    if problems:
        # A run that finished every step but failed the check lost all of them.
        failed = steps - done if done < steps else steps
        print(f"{tag}: FAILED ({'; '.join(problems)})", file=sys.stderr)
        tail = (out_dir / "stderr.txt").read_text().strip().splitlines()[-5:]
        for line in tail:
            print(f"  {line}", file=sys.stderr)
    else:
        failed = 0
        print(f"{tag}: setup_s {rec['setup_s']:.4f} loop_s {rec['loop_s']:.4f} "
              f"run_s {rec['run_s']:.4f} peak_rss_mib {rec['peak_rss_mib']:.1f}",
              file=sys.stderr)
    rec.update(problems=problems, attempted=steps, failed=failed,
               csv=csv_without_wall(out_dir / "train" / "metrics.csv"))
    if rec.get("loop_s") and done:
        rec["steps_per_s"] = (done - rec.get("start_step", 0)) / rec["loop_s"]
    return rec


def passing(recs: list[dict]) -> list[dict]:
    """The runs that passed the check, or all runs when none did, so that a
    failing workload still reports numbers."""
    return [r for r in recs if not r["problems"]] or recs


def median_of(values) -> float:
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else 0.0


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(workload: str, seed: int) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict form
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_revision": git_revision(), "workload": workload, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pathsgd" / "cli.py").is_file():
        print(f"error: no pathsgd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    shutil.rmtree(RUNS_DIR, ignore_errors=True)

    trace = bool(args.trace)
    # Untraced only, or (untraced, traced) pairs.
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACE_PAIRS if trace else MIN_REPS
    recs: dict[bool, list[dict]] = {False: [], True: []}
    t_start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if rounds >= min_rounds and elapsed >= args.seconds:
            break
        if rounds and elapsed + longest > DEADLINE_S:
            print(f"stopping after {rounds} rounds: deadline", file=sys.stderr)
            break
        r0 = time.perf_counter()
        for traced in kinds:
            tag = f"{args.workload}-{rounds}-{'traced' if traced else 'plain'}"
            remaining = DEADLINE_S + 20.0 - (time.perf_counter() - t_start)
            recs[traced].append(run_once(args.workload, args.seed, traced, tag,
                                         timeout=max(remaining, 1.0)))
        longest = max(longest, time.perf_counter() - r0)
        rounds += 1

    every = recs[False] + recs[True]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    csvs = {r["csv"] for r in every}
    correct = all(not r["problems"] for r in every) and len(csvs) == 1
    if len(csvs) > 1:
        print("metrics.csv differs between runs of the same seed", file=sys.stderr)

    if trace:
        traced_runs = passing(recs[True])
        layers = [r["layers"] for r in traced_runs if "layers" in r]
        values = {name: median_of(lay[name] for lay in layers)
                  for name in (layers[0] if layers else ())}
        plain_sps = median_of(r.get("steps_per_s") for r in passing(recs[False]))
        traced_sps = median_of(r.get("steps_per_s") for r in traced_runs)
        values["trace.overhead_frac"] = 1.0 - traced_sps / plain_sps if plain_sps else 0.0
        spec = SPEC["per_layer"]
    else:
        plain = passing(recs[False])
        values = {m["name"]: median_of(r.get(m["name"]) for r in plain)
                  for m in SPEC["end_to_end"]}
        values["steps_ok_frac"] = 1.0 - failed / attempted
        spec = SPEC["end_to_end"]
        print(f"runs passed {sum(not r['problems'] for r in recs[False])} "
              f"of {len(recs[False])}; "
              f"fail_frac {failed / attempted:.6g} ratio; "
              + "; ".join(f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in spec))
    unmeasured = [m["name"] for m in spec if m["name"] not in values]
    if unmeasured and correct:
        print(f"metrics not measured: {', '.join(unmeasured)}", file=sys.stderr)
        correct = False

    if correct:  # a failing run's files stay for inspection until the next run
        shutil.rmtree(RUNS_DIR, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

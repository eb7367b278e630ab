"""Command-line interface.

Subcommands:
  train        fit a task with sgd / adam / path_sgd / path_adam
  verify       run the randomized correctness properties
  kappa-ratio  tabulate ||kappa2|| / ||kappa1|| across sizes and lengths

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 training diverged.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from pathlib import Path

import numpy as np

from . import optim, pathnorm, tasks, verify
from .config import (
    ConfigError,
    RunConfig,
    config_text,
    load_checkpoint,
    load_config,
    metrics_header,
    metrics_row,
    metrics_rows_before,
    save_checkpoint,
    write_lines,
    write_metrics,
)
from .graph import RnnLayout

# perfbench/probe.py wraps this name for its graph.build_rnn span; nothing
# calls it.  It goes when a benchmark change drops that span.
build_rnn = RnnLayout

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DIVERGED = 3

# glibc mallopt parameters and the values cmd_train sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 64 << 20
# The columns of the kappa-ratio table, on stdout and in --csv.
KAPPA_RATIO_HEADER = "hidden,length,mean_ratio,sd_ratio"


def make_task(cfg: RunConfig):
    if cfg.task == "addition":
        return tasks.AdditionTask(length=cfg.seq_len, eval_size=cfg.eval_size,
                                  eval_seed=cfg.data_seed)
    if cfg.task == "seqclass":
        return tasks.SeqClassTask(size=cfg.image_size, num_classes=cfg.num_classes,
                                  n=cfg.data_size, test_frac=cfg.test_frac,
                                  data_seed=cfg.data_seed)
    path = cfg.corpus or tasks.bundled_corpus_path()
    return tasks.CharLmTask(tasks.load_char_corpus(path), unroll=cfg.seq_len)


def make_net(cfg: RunConfig, task) -> RnnLayout:
    return RnnLayout(task.input_dim, cfg.hidden, task.output_dim, task.length, bias=cfg.bias)


def init_params(cfg: RunConfig, layout: RnnLayout) -> np.ndarray:
    rng = optim.rng_for(cfg.seed, optim.STREAM_INIT)
    if cfg.init == "identity":
        return optim.init_identity(layout, rng, cfg.init_range)
    return optim.init_uniform(layout, rng, cfg.init_range)


def tune_malloc() -> None:
    """Fix glibc's mmap and trim thresholds.  A no-op where the C library
    has no mallopt.

    charlm-H128-adam needs both: buffers below 4 MiB stay on the heap, and
    up to 64 MiB of freed heap is kept rather than returned, so a step does
    not fault its pages in again; leaving out either setting cost it about
    a quarter of its steps/s.  add-T750-k12 sets the 4 MiB: buffers from
    there up are mapped on their own and unmapped when freed.  4 MiB is
    where numpy marks an array for transparent huge pages, and on the heap
    that mark outlives the array: at a 32 MiB threshold the heap held huge
    pages, and this workload's peak RSS read 65 or 81 MiB by heap layout."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def cmd_train(args) -> int:
    tune_malloc()
    overrides: dict[str, str] = {}
    for kv in args.set:
        if "=" not in kv:
            raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
        key, value = kv.split("=", 1)
        if key in overrides:
            raise ConfigError(f"--set gives {key!r} twice: {key}={overrides[key]} and {kv}")
        overrides[key] = value
    cfg = load_config(args.config, overrides)
    task = make_task(cfg)
    layout = make_net(cfg, task)
    out = Path(cfg.out_dir)

    if args.resume:
        start_step, p, opt = load_checkpoint(args.resume, layout)
        if start_step > cfg.steps:
            raise ConfigError(
                f"steps = {cfg.steps} cannot take effect on resume: the "
                f"checkpoint is already at step {start_step}")
        # The checkpoint's optimizer settings continue; the config must agree.
        for key, field in optim.CONFIG_KEYS:
            if getattr(cfg, key) != getattr(opt, field):
                raise ConfigError(
                    f"{key} = {getattr(cfg, key)} cannot take effect on resume: "
                    f"the checkpoint continues with {getattr(opt, field)}")
        earlier = metrics_rows_before(out / "metrics.csv", start_step,
                                      cfg.record_kappa_ratio)
    else:
        start_step, p, opt, earlier = 0, init_params(cfg, layout), None, []

    out.mkdir(parents=True, exist_ok=True)
    write_lines(out / "config.txt", config_text(cfg).splitlines())

    print(metrics_header(cfg.record_kappa_ratio))
    rows: list[dict] = []

    def on_eval(row, pp, oo):
        rows.append(row)
        print(metrics_row(row, cfg.record_kappa_ratio))
        sys.stdout.flush()
        if (cfg.checkpoint_interval and row["step"]
                and row["step"] % cfg.checkpoint_interval == 0):
            # The rows first: a crash between the two writes then leaves
            # every row before the newest checkpoint on disk.
            write_metrics(out / "metrics.csv", rows, cfg.record_kappa_ratio, earlier)
            save_checkpoint(out / f"checkpoint_{row['step']}.txt",
                            row["step"], layout, pp, oo)

    result = optim.train_loop(layout, task, cfg, p, opt,
                              start_step=start_step, on_eval=on_eval)
    write_metrics(out / "metrics.csv", result.history, cfg.record_kappa_ratio,
                  earlier)
    save_checkpoint(out / "checkpoint.txt", result.steps_done, layout,
                    result.params, result.opt)
    write_lines(out / "status.txt", [result.status])
    status = f"{result.status} ({result.reason})" if result.reason else result.status
    summary = f"status: {status} after {result.steps_done} steps"
    if result.history:
        summary += (f" ({task.metric_name} on held-out data: "
                    f"{result.history[-1]['test_metric']:.6g})")
    print(summary)
    return EXIT_DIVERGED if result.status == "diverged" else EXIT_OK


def check_seed(seed: int) -> None:
    """Reject a seed NumPy cannot take, by its flag, before any output."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def cmd_verify(args) -> int:
    check_seed(args.seed)
    results = verify.run_all(level=args.level, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_kappa_ratio(args) -> int:
    if min(args.hidden) < 1 or min(args.lengths) < 1 or args.seeds < 1:
        raise ConfigError("hidden sizes, lengths and seeds must be positive")
    check_seed(args.seed)
    for flag, dim in (("--input-dim", args.input_dim), ("--output-dim", args.output_dim)):
        if dim < 1:
            raise ConfigError(f"{flag} must be at least 1, got {dim}")
    r = args.init_range
    if not (math.isfinite(r) and r > 0.0 and r * r > 0.0):
        raise ConfigError(f"--init-range must be finite and > 0, with a square above 0 "
                          f"(where p^2 is 0, kappa1 is identically zero), got {r}")
    lines = [KAPPA_RATIO_HEADER]
    print(lines[0])
    for h in args.hidden:
        for t in args.lengths:
            layout = RnnLayout(args.input_dim, (h,), args.output_dim, t)
            ratios = []
            for s in range(args.seeds):
                rng = optim.rng_for(args.seed, optim.STREAM_INIT, s)
                p = optim.init_uniform(layout, rng, args.init_range)
                ratio = pathnorm.kappa_ratio(layout, p)
                # From length 3 on every recurrent entry of kappa2 is > 0
                # when no weight is 0, so a ratio of 0 is an underflow.
                if not math.isfinite(ratio) or (ratio == 0.0 and t >= 3):
                    raise ConfigError(f"--init-range {r} gives a kappa ratio of {ratio} at "
                                      f"hidden {h}, length {t}: kappa leaves the float range")
                ratios.append(ratio)
            lines.append(f"{h},{t},{np.mean(ratios):.6g},{np.std(ratios):.6g}")
            print(lines[-1])
            sys.stdout.flush()
    if args.csv:
        write_lines(args.csv, lines)
    return EXIT_OK


def comma_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pathsgd", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    tp = sub.add_parser("train", help="train a task")
    tp.add_argument("--config", default=None, help="key = value config file")
    tp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override one config key (repeatable)")
    tp.add_argument("--resume", default=None, help="checkpoint file to resume from")
    tp.set_defaults(fn=cmd_train)

    vp = sub.add_parser("verify", help="run correctness properties")
    vp.add_argument("--level", choices=("quick", "full"), default="quick")
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(fn=cmd_verify)

    kp = sub.add_parser("kappa-ratio",
                        help="relative size of the kappa2 interaction term")
    kp.add_argument("--hidden", type=comma_ints, default="20,100",
                    help="comma list of widths")
    kp.add_argument("--lengths", type=comma_ints, default="10,20",
                    help="comma list of unroll lengths")
    kp.add_argument("--input-dim", type=int, default=10)
    kp.add_argument("--output-dim", type=int, default=10)
    kp.add_argument("--init-range", type=float, default=0.1)
    kp.add_argument("--seeds", type=int, default=5)
    kp.add_argument("--seed", type=int, default=0)
    kp.add_argument("--csv", default=None, help="also write the table here")
    kp.set_defaults(fn=cmd_kappa_ratio)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration, checkpoint files, and metrics output.

Configs are flat ``key = value`` text.  Checkpoints are plain text with
17-significant-digit floats, which round-trip doubles exactly, so a resumed
run continues bit-for-bit.  Every output file is written through
write_lines.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import RnnLayout
from .optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, DEFAULT_EPS, OPTIMIZERS,
                    OptimizerState)
from .pathnorm import KAPPA_MODES

INIT_SCHEMES = ("uniform", "identity")
OUT_DIR_ENV = "PATHSGD_OUT_DIR"
CHECKPOINT_MAGIC = "pathsgd checkpoint v1"
# The data keys, and the ones each task reads (cli.make_task).
DATA_KEYS = ("seq_len", "corpus", "num_classes", "image_size", "data_size",
             "test_frac", "eval_size", "data_seed")
TASK_KEYS = {
    "addition": ("seq_len", "eval_size", "data_seed"),
    "seqclass": ("image_size", "num_classes", "data_size", "test_frac", "data_seed"),
    "charlm": ("seq_len", "corpus"),
}
TASKS = tuple(TASK_KEYS)
# Adam's fixed settings, written to every checkpoint header; a checkpoint
# that holds other values cannot continue here.
ADAM_HEADER = (("beta1", ADAM_BETA1), ("beta2", ADAM_BETA2), ("eps_adam", ADAM_EPS))
BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}
# The metrics.csv columns; kappa_ratio only with record_kappa_ratio.
METRICS_COLUMNS = ("step", "train_loss", "train_metric", "test_metric", "kappa_ratio",
                   "wall_ms")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # task and data
    task: str = "addition"
    seq_len: int = 40               # unroll length (and charlm window)
    hidden: tuple[int, ...] = (32,)
    bias: bool = False
    corpus: str = ""                # charlm text path; empty uses the bundled corpus
    num_classes: int = 4
    image_size: int = 8
    data_size: int = 1024
    test_frac: float = 0.25
    eval_size: int = 512
    data_seed: int = 1
    # optimizer
    optimizer: str = "path_sgd"
    lr: float = 1e-3
    kappa_mode: str = "k1"          # path optimizers only
    epsilon: float = DEFAULT_EPS    # kappa floor; path optimizers only
    init: str = "uniform"
    init_range: float = 0.1
    # loop
    batch_size: int = 32
    steps: int = 1000
    eval_interval: int = 100
    seed: int = 0
    target_test_metric: float | None = None
    record_kappa_ratio: bool = False
    timing: bool = False
    # output
    out_dir: str = "runs/out"
    checkpoint_interval: int = 0    # 0 writes a checkpoint at the end only

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if self.kappa_mode not in KAPPA_MODES:
            raise ConfigError(f"unknown kappa_mode {self.kappa_mode!r}")
        if self.init not in INIT_SCHEMES:
            raise ConfigError(f"unknown init {self.init!r}; choose from {INIT_SCHEMES}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden must list positive layer widths")
        if self.seq_len < 1 or self.batch_size < 1 or self.eval_interval < 1:
            raise ConfigError("seq_len, batch_size and eval_interval must be >= 1")
        if self.task == "addition" and self.seq_len < 2:
            raise ConfigError(f"seq_len = {self.seq_len} must be >= 2 with task = addition: "
                              "it marks one step in each half of the sequence")
        if min(self.eval_size, self.data_size, self.image_size, self.num_classes) < 1:
            raise ConfigError("eval_size, data_size, image_size and num_classes must be >= 1")
        if not 0 < self.test_frac < 1:
            raise ConfigError("test_frac must lie strictly between 0 and 1")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        for key in ("seed", "data_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} = {getattr(self, key)} must be >= 0")
        for key in ("lr", "epsilon", "init_range", "target_test_metric"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} = {value} is not finite")
        if self.lr <= 0 or self.epsilon <= 0 or self.init_range <= 0:
            raise ConfigError("lr, epsilon and init_range must be positive")
        if self.target_test_metric is not None and self.target_test_metric < 0:
            raise ConfigError(f"target_test_metric = {self.target_test_metric} must be >= 0: "
                              "mse, error_rate and bpc never go below 0")
        # A key that the task or the optimizer never reads could not take
        # effect, so it must keep its default.
        reads = TASK_KEYS[self.task]
        idle = [(key, f"task = {self.task}, which reads only "
                          f"{', '.join(reads)} of the data keys")
                for key in DATA_KEYS if key not in reads]
        if self.optimizer in ("sgd", "adam"):
            idle += [(key, f"optimizer = {self.optimizer}; it applies to path_sgd "
                           "and path_adam only") for key in ("kappa_mode", "epsilon")]
        default = RunConfig()
        for key, why in idle:
            if getattr(self, key) != getattr(default, key):
                raise ConfigError(f"{key} = {getattr(self, key)} has no effect with {why}")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval and self.checkpoint_interval % self.eval_interval != 0:
            raise ConfigError("checkpoint_interval must be a multiple of eval_interval")


def _field_value(key: str, raw: str):
    kind = {f.name: f.type for f in dataclasses.fields(RunConfig)}.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    low = raw.strip().lower()
    try:
        if key == "hidden":
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        if kind == "bool":
            return BOOL_WORDS[low]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float | None":
            return None if low in ("", "none") else float(raw)
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_kv_text(text: str) -> dict[str, str]:
    """``key = value`` per line; blank lines and ``#`` comments ignored.  A
    key given on two lines is rejected: only one of them could take effect."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = raw
    return out


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults, then the file, then PATHSGD_OUT_DIR (out_dir only), then
    overrides, each later one winning."""
    cfg = RunConfig()
    if path is not None:
        for key, raw in parse_kv_text(Path(path).read_text(encoding="utf-8")).items():
            setattr(cfg, key, _field_value(key, raw))
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        cfg.out_dir = env_out
    for key, raw in (overrides or {}).items():
        setattr(cfg, key, _field_value(key, raw))
    cfg.validate()
    return cfg


def config_text(cfg: RunConfig) -> str:
    """The resolved config in the same key = value grammar."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        val = getattr(cfg, f.name)
        if f.name == "hidden":
            val = ",".join(str(h) for h in val)
        elif val is None:
            val = "none"
        elif isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpoints

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# Entries per string _fmt_array yields: one % formatting per block, without
# a Python float per entry of the whole array at once.
FMT_BLOCK = 4096


def _fmt_array(a: np.ndarray):
    """_fmt's text of every entry, one per line, in strings of at most
    FMT_BLOCK lines without the last newline, which write_lines adds."""
    a = np.asarray(a, dtype=float).reshape(-1)
    for lo in range(0, len(a), FMT_BLOCK):
        vals = a[lo:lo + FMT_BLOCK].tolist()
        yield ("%.17g\n" * len(vals))[:-1] % tuple(vals)


def describe_net(layout: RnnLayout) -> str:
    hid = ",".join(str(h) for h in layout.hidden_dims)
    return (f"rnn in={layout.input_dim} hidden={hid} out={layout.output_dim} "
            f"T={layout.length} bias={int(layout.bias)}")


def write_lines(path, lines) -> None:
    """Write each line and a newline, as UTF-8, to a temp file beside path,
    then move it over path.  An exception or a crash of the process mid-way
    leaves the previous file whole.  Lines may be a generator: a checkpoint
    is never held in memory as one string."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def save_checkpoint(path, step: int, layout: RnnLayout, p: np.ndarray,
                    opt: OptimizerState) -> None:
    def lines():
        yield CHECKPOINT_MAGIC
        yield f"net {describe_net(layout)}"
        yield f"step {step}"
        yield f"kind {opt.kind}"
        yield f"eta {_fmt(opt.eta)}"
        yield f"kappa_mode {opt.kappa_mode}"
        yield f"eps {_fmt(opt.eps)}"
        for key, value in ADAM_HEADER:
            yield f"{key} {_fmt(value)}"
        yield f"t {opt.t}"
        yield f"m {len(p)}"
        yield from _fmt_array(p)
        if opt.m1 is not None:
            yield "moments"
            yield from _fmt_array(opt.m1)
            yield from _fmt_array(opt.m2)
        yield "end"

    write_lines(path, lines())


def load_checkpoint(path, layout: RnnLayout | None = None):
    """Returns (step, p, OptimizerState).  If a layout is given, its
    description must match the one stored at save time.  Adam kinds carry
    moments exactly when t >= 1; sgd and path_sgd are at t = 0 with none,
    as save_checkpoint writes them."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file")
    head: dict[str, str] = {}
    i = 1
    while i < len(lines) and " " in lines[i]:
        key, val = lines[i].split(" ", 1)
        head[key] = val
        i += 1
        if key == "m":
            break
    if layout is not None and head.get("net") != describe_net(layout):
        raise ConfigError(
            f"{path}: checkpoint is for net [{head.get('net')}], "
            f"current net is [{describe_net(layout)}]")

    def header_int(key):
        if key not in head:
            raise ConfigError(f"{path}: missing header field {key!r}")
        if not head[key].isdecimal():
            raise ConfigError(f"{path}: bad header field {key} {head[key]!r}, "
                              "not an integer >= 0")
        return int(head[key])

    def block(name, lo):
        try:
            values = np.array([float(x) for x in lines[lo:lo + m]])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad {name} block ({exc})") from exc
        if len(values) != m:
            raise ConfigError(f"{path}: truncated {name} block")
        return values

    m, step = header_int("m"), header_int("step")
    p = block("parameter", i)
    i += m
    m1 = m2 = None
    if i < len(lines) and lines[i] == "moments":
        m1, m2 = block("moment", i + 1), block("moment", i + 1 + m)
        i += 1 + 2 * m
    if i >= len(lines) or lines[i] != "end":
        raise ConfigError(f"{path}: missing end marker")
    try:
        opt = OptimizerState(kind=head["kind"], eta=float(head["eta"]),
                             kappa_mode=head["kappa_mode"], eps=float(head["eps"]),
                             t=int(head["t"]), m1=m1, m2=m2)
        for key, value in ADAM_HEADER:
            if float(head[key]) != value:
                raise ValueError(f"{key} {head[key]}, fixed at {value:g}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad optimizer header ({exc})") from exc
    adam = opt.kind in ("adam", "path_adam")
    if opt.t < 0 or (opt.t and not adam):
        raise ConfigError(f"{path}: kind {opt.kind} at t {opt.t}; t must be "
                          f"{'>= 0' if adam else '0'}")
    if (m1 is not None) != (opt.t >= 1):
        what = "has a moment block" if m1 is not None else "lacks its moment block"
        raise ConfigError(f"{path}: kind {opt.kind} at t {opt.t} {what}")
    return step, p, opt


# ---------------------------------------------------------------------------
# metrics

def metrics_header(record_kappa_ratio: bool) -> str:
    return ",".join(c for c in METRICS_COLUMNS if record_kappa_ratio or c != "kappa_ratio")


def metrics_row(row: dict, record_kappa_ratio: bool) -> str:
    floats = metrics_header(record_kappa_ratio).split(",")[1:]
    return ",".join([str(row["step"]), *(repr(float(row[c])) for c in floats)])


def write_metrics(path, history: list[dict], record_kappa_ratio: bool,
                  earlier: list[str] = ()) -> None:
    """The header, the ``earlier`` rows as given, then one row per record."""
    write_lines(path, [metrics_header(record_kappa_ratio), *earlier,
                       *(metrics_row(r, record_kappa_ratio) for r in history)])


def metrics_rows_before(path, step: int, record_kappa_ratio: bool) -> list[str]:
    """The rows of an existing metrics file at steps below ``step``, so a run
    resumed into its own out_dir keeps them; none if the file is missing or
    empty.  A file with other columns, or a row whose step is not an
    integer, is rejected, since rewriting it would drop its rows."""
    path = Path(path)
    header = metrics_header(record_kappa_ratio)
    lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
    if lines and lines[0] != header:
        raise ConfigError(f"{path} has columns [{lines[0]}]; this run writes "
                          f"[{header}] and would drop its rows")
    kept = []
    for lineno, line in enumerate(lines[1:], 2):
        head = line.split(",", 1)[0]
        try:
            if int(head) < step:
                kept.append(line)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: step {head!r} is not an integer") from None
    return kept

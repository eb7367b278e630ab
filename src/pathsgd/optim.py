"""Update rules (SGD, path-normalized SGD, Adam variants) and the train loop."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import pathnorm
from .graph import GraphError, RnnLayout

if TYPE_CHECKING:
    from .config import RunConfig

DEFAULT_EPS = 1e-8
DIVERGE_LOSS = 1e6
# Adam's moment decays and the epsilon of its denominator; fixed, and
# written to every checkpoint.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("sgd", "adam", "path_sgd", "path_adam")
# The RunConfig key that sets each OptimizerState field of train_loop's update.
CONFIG_KEYS = (("optimizer", "kind"), ("lr", "eta"), ("kappa_mode", "kappa_mode"),
               ("epsilon", "eps"))

# Independent RNG streams derived from the run seed.
STREAM_INIT = 0
STREAM_DATA = 1


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Generator for a (seed, stream, ...) key.  Stateless: the batch at step
    s is a pure function of (seed, s), so resumed runs replay the same data."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def init_uniform(layout: RnnLayout, rng: np.random.Generator,
                 half_width: float) -> np.ndarray:
    """All parameters i.i.d. uniform on [-half_width, half_width]."""
    return rng.uniform(-half_width, half_width, size=layout.m)


def init_identity(layout: RnnLayout, rng: np.random.Generator,
                  half_width: float) -> np.ndarray:
    """Identity recurrent matrices, everything else uniform on
    [-half_width, half_width]."""
    p = rng.uniform(-half_width, half_width, size=layout.m)
    for name, (sl, shape) in layout.slices.items():
        if name.startswith("rec"):
            p[sl] = np.eye(shape[0]).reshape(-1)
    return p


@dataclass
class OptimizerState:
    """Optimizer kind plus everything its update needs.

    Adam moments are allocated lazily on the first step so a fresh state can
    be built before the parameter count is known.
    """

    kind: str = "sgd"
    eta: float = 0.01
    kappa_mode: str = "k1"
    eps: float = DEFAULT_EPS        # floor applied to kappa
    t: int = 0                      # Adam timestep
    m1: np.ndarray | None = None    # first moment
    m2: np.ndarray | None = None    # second moment

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise GraphError(f"unknown optimizer {self.kind!r}")
        if self.kappa_mode not in pathnorm.KAPPA_MODES:
            raise GraphError(f"unknown kappa mode {self.kappa_mode!r}")
        if self.eta <= 0 or self.eps <= 0:
            raise GraphError("eta and eps must be positive")

    @property
    def uses_kappa(self) -> bool:
        return self.kind in ("path_sgd", "path_adam")


def apply_update(p: np.ndarray, g: np.ndarray, state: OptimizerState,
                 kappa: np.ndarray | None = None) -> tuple[np.ndarray, OptimizerState]:
    """One update of the configured kind; the only place an update rule is
    written.  sgd steps along g and adam runs Adam on it.  The path kinds
    divide g by max(kappa, eps), where kappa is the caller's
    pathnorm.preconditioner at the current p: path_sgd steps along the
    quotient and path_adam runs Adam on it.  A path kind handed no kappa
    raises GraphError."""
    if state.uses_kappa:
        if kappa is None:
            raise GraphError(f"{state.kind} needs kappa: pass "
                             "pathnorm.preconditioner(layout, p, kappa_mode)")
        if state.kind == "path_sgd":
            return p - state.eta * g / np.maximum(kappa, state.eps), state
        g = g / np.maximum(kappa, state.eps)
    elif state.kind == "sgd":
        return p - state.eta * g, state
    if state.m1 is None:
        state = dataclasses.replace(state, m1=np.zeros_like(g), m2=np.zeros_like(g))
    t = state.t + 1
    m1 = ADAM_BETA1 * state.m1 + (1 - ADAM_BETA1) * g
    m2 = ADAM_BETA2 * state.m2 + (1 - ADAM_BETA2) * g * g
    # mhat / (sqrt(vhat) + eps) as one expression, so mhat and vhat are
    # freed before the update's own temporaries are made.
    direction = ((m1 / (1 - ADAM_BETA1 ** t))
                 / (np.sqrt(m2 / (1 - ADAM_BETA2 ** t)) + ADAM_EPS))
    return p - state.eta * direction, dataclasses.replace(state, t=t, m1=m1, m2=m2)


@dataclass
class TrainResult:
    status: str                     # converged | budget_exhausted | diverged
    params: np.ndarray
    opt: OptimizerState
    steps_done: int
    history: list[dict] = field(default_factory=list)
    reason: str = ""                # why a diverged run stopped


def train_loop(layout: RnnLayout, task, config: RunConfig, p: np.ndarray,
               opt: OptimizerState | None, start_step: int = 0,
               on_eval=None) -> TrainResult:
    """Minibatch training from (p, opt) at start_step to config.steps, with
    an eval row every eval_interval steps and at the last, each handed to
    on_eval(row, p, opt).  The update's settings are the config's
    (CONFIG_KEYS); opt, None for a fresh run, supplies only what a run
    accumulates: Adam's t, m1 and m2.

    Step s draws its batch from rng_for(seed, STREAM_DATA, s) and takes the
    gradient, and a path kind's kappa, at the pre-update parameters.
    Nothing but (p, opt) carries from one step to the next, so resuming
    from (p, opt, start_step) reproduces the uninterrupted run exactly.
    The run ends converged at an earlier row that meets target_test_metric,
    budget_exhausted at the row of step == steps, or diverged, with a
    reason, at a non-finite or huge loss, a non-finite kappa or non-finite
    parameters; a diverged run returns its last finite state, so the final
    checkpoint stays loadable.
    """
    config.validate()
    if not 0 <= start_step <= config.steps:
        raise GraphError(f"start_step = {start_step} lies outside [0, steps = {config.steps}]")
    p = np.asarray(p, dtype=float).copy()
    opt = dataclasses.replace(opt or OptimizerState(),
                              **{f: getattr(config, key) for key, f in CONFIG_KEYS})
    if opt.t and opt.kind not in ("adam", "path_adam"):
        raise GraphError(f"opt holds Adam moments at t = {opt.t}; optimizer = {opt.kind} "
                         "reads none")
    status = "budget_exhausted"
    reason = ""
    history: list[dict] = []
    t0 = time.perf_counter()

    def eval_row(step: int, loss: float, metric: float) -> dict:
        row = {
            "step": step,
            "train_loss": loss,
            "train_metric": metric,
            "test_metric": task.evaluate(layout, p),
        }
        if config.record_kappa_ratio:
            row["kappa_ratio"] = pathnorm.kappa_ratio(layout, p)
        row["wall_ms"] = (time.perf_counter() - t0) * 1000.0 if config.timing else 0.0
        history.append(row)
        if on_eval is not None:
            on_eval(row, p, opt)
        return row

    step = start_step
    while True:
        last = step >= config.steps
        batch = task.train_batch(rng_for(config.seed, STREAM_DATA, step), config.batch_size)
        loss, g, metric = task.loss_and_grad(layout, p, batch, grad=not last)
        if not np.isfinite(loss) or loss > DIVERGE_LOSS:
            reason = f"loss above {DIVERGE_LOSS:g}" if np.isfinite(loss) else "non-finite loss"
            break
        if last or step % config.eval_interval == 0:
            row = eval_row(step, loss, metric)
            if last:
                break
            if (config.target_test_metric is not None
                    and row["test_metric"] <= config.target_test_metric):
                status = "converged"
                break
        kappa = None
        if opt.uses_kappa:
            kappa = pathnorm.preconditioner(layout, p, opt.kappa_mode)
            if not np.all(np.isfinite(kappa)):
                reason = "non-finite kappa"
                break
        p_new, opt_new = apply_update(p, g, opt, kappa=kappa)
        if not np.all(np.isfinite(p_new)):
            reason = "non-finite parameters"
            break
        p, opt = p_new, opt_new
        step += 1

    if reason:
        status = "diverged"
    return TrainResult(status=status, params=p, opt=opt, steps_done=step,
                       history=history, reason=reason)

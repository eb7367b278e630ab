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
                  half_width: float = 0.01) -> np.ndarray:
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


def sgd_step(p: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    return p - eta * g


def path_sgd_step(layout: RnnLayout, p: np.ndarray, g: np.ndarray, eta: float,
                  kappa_mode: str = "k1", eps: float = DEFAULT_EPS,
                  kappa: np.ndarray | None = None) -> np.ndarray:
    """p - eta * g / max(kappa, eps), with kappa evaluated at the current p
    unless the caller passes it."""
    if kappa is None:
        kappa = pathnorm.preconditioner(layout, p, kappa_mode)
    return p - eta * g / np.maximum(kappa, eps)


def apply_update(layout: RnnLayout, p: np.ndarray, g: np.ndarray,
                 state: OptimizerState,
                 kappa: np.ndarray | None = None) -> tuple[np.ndarray, OptimizerState]:
    """One update of the configured kind; the only place the Adam rule is
    written.  path_adam is Adam run on the preconditioned gradient
    g / max(kappa, eps); path kinds take kappa at the current p unless the
    caller passes it."""
    if state.kind == "sgd":
        return sgd_step(p, g, state.eta), state
    if state.kind == "path_sgd":
        return path_sgd_step(layout, p, g, state.eta, state.kappa_mode,
                             state.eps, kappa=kappa), state
    if state.kind == "path_adam":
        if kappa is None:
            kappa = pathnorm.preconditioner(layout, p, state.kappa_mode)
        g = g / np.maximum(kappa, state.eps)
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


def _loss_divergence(loss: float) -> str:
    """The reason a loss ends the run, or "" when it does not."""
    if not np.isfinite(loss):
        return "non-finite loss"
    if loss > DIVERGE_LOSS:
        return f"loss above {DIVERGE_LOSS:g}"
    return ""


def train_loop(layout: RnnLayout, task, config: RunConfig, p: np.ndarray,
               opt: OptimizerState, start_step: int = 0,
               on_eval=None) -> TrainResult:
    """Minibatch training with periodic evaluation.

    One body runs for every step up to and including the budget.  It draws
    the batch from an RNG keyed by (seed, step), evaluates the loss and
    gradient at the pre-update parameters, records a history row when the
    step index is a multiple of eval_interval, then applies the update.
    Path kinds divide by kappa taken at those same parameters.  The last
    pass, at step == steps, runs loss_and_grad with grad=False, since no
    update follows it, and always records a row.  A step whose loss meets
    target_loss records its row with that loss and metric and stops the run
    as converged, as does an eval row that meets target_test_metric; the
    final row ends the run as budget_exhausted whatever it meets.  Nothing
    but (p, opt) carries from one step to the next, so resuming from
    (p, opt, start_step) at any step reproduces the uninterrupted run
    exactly.

    config is the run's RunConfig, validated again here.  The loop reads
    steps, batch_size, eval_interval, seed, target_loss, target_test_metric,
    record_kappa_ratio and timing from it; the optimizer settings come from
    opt.

    A diverged run stops with a named reason: a non-finite or huge loss, a
    non-finite kappa (checked before the update) or non-finite parameters
    (checked after it).  The returned params and steps_done are then those
    of the last finite state, so the final checkpoint stays loadable.
    """
    config.validate()
    p = np.asarray(p, dtype=float).copy()
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
        reason = _loss_divergence(loss)
        if reason:
            break
        met = config.target_loss is not None and loss <= config.target_loss
        if last or met or step % config.eval_interval == 0:
            row = eval_row(step, loss, metric)
            met = met or (config.target_test_metric is not None
                          and row["test_metric"] <= config.target_test_metric)
        if last:
            break
        if met:
            status = "converged"
            break
        kappa = None
        if opt.uses_kappa:
            kappa = pathnorm.preconditioner(layout, p, opt.kappa_mode)
            if not np.all(np.isfinite(kappa)):
                reason = "non-finite kappa"
                break
        p_new, opt_new = apply_update(layout, p, g, opt, kappa=kappa)
        if not np.all(np.isfinite(p_new)):
            reason = "non-finite parameters"
            break
        p, opt = p_new, opt_new
        step += 1

    if reason:
        status = "diverged"
    return TrainResult(status=status, params=p, opt=opt, steps_done=step,
                       history=history, reason=reason)

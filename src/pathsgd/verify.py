"""Executable correctness properties, surfaced by the ``verify`` subcommand.

Each property draws randomized desk-scale instances, compares the code
training runs against an independent oracle or an exact identity, and
reports its worst residual against a fixed threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import compute, invariance, optim, pathnorm
from .graph import RnnLayout

# The |pre-activation| every live ReLU unit must exceed in the gradient
# check, so that finite differences cross no kink.
KINK_MARGIN = 1e-2

@dataclass
class PropertyResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    n: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"{status} {self.name}: worst={self.worst:.3e} "
                f"threshold={self.threshold:.0e} n={self.n}{extra}")


def _within(name: str, worst: float, threshold: float, n: int, detail: str = ""):
    return PropertyResult(name, worst <= threshold, worst, threshold, n, detail)


def random_layout(rng: np.random.Generator) -> RnnLayout:
    """1 or 2 hidden layers of 1 to 3 units, unrolled for 1 to 4 steps."""
    depth = int(rng.integers(1, 3))
    return RnnLayout(
        input_dim=int(rng.integers(1, 3)),
        hidden_dims=tuple(int(rng.integers(1, 4)) for _ in range(depth)),
        output_dim=int(rng.integers(1, 3)),
        length=int(rng.integers(1, 5)),
        bias=bool(rng.integers(0, 2)))


def _random_mlp(rng: np.random.Generator) -> RnnLayout:
    """An MLP with 2 or 3 weight layers: the RNN unrolled for one step."""
    depth = int(rng.integers(2, 4))
    dims = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
    return RnnLayout(dims[0], tuple(dims[1:-1]), dims[-1], 1)


def random_net(rng: np.random.Generator) -> RnnLayout:
    """A small random net: an unrolled RNN or, sometimes, a plain MLP."""
    if rng.uniform() < 0.25:
        return _random_mlp(rng)
    return random_layout(rng)


def random_params(layout: RnnLayout, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.5, 1.5, layout.m)


def _kink_free(layout: RnnLayout, p: np.ndarray, X: np.ndarray) -> bool:
    # pre near 0 is harmless at a unit whose sources are all 0: then pre is
    # identically 0 in a neighborhood of p and the unit is smooth.
    tr = compute.rnn_forward(layout, p, X)
    h = compute.rnn_backward(layout, p, tr, np.zeros_like(tr.y), return_dpre=True)[2]
    for i in range(1, layout.depth):
        pre = h[i - 1] @ layout.view(p, f"in{i}").T
        live = np.any(h[i - 1] != 0.0, axis=2)  # (T, B): some source is not 0
        Wrec = layout.matrix(p, f"rec{i}")
        if Wrec is not None:
            pre[1:] += h[i][:-1] @ Wrec.T
            live[1:] |= np.any(h[i][:-1] != 0.0, axis=2)
        if f"b{i}" in layout.slices:  # the bias source is 1
            pre += layout.view(p, f"b{i}")[:, 0]
            live[...] = True
        if np.any((np.abs(pre) <= KINK_MARGIN) & live[..., None]):
            return False
    return True


def sample_kink_free(layout: RnnLayout, rng: np.random.Generator, X: np.ndarray):
    """(p, X): parameters whose ReLU pre-activations on the batch X stay
    more than KINK_MARGIN from zero, so finite differences see a smooth
    function, and that batch.  A small input entry can keep every draw of
    p near a kink, so after each 200 failed draws X is redrawn."""
    while True:
        for _ in range(200):
            p = random_params(layout, rng)
            if _kink_free(layout, p, X):
                return p, X
        X = rng.standard_normal(X.shape)


def _rel(a: np.ndarray, b: np.ndarray, floor: float) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def check_gamma_oracle(rng, n) -> PropertyResult:
    """gamma^2 from the layout forward equals brute-force path enumeration."""
    worst = 0.0
    for _ in range(n):
        layout = random_net(rng)
        p = random_params(layout, rng)
        g_fast = pathnorm.gamma(layout, p)
        g_slow = pathnorm.gamma_bruteforce(layout, p)
        worst = max(worst, abs(g_fast - g_slow) / max(abs(g_slow), 1e-12))
    return _within("gamma-oracle", worst, 1e-10, n)


def check_kappa_decomposition(rng, n) -> PropertyResult:
    """kappa1 + kappa2 matches the finite-difference second derivative."""
    worst = 0.0
    for _ in range(n):
        layout = random_net(rng)
        p = random_params(layout, rng)
        total = pathnorm.kappa1(layout, p) + pathnorm.kappa2(layout, p)
        fd = pathnorm.kappa_fd(layout, p)
        worst = max(worst, _rel(total, fd, 1.0))
    return _within("kappa-decomposition", worst, 1e-4, n)


def check_kappa2_closed_form(rng, n) -> PropertyResult:
    """The recurrent matrix form of kappa2 equals pair enumeration."""
    worst = 0.0
    for _ in range(n):
        layout = random_layout(rng)
        p = random_params(layout, rng)
        k2_fast = pathnorm.kappa2(layout, p)
        k2_slow = pathnorm.kappa2_bruteforce(layout, p)
        worst = max(worst, _rel(k2_fast, k2_slow, 1.0))
    return _within("kappa2-closed-form", worst, 1e-10, n)


def check_feedforward_kappa2_zero(rng, n) -> PropertyResult:
    """Without weight sharing, the interaction term vanishes identically."""
    worst = 0.0
    for _ in range(n):
        layout = _random_mlp(rng)
        p = random_params(layout, rng)
        worst = max(worst, float(np.max(np.abs(pathnorm.kappa2_bruteforce(layout, p)))))
    return PropertyResult("feedforward-kappa2-zero", worst == 0.0, worst, 0.0, n,
                          detail="(exact)")


def check_rescaling_invariance(rng, n) -> PropertyResult:
    """Feasible node-wise rescalings preserve the function and gamma^2."""
    worst = 0.0
    for _ in range(n):
        layout = random_layout(rng)
        p = random_params(layout, rng)
        alpha = invariance.random_rescaling(layout, rng, 1.5)
        q = invariance.apply_rescaling(layout, p, alpha)
        X = rng.standard_normal((3, layout.length, layout.input_dim))
        ya = compute.rnn_forward(layout, p, X).y
        yb = compute.rnn_forward(layout, q, X).y
        scale = max(1.0, float(np.max(np.abs(ya))))
        worst = max(worst, float(np.max(np.abs(ya - yb))) / scale)
        ga = pathnorm.gamma(layout, p)
        gb = pathnorm.gamma(layout, q)
        worst = max(worst, abs(ga - gb) / max(abs(ga), 1e-12))
    return _within("rescaling-invariance", worst, 1e-10, n)


def _trajectory_gap(layout, p, q, opt, rng):
    """Max output gap after 3 updates of opt's kind, with kappa taken at the
    current point, from equivalent parameters p and q."""
    X = rng.standard_normal((4, layout.length, layout.input_dim))

    def stepper(pp, gg):
        kappa = (pathnorm.preconditioner(layout, pp, opt.kappa_mode)
                 if opt.uses_kappa else None)
        return optim.apply_update(pp, gg, opt, kappa)[0]

    pa, qa = p.copy(), q.copy()
    for _ in range(3):
        tra = compute.rnn_forward(layout, pa, X)
        trb = compute.rnn_forward(layout, qa, X)
        ga = compute.rnn_backward(layout, pa, tra, tra.y)
        gb = compute.rnn_backward(layout, qa, trb, trb.y)
        pa = stepper(pa, ga)
        qa = stepper(qa, gb)
    ya = compute.rnn_forward(layout, pa, X).y
    yb = compute.rnn_forward(layout, qa, X).y
    scale = max(1.0, float(np.max(np.abs(ya))))
    return float(np.max(np.abs(ya - yb))) / scale


def check_path_sgd_invariance(rng, n) -> PropertyResult:
    """Path-SGD trajectories commute with rescaling, in both kappa modes,
    except where the epsilon floor binds: an instance whose kappa at p or q
    is within 10 epsilon of it is skipped and counted in the detail."""
    worst, skipped = 0.0, 0
    for _ in range(n):
        layout = random_layout(rng)
        p = rng.uniform(-0.9, 0.9, layout.m)
        alpha = invariance.random_rescaling(layout, rng, 1.0)
        q = invariance.apply_rescaling(layout, p, alpha)
        if any(np.min(pathnorm.preconditioner(layout, pp, mode)) <= 10 * optim.DEFAULT_EPS
               for pp in (p, q) for mode in pathnorm.KAPPA_MODES):
            skipped += 1
            continue
        for mode in pathnorm.KAPPA_MODES:
            opt = optim.OptimizerState(kind="path_sgd", eta=0.05, kappa_mode=mode)
            worst = max(worst, _trajectory_gap(layout, p, q, opt, rng))
    detail = f"({skipped} skipped: kappa near the epsilon floor)" if skipped else ""
    return _within("path-sgd-invariance", worst, 1e-8, n, detail)


def check_sgd_not_invariant(rng, n) -> PropertyResult:
    """Negative control: plain SGD must break under the same rescalings."""
    worst, threshold = 0.0, 1e-3
    for _ in range(n):
        layout = random_layout(rng)
        p = rng.uniform(-0.9, 0.9, layout.m)
        alpha = invariance.random_rescaling(layout, rng, 1.5)
        q = invariance.apply_rescaling(layout, p, alpha)
        gap = _trajectory_gap(layout, p, q, optim.OptimizerState(kind="sgd", eta=0.05), rng)
        worst = max(worst, gap)
    return PropertyResult("sgd-not-invariant", worst > threshold, worst, threshold, n,
                          detail="(passes when the gap exceeds the threshold)")


def check_gradient(rng, n, readout=False) -> PropertyResult:
    """rnn_backward of the mean squared error matches central differences of
    rnn_forward away from ReLU kinks.  With readout only the last step is
    read out (first_output = T - 1), as addition and seqclass train."""
    worst = 0.0
    for _ in range(n):
        layout = random_net(rng)
        first = layout.length - 1 if readout else 0
        X = np.empty((2, layout.length, layout.input_dim))
        Y = np.empty((2, layout.length - first, layout.output_dim))
        for b in range(2):  # each example's input, then its target
            X[b] = rng.standard_normal(X.shape[1:])
            Y[b] = rng.standard_normal(Y.shape[1:])
        p, X = sample_kink_free(layout, rng, X)
        tr = compute.rnn_forward(layout, p, X, first_output=first)
        g = compute.rnn_backward(layout, p, tr, 2.0 * (tr.y - Y) / Y.size)
        g_fd = compute.central_diff(
            lambda q: float(np.mean(
                (compute.rnn_forward(layout, q, X, first_output=first).y - Y) ** 2)),
            p, 1e-5)
        worst = max(worst, float(np.max(np.abs(g - g_fd) /
                                        np.maximum(np.abs(g_fd), 1e-3))))
    name = "gradient-check-readout" if readout else "gradient-check"
    return _within(name, worst, 1e-5, n)


def check_time_blocking(rng, n) -> PropertyResult:
    """rnn_forward's outputs and rnn_backward's gradient agree, up to
    rounding, between one time block and blocks of 1, 2 and 3 steps forced
    by a smaller compute.BUDGET (restored after): the one-block trace walked
    in blocks, a checkpointed trace and the trace-free forward."""
    worst = 0.0
    default = compute.BUDGET
    try:
        for _ in range(n):
            layout = replace(random_layout(rng), length=int(rng.integers(4, 10)))
            p = random_params(layout, rng)
            X = rng.standard_normal((3, layout.length, layout.input_dim))
            compute.BUDGET = default
            tr = compute.rnn_forward(layout, p, X)
            dY = rng.standard_normal(tr.y.shape)
            g = compute.rnn_backward(layout, p, tr, dY)
            y = compute.rnn_forward(layout, p, X, keep_trace=False).y
            for k in (1, 2, 3):
                compute.BUDGET = k * 8 * len(X) * max(layout.hidden_dims)
                cut = compute.rnn_forward(layout, p, X)
                worst = max(worst, _rel(compute.rnn_backward(layout, p, tr, dY), g, 1.0),
                            _rel(compute.rnn_backward(layout, p, cut, dY), g, 1.0),
                            _rel(cut.y, tr.y, 1.0),
                            _rel(compute.rnn_forward(layout, p, X, keep_trace=False).y,
                                 y, 1.0))
    finally:
        compute.BUDGET = default
    return _within("time-blocking", worst, 1e-10, n)


def check_kappa_at_scale(rng, n) -> PropertyResult:
    """preconditioner(k1_plus_k2) matches central second differences of
    pathnorm.gamma at n coordinates of each block, at the addition
    benchmarks' (T, H) and init ranges.  The squared recurrent matrix is
    scaled to spectral radius 1, so that step pairs far apart, across
    kappa2's chunks of blocks, weigh in kappa."""
    worst, count = 0.0, 0
    for T, H, w in ((750, 100, 0.1), (40, 32, 0.3)):
        layout = RnnLayout(2, (H,), 1, T)
        p = rng.uniform(-w, w, layout.m)
        sl, _ = layout.slices["rec1"]
        p[sl] /= np.sqrt(np.max(np.abs(np.linalg.eigvals(p[sl].reshape(H, H) ** 2))))
        kappa = pathnorm.preconditioner(layout, p, "k1_plus_k2")
        g0 = pathnorm.gamma(layout, p)
        for sl, _ in layout.slices.values():
            for i in rng.choice(np.arange(layout.m)[sl], n, replace=False):
                h, q = 1e-4 * max(abs(p[i]), 1.0), p.copy()
                q[i] = p[i] + h
                gp = pathnorm.gamma(layout, q)
                q[i] = p[i] - h
                fd = 0.5 * (gp - 2.0 * g0 + pathnorm.gamma(layout, q)) / (h * h)
                worst, count = max(worst, _rel(kappa[i], fd, 1.0)), count + 1
    return _within("kappa-at-scale", worst, 1e-6, count)


LEVELS = {
    "quick": dict(gamma=8, decomp=5, closed=5, ffzero=5, rescale=20,
                  inv=5, control=5, grad=10, blocking=5, scale=4),
    "full": dict(gamma=50, decomp=20, closed=20, ffzero=20, rescale=100,
                 inv=50, control=10, grad=50, blocking=20, scale=10),
}


def run_all(level: str = "quick", seed: int = 0) -> list[PropertyResult]:
    if level not in LEVELS:
        raise ValueError(f"unknown verify level {level!r}")
    sizes = LEVELS[level]
    rng = np.random.default_rng(seed)
    return [
        check_gamma_oracle(rng, sizes["gamma"]),
        check_kappa_decomposition(rng, sizes["decomp"]),
        check_kappa2_closed_form(rng, sizes["closed"]),
        check_feedforward_kappa2_zero(rng, sizes["ffzero"]),
        check_rescaling_invariance(rng, sizes["rescale"]),
        check_path_sgd_invariance(rng, sizes["inv"]),
        check_sgd_not_invariant(rng, sizes["control"]),
        check_gradient(rng, sizes["grad"]),
        check_time_blocking(rng, sizes["blocking"]),
        # last, so the properties above draw what they drew without them
        check_gradient(rng, sizes["grad"], readout=True),
        check_kappa_at_scale(rng, sizes["scale"]),
    ]

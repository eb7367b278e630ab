"""Forward evaluation and exact reverse-mode gradients of unrolled RNNs.

Training, evaluation, the squared-net pass of pathnorm and verify's
gradient-check all run rnn_forward and rnn_backward, vectorized over the
RnnLayout matrices on time-major (T, B, H_i) states, in blocks of steps.
Their outputs are bit-identical to the np.matmul / += / *= form that
tests/test_compute.py keeps as the reference, and are checked on small
nets against the per-unit scalar reference in tests/reference.py.  All
arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RnnLayout

ACTIVATIONS = ("relu", "identity")

# Bytes of one hidden layer's dpre block in rnn_backward, small enough to
# stay in cache while the block's gradient products read it; every other
# block and chunk size is derived from it.
BUDGET = 2 << 20


# The ReLU's other operand: np.maximum takes a 0-d array as it is, and
# would convert a Python float 0.0 at every call.
_ZERO = np.zeros(())


class ComputeError(ValueError):
    pass


def _dot(t: np.ndarray):
    """The function for a recurrence product into the (B, H) row t.

    np.dot calls BLAS with less overhead than np.matmul and gives the same
    bits, except at 1 x 1, where it is a plain multiply and keeps the sign
    of a zero product that matmul's sum turns into +0.
    """
    return np.matmul if t.size == 1 else np.dot


def _pow2(n: int) -> int:
    """The least power of two >= n, and 1 for n < 1."""
    return 1 << (max(n, 1) - 1).bit_length()


def _check_params(p: np.ndarray, m: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise ComputeError(f"parameter vector: expected shape ({m},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ComputeError("parameter vector contains non-finite entries")
    return p


# --- finite differences -------------------------------------------------------

def central_diff(f, p: np.ndarray, step: float) -> np.ndarray:
    """Per-coordinate central first difference of a scalar function."""
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    for i in range(p.shape[0]):
        pp = p.copy()
        pp[i] = p[i] + step
        fp = f(pp)
        pp[i] = p[i] - step
        g[i] = (fp - f(pp)) / (2.0 * step)
    return g


def half_second_diff(f, p: np.ndarray, i: int, f0: float) -> float:
    """Half the central second difference of a scalar function at p along
    coordinate i, with step h = 1e-4 max(|p_i|, 1); f0 is f(p)."""
    h, q = 1e-4 * max(abs(p[i]), 1.0), p.copy()
    q[i] = p[i] + h
    fp = f(q)
    q[i] = p[i] - h
    return 0.5 * (fp - 2.0 * f0 + f(q)) / (h * h)


# --- vectorized route over RnnLayout ----------------------------------------

@dataclass
class RnnTrace:
    """A forward's record: its layout, its parameter vector p, whether it
    ran ReLU (else identity), and y, the outputs of steps first_output ..
    T - 1 as (B, T - first_output, output_dim), possibly a transposed view.
    A trace-free forward leaves h as None.  A kept trace ran in blocks of K
    steps, and h[0] is the caller's X itself; p, like X, is held by
    reference, so neither may be written before the backward.  For hidden
    layer i, h[i] is (T + 1, B, H_i) at K = T, row t the state carried into
    step t, and (nb, B, H_i) at K < T, row j the state carried into step
    j K, from which rnn_backward recomputes the rest; h[i][0] = 0.
    Pre-activations are not kept: the ReLU mask is a function of the
    output."""

    layout: RnnLayout
    p: np.ndarray
    relu: bool
    y: np.ndarray
    h: list | None = None
    K: int = 0


def _time_block(layout: RnnLayout, B: int) -> int:
    """Steps per block of a kept trace and of rnn_backward.  A trace of at
    most Kb = BUDGET // (8 B max H_i) steps (the cache cap, at least 1) is
    one block; a longer one is checkpointed every K = min(Kb, isqrt(2 T))
    steps, since K of order sqrt(T) keeps the T / K carried states plus the
    K-step buffers near their least sum, for the one recompute the backward
    pays at any K (Chen et al., arXiv:1604.06174)."""
    T = layout.length
    cap = max(1, BUDGET // (8 * B * max(layout.hidden_dims)))
    return T if T <= cap else min(cap, math.isqrt(2 * T))


def row_chunk(layout: RnnLayout) -> int:
    """Rows per trace-free rnn_forward over a large set: R rows of the
    widest layer's state take about BUDGET / 32 bytes, rounded up to a
    power of two, so each call's blocks stay near BUDGET / 4 bytes."""
    return _pow2(BUDGET // 32 // (8 * max(layout.hidden_dims)))


def _forward_weights(layout: RnnLayout, p: np.ndarray) -> list:
    """Per hidden layer i, (W_in^T, W_rec^T or None, bias or None); entry 0
    is None."""
    weights = [None]
    for i in range(1, layout.depth):
        Wrec = layout.matrix(p, f"rec{i}")
        b = layout.matrix(p, f"b{i}")
        # The recurrence multiplies by W_rec^T once per step; a contiguous
        # copy is the faster BLAS operand at small batch sizes.
        weights.append((layout.view(p, f"in{i}").T,
                        None if Wrec is None else np.ascontiguousarray(Wrec.T),
                        None if b is None else b[:, 0]))
    return weights


def _forward_block(weights: list, below: np.ndarray, win: list, first: bool,
                   tmp: list, relu: bool) -> np.ndarray:
    """One block of k steps through the hidden layers, bottom-up, in place:
    below is the block's (k, R, input_dim) input and win[i] layer i's
    (k + 1, R, H_i) window, row 0 the state carried into the block and
    rows 1.. the states after each step; first marks the sequence's first
    block.  Returns the top layer's (k, R, H) states."""
    k, R = below.shape[:2]
    for i in range(1, len(win)):
        WinT, WrecT, b = weights[i]
        blk = win[i][1:]
        np.matmul(below.reshape(k * R, -1), WinT, out=blk.reshape(k * R, -1))
        if b is not None:
            blk += b
        _forward_steps(win[i], WrecT, first, tmp[i], relu)
        below = blk
    return below


def rnn_forward(layout: RnnLayout, p: np.ndarray, X: np.ndarray,
                activation: str = "relu", keep_trace: bool = True,
                first_output: int = 0) -> RnnTrace:
    """The RnnTrace of X, (B, T, input_dim) with B >= 1, from a zero state,
    with outputs from step first_output on, 0 <= first_output < T.  Time
    runs in blocks of K steps, each block's input copied time-major into
    one reused buffer: _time_block's K with keep_trace, else a (K, B, H)
    block of about BUDGET / 4 bytes, rounded up to a power of two.  y
    agrees across modes and first_output up to rounding; its last bits can
    depend on B and K, as BLAS may round a row of a product differently at
    another row count (a one-row product runs as gemv)."""
    p = _check_params(p, layout.m)
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1] != layout.length or X.shape[2] != layout.input_dim:
        raise ComputeError(
            f"rnn_forward: expected X of shape (B, {layout.length}, {layout.input_dim}), got {X.shape}")
    if X.shape[0] == 0:
        raise ComputeError(f"rnn_forward: empty batch, X of shape {X.shape}")
    if activation not in ACTIVATIONS:
        raise ComputeError(f"unknown activation {activation!r}")
    relu = activation == "relu"
    B, T = X.shape[0], layout.length
    if not 0 <= first_output < T:
        raise ComputeError(f"rnn_forward: first_output {first_output} outside [0, {T})")
    dims = layout.hidden_dims
    weights = _forward_weights(layout, p)
    WoutT = layout.view(p, "out").T
    bout = layout.matrix(p, "bout")
    if keep_trace:
        K = _time_block(layout, B)
    else:
        K = min(T, _pow2(BUDGET // 4 // (8 * B * max(dims))))
    carried = None if K == T or not keep_trace else [None] + [
        np.zeros((-(-T // K), B, n)) for n in dims]
    xb = np.empty((K, B, layout.input_dim))
    buf = [None] + [np.empty((K + 1, B, n)) for n in dims]
    for a in buf[1:]:
        a[0] = 0.0
    tmp = [None] + [np.empty((B, n)) for n in dims]
    y = np.empty((T - first_output, B, layout.output_dim))
    for t0 in range(0, T, K):
        k = min(K, T - t0)
        np.copyto(xb[:k], X[:, t0:t0 + k].transpose(1, 0, 2))
        top = _forward_block(weights, xb[:k], [None] + [a[:k + 1] for a in buf[1:]],
                             t0 == 0, tmp, relu)
        if t0 + k < T:
            for i, a in enumerate(buf[1:], 1):
                a[0] = a[k]
                if carried is not None:
                    carried[i][t0 // K + 1] = a[0]
        lo = max(t0, first_output)  # first step of the block that is read out
        n = t0 + k - lo
        if n > 0:
            yb = y[lo - first_output:lo - first_output + n]
            np.matmul(top[lo - t0:].reshape(n * B, -1), WoutT, out=yb.reshape(n * B, -1))
            if bout is not None:
                yb += bout[:, 0]
    tr = RnnTrace(layout, p, relu, y.transpose(1, 0, 2))
    if keep_trace:
        tr.h, tr.K = [X] + (buf if carried is None else carried)[1:], K
    return tr


def _forward_steps(b: np.ndarray, WrecT, first: bool, t: np.ndarray,
                   relu: bool) -> None:
    """The recurrence of one layer through one block, in place: b is
    _forward_block's window, rows 1.. holding the input drive until they
    become states; WrecT is None for a layer without recurrence, and t is
    a (B, H) scratch row.  At small sizes a step costs as much in calls as
    in arithmetic, so the rows are split into views once and a step is
    three NumPy calls that write in place: the product into t, the add and
    the ReLU against the 0-d _ZERO."""
    start = len(b) - 1 if WrecT is None else int(first)  # steps without recurrence
    if relu and start:
        np.maximum(b[1:start + 1], _ZERO, out=b[1:start + 1])
    rows = list(b[start:])
    dot, add, maximum = _dot(t), np.add, np.maximum
    for prev, row in zip(rows, rows[1:]):
        dot(prev, WrecT, t)
        add(row, t, row)
        if relu:
            maximum(row, _ZERO, out=row)


def _backward_steps(blk: np.ndarray, carry: np.ndarray, m, Wrec, last: bool,
                    seeded: int, t: np.ndarray) -> None:
    """The reverse recurrence of one layer through one block, in place:
    dpre[s] = (blk[s] + dpre[s + 1] @ W_rec) * m[s], where blk[s] holds the
    gradient reaching step s and becomes dpre[s].  Rows below seeded get
    none, so the recurrence writes them: under ReLU they hold the step's
    mask as 0.0 / 1.0, which the product is multiplied by.  carry is dpre
    at the later block's first step, and last marks the sequence's last
    block.  m is the bool mask, read from row seeded on, or None under
    identity; Wrec is None for a layer without recurrence."""
    k, relu = len(blk), m is not None
    end = 0 if Wrec is None else k - last  # steps from end on take no recurrence
    if relu and end < k:
        np.multiply(blk[end:], m[end:], blk[end:])
    rows = list(blk[:end])
    rows.append(carry if end == k else blk[end])
    masks = list(m[:end]) if relu else None
    dot, add, multiply = _dot(t), np.add, np.multiply
    for s in range(end - 1, -1, -1):
        row = rows[s]
        if s >= seeded:
            add(row, dot(rows[s + 1], Wrec, t), row)
            if relu:
                multiply(row, masks[s], row)
        elif relu:
            multiply(dot(rows[s + 1], Wrec, t), row, row)
        else:
            dot(rows[s + 1], Wrec, row)


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over time and batch of a_tb b_tb^T, as one BLAS product."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def rnn_backward(tr: RnnTrace, dY: np.ndarray, return_dpre: bool = False):
    """dL/dp, the exact gradient of sum(dY * Y) at a kept trace tr, with the
    layout, parameters and activation its forward ran; dY, shaped like
    tr.y, carries any batch normalization.

    Time is walked from the end in blocks of K steps, the checkpointed
    trace's K or else _time_block's; a checkpointed block's states are
    first recomputed by _forward_block on the forward's shapes, so with
    its bits.  Each block runs the layers top-down and forms its mask,
    gradient products and the seed of the layer below while it is in
    cache, so only (K, B, H_i) blocks are allocated.  dpre does not depend
    on K; each block's gradient sums are added into dL/dp, and differ from
    one product over the whole sequence by rounding alone.  With return_dpre
    the result is (dL/dp, dpre, h), dpre[i] and h[i] hidden layer i's
    (T, B, H_i) pre-activation gradient and states (dpre[0] None, h[0] a
    time-major view of the input), and dL/dp keeps its bits.
    """
    layout, p, relu = tr.layout, tr.p, tr.relu
    dY = np.asarray(dY, dtype=float)
    if tr.h is None:
        raise ComputeError("rnn_backward: the forward kept no trace")
    if dY.shape != tr.y.shape:
        raise ComputeError(f"rnn_backward: dY shape {dY.shape} != outputs shape {tr.y.shape}")
    dY = np.ascontiguousarray(dY.transpose(1, 0, 2))
    T, B = layout.length, dY.shape[1]
    r = T - dY.shape[0]  # first step with an output
    whole = tr.K == T  # every state is in the trace
    K = _time_block(layout, B) if whole else tr.K
    top = layout.depth - 1
    layers = range(top, 0, -1)
    dims = layout.hidden_dims
    dp = np.zeros(layout.m)
    grad = {name: layout.view(dp, name) for name in layout.slices}
    if "bout" in grad:
        grad["bout"][:, 0] = dY.sum(axis=(0, 1))

    Wout = layout.view(p, "out")
    weights = [None] + [(layout.view(p, f"in{i}"), layout.matrix(p, f"rec{i}"))
                        for i in range(1, layout.depth)]
    rows = T if return_dpre else K
    # dpre of the block being walked: one (K, B, H_i) buffer per layer, or
    # blocks of the full (T, B, H_i) arrays that return_dpre hands back;
    # likewise the recomputed states, with the carried state in row 0.
    dpres = [None] + [np.empty((rows, B, n)) for n in dims]
    if whole:
        states = tr.h
    else:
        fweights = _forward_weights(layout, p)
        states = [None] + [np.empty((rows + 1, B, n)) for n in dims]
    xb = np.empty((K, B, layout.input_dim))
    mask = [None] + [np.empty((K, B, n), dtype=bool) if relu else None for n in dims]
    carry = [None] + [np.empty((B, n)) for n in dims]
    tmp = [None] + [np.empty((B, n)) for n in dims]
    for t0 in reversed(range(0, T, K)):
        k = min(K, T - t0)
        xin = xb[:k]
        np.copyto(xin, tr.h[0][:, t0:t0 + k].transpose(1, 0, 2))
        at = t0 if return_dpre else 0
        blocks = [None] + [d[at:at + k] for d in dpres[1:]]
        s0 = t0 if whole else at
        win = [None] + [a[s0:s0 + k + 1] for a in states[1:]]
        if not whole:
            for i in layers:
                win[i][0] = tr.h[i][t0 // K]
            _forward_block(fweights, xin, win, t0 == 0, tmp, relu)
        # The top layer is seeded from dY in rows lo.. of the block, and each
        # layer below by the one above in every row; unseeded rows are
        # written by the recurrence before they are read.
        lo = min(max(r - t0, 0), k)
        if lo < k:
            grad["out"] += _outer_sum(dY[t0 + lo - r:t0 + k - r], win[top][1 + lo:])
            np.matmul(dY[t0 + lo - r:t0 + k - r], Wout, out=blocks[top][lo:])
        for i in layers:
            Win, Wrec = weights[i]
            blk = blocks[i]
            seeded = lo if i == top else 0
            m = None
            if relu:
                # relu(z) > 0 exactly when z > 0, so the output gives the
                # mask: as floats into the unseeded rows, which the
                # recurrence multiplies by it as it overwrites them (x * 1.0
                # and x * 0.0 are x * True and x * False), as bools in the rest
                h = win[i][1:]
                np.greater(h[:seeded], 0.0, out=blk[:seeded])
                m = mask[i][:k]
                np.greater(h[seeded:], 0.0, out=m[seeded:])
            _backward_steps(blk, carry[i], m, Wrec, t0 + k == T, seeded, tmp[i])
            carry[i][...] = blk[0]
            grad[f"in{i}"] += _outer_sum(blk, xin if i == 1 else win[i - 1][1:])
            if Wrec is not None:
                a = 1 if t0 == 0 else 0  # step 0 has no earlier state
                grad[f"rec{i}"] += _outer_sum(blk[a:], win[i][a:k])
            if f"b{i}" in grad:
                grad[f"b{i}"][:, 0] += blk.sum(axis=(0, 1))
            if i > 1:
                np.matmul(blk, Win, out=blocks[i - 1])
    if not return_dpre:
        return dp
    return dp, dpres, [tr.h[0].transpose(1, 0, 2)] + [a[1:] for a in states[1:]]

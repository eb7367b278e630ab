"""Forward evaluation and exact reverse-mode gradients of unrolled RNNs.

Training, evaluation, the squared-net pass of pathnorm and verify's
gradient-check all run one route, vectorized over the RnnLayout matrices.
rnn_forward is one loop over blocks of K time steps, on the rows it is
given, with the layers inner: each block's input is copied time-major into
one reused buffer, each layer's input drive and the block's outputs are
one matmul per block, and only the recurrence runs step by step, against
a C-contiguous copy of W_rec^T.  Hidden states are time-major,
(T, B, H_i).  A kept trace runs in rnn_backward's blocks: one block when
the whole trace fits the cache cap BUDGET // (8 B max H_i), else
K = min(cap, isqrt(2 T)).  When T > K the trace keeps only the input, the
outputs and each layer's state carried into each block, and rnn_backward
recomputes each block from that state with the forward's own block code,
on the same shapes and so with the same bits (recomputation from stored
boundary states, Chen et al., arXiv:1604.06174, whose interval of order
sqrt(T) keeps the carried states and the block buffers near their least
sum).  A trace-free forward sizes its blocks from BUDGET and its row
count; a caller with a large set hands it over in chunks of
row_chunk(layout) rows.  rnn_backward walks time from the end in blocks,
copying each block's input the same way, and carries dpre across block
boundaries, so neither pass forms a (T, B, H_i) array when T > K.
Outputs are projected only from step first_output on, and the backward
seeds only those steps.

A recurrence step costs as much in calls as in arithmetic at small sizes,
so _forward_steps and _backward_steps split a block into row views once,
and a step is three calls that write in place: the product (np.dot, which
reaches BLAS with less dispatch than np.matmul), the add, and the ReLU
against the 0-d _ZERO or the mask multiply.  Every output is bit-identical
to the np.matmul / += / *= form tests/test_compute.py keeps as the
reference, and the route is checked on small nets against the per-unit
scalar reference in tests/reference.py.  All arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RnnLayout

ACTIVATIONS = ("relu", "identity")

# Bytes of one hidden layer's dpre block in rnn_backward, small enough to
# stay in cache while the block's gradient products read it; a kept trace
# is cut at the same blocks, the trace-free rnn_forward sizes its step
# blocks from it, row_chunk the rows a caller hands that forward, and
# pathnorm.kappa2 its chunks of blocks.
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


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise ComputeError(f"unknown activation {activation!r}")


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


# --- vectorized route over RnnLayout ----------------------------------------

@dataclass
class RnnTrace:
    """Batch forward record for the vectorized route.

    y holds the outputs of steps first_output .. T - 1 in the caller-facing
    (B, T - first_output, output_dim) shape (it may be a transposed view);
    rnn_backward reads first_output back from its length.  A trace-free
    forward leaves h as None.  A kept trace was cut into blocks of K steps,
    and h[0] is the caller's X itself, (B, T, input_dim), not a copy, so X
    must not be written before the backward.  For hidden layer i, a
    one-block trace (K = T) keeps every state: h[i] is (T + 1, B, H_i),
    h[i][t] the state carried into step t, so h[i][1:] are the states after
    each step.  A checkpointed trace (K < T) keeps only the state carried
    into each block: h[i] is (nb, B, H_i), h[i][j] the state carried into
    step j K, and rnn_backward recomputes a block's states from it.  Both
    start from h[i][0] = 0.  Pre-activations are not kept: the ReLU mask is
    a function of the output.
    """

    y: np.ndarray
    h: list | None = None
    K: int = 0


def _time_block(layout: RnnLayout, B: int) -> int:
    """Steps per block of a kept trace and of rnn_backward.

    The cache cap Kb = BUDGET // (8 B max H_i), at least 1, is the most
    steps whose (Kb, B, H_i) block of the widest layer takes about BUDGET
    bytes.  A trace of T <= Kb steps is one block, K = T.  A longer one is
    checkpointed every K = min(Kb, isqrt(2 T)) steps: it keeps T / K
    carried states beside the backward's few K-step buffers, and K of
    order sqrt(T) keeps that sum near its least, for the one recompute the
    backward pays at any K (Chen et al., arXiv:1604.06174).
    """
    T = layout.length
    cap = max(1, BUDGET // (8 * B * max(layout.hidden_dims)))
    return T if T <= cap else min(cap, math.isqrt(2 * T))


def row_chunk(layout: RnnLayout) -> int:
    """Rows per trace-free rnn_forward over a large set: R rows of state
    of the widest layer take about BUDGET / 32 bytes, rounded up to a power
    of two.  Task.evaluate hands the held-out set to the forward in chunks
    of R rows, so each call's blocks stay near BUDGET / 4 bytes."""
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
    """One block of k steps through the hidden layers, bottom-up, in place.

    below is the block's (k, R, input_dim) input and win[i] layer i's
    (k + 1, R, H_i) window: row 0 holds the state carried into the block,
    and rows 1.. become the states after each step.  Each layer is one
    matmul of its input drive (plus bias) over the block, then the
    recurrence step by step; first marks the block that starts the
    sequence.  Returns the top layer's (k, R, H) states.
    """
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
    """Batched forward pass over the unrolled layout.

    X has shape (B, T, input_dim), B >= 1; the hidden state starts at 0.
    Time runs in blocks of K steps: each block's input is copied
    time-major into one reused (K, B, input_dim) buffer, runs through the
    hidden layers (_forward_block), and after the top layer one matmul
    writes the block's outputs at steps >= first_output.  With keep_trace,
    K = _time_block(layout, B), the backward's blocks: at K = T the one
    block's buffers are the trace, at K < T only each layer's state
    carried into each block is kept, and either way h[0] is X itself.
    Without keep_trace a (K, B, H) block takes about BUDGET / 4 bytes,
    rounded up to a power of two; a caller with a large set hands it over
    in chunks of row_chunk(layout) rows.  y is (B, T - first_output,
    output_dim), the outputs of steps first_output .. T - 1;
    0 <= first_output < T.  y agrees across modes and first_output up to
    rounding; its last bits can depend on B and K, as BLAS may round a row
    of a product differently at another row count (a one-row product runs
    as gemv).
    """
    p = _check_params(p, layout.m)
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1] != layout.length or X.shape[2] != layout.input_dim:
        raise ComputeError(
            f"rnn_forward: expected X of shape (B, {layout.length}, {layout.input_dim}), got {X.shape}")
    if X.shape[0] == 0:
        raise ComputeError(f"rnn_forward: empty batch, X of shape {X.shape}")
    _check_activation(activation)
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
    # buf[i][0] is the state carried into the block, buf[i][1 + s] the state
    # after step s of the block; the first block starts from 0.
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
    if not keep_trace:
        return RnnTrace(y=y.transpose(1, 0, 2))
    kept = buf if carried is None else carried
    return RnnTrace(y=y.transpose(1, 0, 2), h=[X] + kept[1:], K=K)


def _forward_steps(b: np.ndarray, WrecT, first: bool, t: np.ndarray,
                   relu: bool) -> None:
    """The recurrence of one layer through one block, in place.

    b is the layer's (k + 1, B, H) block buffer: b[0] holds the state
    carried into the block, and b[1 + s] holds the input drive of step s and
    becomes the state after it.  first marks the block that starts the
    sequence, whose step 0 has no earlier state; WrecT is None for a layer
    without recurrence.  t is a (B, H) scratch row.  The rows are split
    into views once, and each step is three NumPy calls that write in
    place: the product into t, the add, the ReLU.
    """
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
    dpre[s] = (blk[s] + dpre[s + 1] @ W_rec) * m[s].

    blk[s] holds the gradient reaching step s from dY or from the layer
    above and becomes dpre[s].  Rows below seeded have no such gradient, so
    the recurrence writes them: under ReLU they hold the step's mask as
    0.0 / 1.0 and the product into t is multiplied by it, under identity
    the product is written straight into them.  carry is dpre at the first
    step of the later block, and last marks the block that ends the
    sequence, whose last step has no later state.  m is the block's bool
    ReLU mask, read only in rows from seeded on, or None under identity;
    Wrec is None for a layer without recurrence.
    """
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


def rnn_backward(layout: RnnLayout, p: np.ndarray, tr: RnnTrace, dY: np.ndarray,
                 activation: str = "relu", return_dpre: bool = False):
    """Reverse pass of rnn_forward: dL/dp from dL/dY.

    tr must come from rnn_forward with the trace kept.  dY, shaped like
    tr.y, must carry any batch normalization (e.g. 1/B for a batch mean);
    the result is the exact gradient of sum(dY * Y) linearized at the
    trace.  tr.y holds the outputs of steps r .. T - 1, r the forward's
    first_output, so dY seeds only those rows of the top layer's dpre;
    below r dpre is the recurrence dpre[t + 1] @ W_rec alone.

    Time is walked from the end in blocks of K steps: the trace's own K
    when it is checkpointed, else _time_block(layout, B).  A checkpointed
    block's states are first recomputed from the state the trace carried
    into it, by _forward_block on the forward's shapes, into buffers of
    the backward's own.  Each block's input is copied time-major into one
    reused (K, B, input_dim) buffer, which the recompute and the in1
    gradient read.  Each block runs the layers top-down: the recurrence
    dpre[t] = (dh[t] + dpre[t + 1] @ W_rec) * mask[t] starts from the dpre
    carried in from the later block, and the block's mask,
    gradient products (rec{i} with the boundary pair dpre[t0] x h[t0 - 1])
    and the seed of the layer below are formed while it is in cache.  So
    only (K, B, H_i) blocks are allocated.  dpre does not depend on K; the
    gradient sums are split by block, and differ from one product over the
    whole sequence by rounding alone.  With return_dpre the result is
    (dL/dp, dpre, h): dpre[i] is dL/d(pre-activation) of hidden layer i
    and h[i] its states, both (T, B, H_i) and time-major, h[0] a
    time-major view of the input and dpre[0] None; dL/dp is bit-identical
    in both modes.
    """
    _check_activation(activation)
    p = np.asarray(p, dtype=float)
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
    relu = activation == "relu"
    top = layout.depth - 1
    layers = range(top, 0, -1)
    dims = layout.hidden_dims
    dp = np.zeros(layout.m)
    if "bout" in layout.slices:
        sl, _ = layout.slices["bout"]
        dp[sl] = dY.sum(axis=(0, 1))

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
    grads: dict = {}  # the first block walked sets each sum, later blocks add

    def add(name, value):
        if name in grads:
            grads[name] += value
        else:
            grads[name] = value

    for t0 in reversed(range(0, T, K)):
        k = min(K, T - t0)
        xin = xb[:k]
        np.copyto(xin, tr.h[0][:, t0:t0 + k].transpose(1, 0, 2))
        at = t0 if return_dpre else 0
        blocks = [None] + [d[at:at + k] for d in dpres[1:]]
        # win[i][0] is layer i's state carried into the block, win[i][1 + s]
        # its state after step s of the block.
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
            add("out", _outer_sum(dY[t0 + lo - r:t0 + k - r], win[top][1 + lo:]))
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
            add(f"in{i}", _outer_sum(blk, xin if i == 1 else win[i - 1][1:]))
            if Wrec is not None:
                a = 1 if t0 == 0 else 0  # step 0 has no earlier state
                add(f"rec{i}", _outer_sum(blk[a:], win[i][a:k]))
            if f"b{i}" in layout.slices:
                add(f"b{i}", blk.sum(axis=(0, 1)))
            if i > 1:
                np.matmul(blk, Win, out=blocks[i - 1])
    for name, value in grads.items():
        sl, _ = layout.slices[name]
        dp[sl] = value.reshape(-1)
    if not return_dpre:
        return dp
    return dp, dpres, [tr.h[0].transpose(1, 0, 2)] + [a[1:] for a in states[1:]]

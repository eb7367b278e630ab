"""Forward evaluation and exact reverse-mode gradients of unrolled RNNs.

Training, evaluation, the squared-net pass of pathnorm and verify's
gradient-check all run one route, vectorized over the RnnLayout matrices.
rnn_forward runs one loop over blocks of time steps (layers inner): each
layer's input drive and the block's outputs are one matmul per block, and
only the recurrence runs step by step, against one C-contiguous copy of
W_rec^T per layer.  Hidden states are time-major, (T, B, H_i), so each step
reads and writes one contiguous (B, H_i) block.  The training forward keeps
the whole sequence as one block, which is the trace rnn_backward reads;
evaluation, which needs only the outputs, runs it trace-free
(keep_trace=False) in chunks of rows and blocks of steps, so a held-out set
of any size runs in one call.  rnn_backward walks time from the end in
blocks, layers top-down inside each block, and carries dpre at each
block's first step into the earlier block, so neither forms a (T, B, H_i)
array of its own.  Every block size comes from BUDGET and the widest layer.
Outputs are projected only from step first_output on: a many-to-one task
reads the last step alone, so its forward makes one (B, H) x (H, O) output
product and its backward seeds only that step.

At small sizes a recurrence step costs as much in calls as in arithmetic:
at B = H = 32 the (B, H) x (H, H) product takes about 1.6 us and each
elementwise call around it 0.5 to 1.5 us (NumPy 2.4 with OpenBLAS on one
thread of a Xeon vCPU).  So _forward_steps and _backward_steps split a block
into row views once, and a step is three calls that each write in place:
the product, the add, and the ReLU or the mask multiply.  The product is
np.dot, which reaches BLAS with less dispatch than np.matmul (1.6 against
2.0 us at that size); the ReLU takes the 0-d array _ZERO, which np.maximum
uses as it is, where it would convert the float 0.0 at every call.  The
arithmetic is that of the np.matmul / += / *= form the loops replaced, and
every output is bit-identical to it; tests/test_compute.py keeps that form
as the reference, and checks the route on small nets against the per-unit
scalar reference in tests/reference.py.  All arithmetic is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RnnLayout

ACTIVATIONS = ("relu", "identity")

# Bytes of one hidden layer's dpre block in rnn_backward, small enough to
# stay in cache while the block's gradient products read it; the
# trace-free rnn_forward sizes its row chunks and step blocks from it too.
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

    Hidden states are stored time-major, so one step of one layer is a
    contiguous (B, H_i) block: h[0] is the input block (T, B, input_dim) and
    h[i] for hidden layer i is (T, B, H_i).  y holds the outputs of steps
    first_output .. T - 1 in the caller-facing (B, T - first_output,
    output_dim) shape (it may be a transposed view); rnn_backward reads
    first_output back from its length.  Pre-activations are not kept: the
    ReLU mask is a function of the output.  A trace-free forward leaves h
    as None.
    """

    h: list | None
    y: np.ndarray


def rnn_forward(layout: RnnLayout, p: np.ndarray, X: np.ndarray,
                activation: str = "relu", keep_trace: bool = True,
                first_output: int = 0) -> RnnTrace:
    """Batched forward pass over the unrolled layout.

    X has shape (B, T, input_dim), B >= 1; the hidden state starts at 0.
    Time runs in blocks of K steps, and each block runs the layers
    bottom-up: one matmul writes a layer's input drive (plus bias) for the
    whole block, the recurrence then runs step by step, and after the top
    layer one matmul writes the block's outputs at steps >= first_output.
    With keep_trace the whole batch runs with K = T, and the block buffer
    is the trace that rnn_backward reads.  Without it the batch runs in
    chunks of R rows, each transposed on its own, and each chunk in blocks
    of K steps: R rows of state take about BUDGET / 32 bytes and a
    (K, R, H) block about BUDGET / 4 at the widest layer H, both rounded
    up to a power of two: (R, K) = (256, 8) at H = 32, (128, 8) at H = 100
    and (64, 8) at H = 128.  y is (B, T - first_output, output_dim), the
    outputs of steps first_output .. T - 1; 0 <= first_output < T.  y
    agrees across modes and first_output up to rounding; its last bits can
    depend on R and K, as BLAS may round a row of a product differently at
    another row count (with OpenBLAS 0.3.31 the unrounded 81 rows at
    H = 100 change them, and a one-row product runs as gemv).
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
    layers = range(1, layout.depth)

    weights = [None]  # per hidden layer: (W_in^T, W_rec^T or None, bias or None)
    for i in layers:
        Wrec = layout.matrix(p, f"rec{i}")
        b = layout.matrix(p, f"b{i}")
        # The recurrence multiplies by W_rec^T once per step; a contiguous
        # copy is the faster BLAS operand at small batch sizes.
        weights.append((layout.view(p, f"in{i}").T,
                        None if Wrec is None else np.ascontiguousarray(Wrec.T),
                        None if b is None else b[:, 0]))
    WoutT = layout.view(p, "out").T
    bout = layout.matrix(p, "bout")

    def run(rows: slice, K: int):
        """Xt, the block buffers and y of `rows`, all time-major."""
        Xt = np.ascontiguousarray(X[rows].transpose(1, 0, 2))
        R = Xt.shape[1]
        # buf[i][0] is the state carried into the block, buf[i][1 + s] the
        # state after step s of the block.
        buf = [None] + [np.empty((K + 1, R, n)) for n in layout.hidden_dims]
        tmp = [None] + [np.empty((R, n)) for n in layout.hidden_dims]
        y = np.empty((T - first_output, R, layout.output_dim))
        for t0 in range(0, T, K):
            k = min(K, T - t0)
            below = Xt[t0:t0 + k]
            for i in layers:
                WinT, WrecT, b = weights[i]
                blk = buf[i][1:k + 1]
                np.matmul(below.reshape(k * R, -1), WinT, out=blk.reshape(k * R, -1))
                if b is not None:
                    blk += b
                _forward_steps(buf[i][:k + 1], WrecT, t0 == 0, tmp[i], relu)
                buf[i][0] = blk[-1]
                below = blk
            lo = max(t0, first_output)  # first step of the block that is read out
            n = t0 + k - lo
            if n <= 0:
                continue
            yb = y[lo - first_output:lo - first_output + n]
            np.matmul(below[lo - t0:].reshape(n * R, -1), WoutT, out=yb.reshape(n * R, -1))
            if bout is not None:
                yb += bout[:, 0]
        return Xt, buf, y

    if keep_trace:
        Xt, buf, y = run(slice(None), T)
        return RnnTrace(h=[Xt] + [a[1:] for a in buf[1:]], y=y.transpose(1, 0, 2))
    H = max(layout.hidden_dims)
    R = min(B, _pow2(BUDGET // 32 // (8 * H)))
    K = min(T, _pow2(BUDGET // 4 // (8 * R * H)))
    ys = [run(slice(lo, lo + R), K)[2] for lo in range(0, B, R)]
    y = ys[0] if len(ys) == 1 else np.concatenate(ys, axis=1)
    return RnnTrace(h=None, y=y.transpose(1, 0, 2))


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
    trace.  tr.y holds the outputs of steps r .. T - 1, with r the forward's
    first_output, so dY seeds only those steps: the output gradients sum
    over them, and the top layer's dpre takes dY @ W_out in those rows
    alone, while below r it is the recurrence dpre[t + 1] @ W_rec written
    straight into dpre[t].

    Time is walked from the end in blocks of K = min(T, BUDGET // (8 B
    max H_i)) steps (at least 1), and each block runs the layers top-down:
    the recurrence dpre[t] = (dh[t] + dpre[t + 1] @ W_rec) * mask[t] steps
    through the block, starting from the dpre carried in from the first
    step of the later block; the block's ReLU mask, its in{i}, rec{i}
    (with the boundary pair dpre[t0] x h[t0 - 1]) and b{i} gradient
    products and the seed dpre @ W_in of the layer below are all formed
    while the block is in cache.  So no (T, B, H_i) array is allocated,
    only one (K, B, H_i) block per layer and, under ReLU, its bool mask,
    formed only in the rows dY or the layer above seeds; the rows below r
    take the mask as floats.  dpre itself does
    not depend on K, and only the gradient sums are split by block: a step
    that fits in one block (K = T) forms each as one product over the whole
    sequence, and a longer one differs from that by rounding alone.  With
    return_dpre the result is (dL/dp, dpre), where dpre[i] is
    dL/d(pre-activation) of hidden layer i, time-major like tr.h[i]
    (dpre[0] is None); the same blocks then write into the full arrays, so
    dL/dp is bit-identical in both modes.
    """
    _check_activation(activation)
    p = np.asarray(p, dtype=float)
    dY = np.asarray(dY, dtype=float)
    if dY.shape != tr.y.shape:
        raise ComputeError(f"rnn_backward: dY shape {dY.shape} != outputs shape {tr.y.shape}")
    dY = np.ascontiguousarray(dY.transpose(1, 0, 2))
    T, B = layout.length, dY.shape[1]
    r = T - dY.shape[0]  # first step with an output
    K = min(T, max(1, BUDGET // (8 * B * max(layout.hidden_dims))))
    relu = activation == "relu"
    top = layout.depth - 1
    layers = range(top, 0, -1)
    dp = np.zeros(layout.m)

    Wout = layout.view(p, "out")
    sl, _ = layout.slices["out"]
    dp[sl] = _outer_sum(dY, tr.h[top][r:]).reshape(-1)
    if "bout" in layout.slices:
        sl, _ = layout.slices["bout"]
        dp[sl] = dY.sum(axis=(0, 1))

    weights = [None] + [(layout.view(p, f"in{i}"), layout.matrix(p, f"rec{i}"))
                        for i in range(1, layout.depth)]
    # dpre of the block being walked: one (K, B, H_i) buffer per layer, or
    # blocks of the full (T, B, H_i) arrays that return_dpre hands back.
    dpres = [None] + [np.empty((T if return_dpre else K, B, n)) for n in layout.hidden_dims]
    mask = [None] + [np.empty((K, B, n), dtype=bool) if relu else None
                     for n in layout.hidden_dims]
    carry = [None] + [np.empty((B, n)) for n in layout.hidden_dims]
    tmp = [None] + [np.empty((B, n)) for n in layout.hidden_dims]
    grads: dict = {}  # the first block walked sets each sum, later blocks add

    def add(name, value):
        if name in grads:
            grads[name] += value
        else:
            grads[name] = value

    for t0 in reversed(range(0, T, K)):
        k = min(K, T - t0)
        at = t0 if return_dpre else 0
        blocks = [None] + [d[at:at + k] for d in dpres[1:]]
        # The top layer is seeded from dY in rows lo.. of the block, and each
        # layer below by the one above in every row; unseeded rows are
        # written by the recurrence before they are read.
        lo = min(max(r - t0, 0), k)
        if lo < k:
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
                h = tr.h[i][t0:t0 + k]
                np.greater(h[:seeded], 0.0, out=blk[:seeded])
                m = mask[i][:k]
                np.greater(h[seeded:], 0.0, out=m[seeded:])
            _backward_steps(blk, carry[i], m, Wrec, t0 + k == T, seeded, tmp[i])
            carry[i][...] = blk[0]
            add(f"in{i}", _outer_sum(blk, tr.h[i - 1][t0:t0 + k]))
            if Wrec is not None:
                a = 1 if t0 == 0 else 0  # step 0 has no earlier state
                add(f"rec{i}", _outer_sum(blk[a:], tr.h[i][t0 + a - 1:t0 + k - 1]))
            if f"b{i}" in layout.slices:
                add(f"b{i}", blk.sum(axis=(0, 1)))
            if i > 1:
                np.matmul(blk, Win, out=blocks[i - 1])
    for name, value in grads.items():
        sl, _ = layout.slices[name]
        dp[sl] = value.reshape(-1)
    return (dp, dpres) if return_dpre else dp

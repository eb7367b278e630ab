"""Forward evaluation and exact reverse-mode gradients of shared-weight nets.

Two routes cover every network:

* a generic interpreter over the explicit DAG (any SharedWeightNet), used by
  the oracles and small verification nets;
* a vectorized route over the RnnLayout matrices, used by training,
  evaluation and the squared-net pass of pathnorm.  rnn_forward runs one
  loop over blocks of time steps (layers inner): each layer's input drive
  and the block's outputs are one matmul per block, and only the
  recurrence runs step by step, against one C-contiguous copy of W_rec^T
  per layer.  Hidden states are time-major, (T, B, H_i), so each step
  reads and writes one contiguous (B, H_i) block.  Training keeps the
  whole sequence as one block, which is the trace rnn_backward reads;
  evaluation, which needs only the outputs, runs the forward trace-free
  (keep_trace=False) in blocks of BLOCK steps and holds one (BLOCK, B, H_i)
  buffer and one carried (B, H_i) state per layer.  Outputs are projected
  only from step first_output on: a many-to-one task reads the last step
  alone, so its forward makes one (B, H) x (H, O) output product and its
  backward seeds only that step.

Both routes are exact reverse-mode differentiation and are tied together by
equivalence tests.  All arithmetic is 64-bit; gradients over a batch are the
mean over examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RnnLayout, SharedWeightNet

ACTIVATIONS = ("relu", "identity")

# Steps per block of a trace-free rnn_forward.  Larger blocks mean fewer,
# larger input and output projections but bigger per-layer buffers; at 32
# the evaluation buffers already show in the peak memory of small runs.
BLOCK = 8


class ComputeError(ValueError):
    pass


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


@dataclass
class ActivationTrace:
    """Per-node record of one forward pass.

    values[v] is the node output h_v, pre[v] the pre-activation, and
    active[v] the (pre > 0) mask used as the ReLU subgradient (0 at exactly
    0).  Input nodes carry their input coordinate in both fields; the bias
    node carries 1.
    """

    values: np.ndarray
    pre: np.ndarray
    active: np.ndarray


def forward(net: SharedWeightNet, p: np.ndarray, x: np.ndarray,
            activation: str = "relu") -> tuple[np.ndarray, ActivationTrace]:
    """Evaluate the network on one input vector.

    x holds one coordinate per input node, in stored node order; outputs are
    returned in output-node order.  Output nodes apply no nonlinearity.
    """
    p = _check_params(p, net.num_params)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != len(net.input_ids):
        raise ComputeError(f"input: expected {len(net.input_ids)} coordinates, got {x.shape[0]}")
    _check_activation(activation)

    values = np.zeros(net.num_nodes)
    pre = np.zeros(net.num_nodes)
    for i, v in enumerate(net.input_ids):
        pre[v] = values[v] = x[i]
    if net.bias_id is not None:
        pre[net.bias_id] = values[net.bias_id] = 1.0

    for node in net.nodes:
        if node.kind in ("input", "bias"):
            continue
        z = 0.0
        for u, pi in net.incoming[node.idx]:
            z += p[pi] * values[u]
        pre[node.idx] = z
        if node.kind == "output" or activation == "identity":
            values[node.idx] = z
        else:
            values[node.idx] = z if z > 0.0 else 0.0

    trace = ActivationTrace(values=values, pre=pre, active=pre > 0.0)
    outputs = values[np.asarray(net.output_ids)]
    return outputs, trace


def backprop(net: SharedWeightNet, p: np.ndarray, trace: ActivationTrace,
             d_outputs: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Reverse-mode pass: d(scalar)/dp from d(scalar)/d(outputs).

    The shared-parameter chain rule accumulates every edge's weight gradient
    into its parameter index.  activation="identity" backpropagates with unit
    derivative at internal nodes regardless of the trace mask (used for the
    squared-weight network, where the function is a polynomial).
    """
    _check_activation(activation)
    p = np.asarray(p, dtype=float)
    d_outputs = np.asarray(d_outputs, dtype=float).reshape(-1)
    dval = np.zeros(net.num_nodes)
    for i, v in enumerate(net.output_ids):
        dval[v] = d_outputs[i]

    dp = np.zeros(net.num_params)
    for node in reversed(net.nodes):
        if node.kind in ("input", "bias"):
            continue
        if node.kind == "output" or activation == "identity":
            dpre = dval[node.idx]
        else:
            dpre = dval[node.idx] if trace.active[node.idx] else 0.0
        if dpre == 0.0:
            continue
        for u, pi in net.incoming[node.idx]:
            dp[pi] += dpre * trace.values[u]
            dval[u] += dpre * p[pi]
    return dp


# --- losses ------------------------------------------------------------------

def loss(outputs: np.ndarray, target) -> float:
    """Mean squared error over the designated output vector."""
    z = np.asarray(outputs, dtype=float).reshape(-1)
    t = np.asarray(target, dtype=float).reshape(-1)
    if t.shape != z.shape:
        raise ComputeError(f"mse: target shape {t.shape} != outputs shape {z.shape}")
    return float(np.mean((z - t) ** 2))


def loss_grad(outputs: np.ndarray, target) -> np.ndarray:
    """d(loss)/d(outputs)."""
    z = np.asarray(outputs, dtype=float).reshape(-1)
    t = np.asarray(target, dtype=float).reshape(-1)
    return 2.0 * (z - t) / z.shape[0]


def batch_loss(net: SharedWeightNet, p: np.ndarray, batch,
               activation: str = "relu") -> float:
    """Mean loss over (x, target) pairs."""
    total = 0.0
    for x, target in batch:
        outputs, _ = forward(net, p, x, activation)
        total += loss(outputs, target)
    return total / len(batch)


def grad(net: SharedWeightNet, p: np.ndarray, batch,
         activation: str = "relu") -> np.ndarray:
    """Mean gradient of the loss over a batch of (x, target) pairs."""
    if not batch:
        raise ComputeError("grad: empty batch")
    dp = np.zeros(net.num_params)
    for x, target in batch:
        outputs, trace = forward(net, p, x, activation)
        dp += backprop(net, p, trace, loss_grad(outputs, target), activation)
    return dp / len(batch)


def finite_diff_grad(net: SharedWeightNet, p: np.ndarray, batch,
                     step: float = 1e-5, activation: str = "relu") -> np.ndarray:
    """Central-difference gradient of the batch loss; the gradient oracle."""
    p = _check_params(p, net.num_params)
    return central_diff(lambda q: batch_loss(net, q, batch, activation), p, step)


def central_diff(f, p: np.ndarray, step) -> np.ndarray:
    """Per-coordinate central first difference of a scalar function.

    step may be a scalar or a per-coordinate array.
    """
    p = np.asarray(p, dtype=float)
    h = np.broadcast_to(np.asarray(step, dtype=float), p.shape)
    g = np.zeros_like(p)
    for i in range(p.shape[0]):
        pp = p.copy()
        pp[i] = p[i] + h[i]
        fp = f(pp)
        pp[i] = p[i] - h[i]
        fm = f(pp)
        g[i] = (fp - fm) / (2.0 * h[i])
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
    ReLU mask is a function of the output.
    A trace-free forward (keep_trace=False) leaves h as None: it keeps only
    the current block of BLOCK steps per layer, so it has no trace to hand
    back.
    """

    h: list | None
    y: np.ndarray


def rnn_forward(layout: RnnLayout, p: np.ndarray, X: np.ndarray,
                activation: str = "relu", keep_trace: bool = True,
                first_output: int = 0) -> RnnTrace:
    """Batched forward pass over the unrolled layout.

    X has shape (B, T, input_dim); hidden state before the first step is 0.
    Time runs in blocks of K steps, and each block runs the layers
    bottom-up: one matmul writes a layer's input drive (plus bias) for the
    whole block, the recurrence then runs step by step, and after the top
    layer one matmul writes the block's outputs at steps >= first_output.
    With keep_trace K = T and the block buffer is the trace that
    rnn_backward reads; without it K = BLOCK, and each layer holds one
    (BLOCK, B, H_i) buffer and the (B, H_i) state carried into the block,
    so no (T, B, H_i) array is formed.  y is (B, T - first_output,
    output_dim), the outputs of steps first_output .. T - 1; 0 <=
    first_output < T.  Matches the generic interpreter on the corresponding
    build_rnn graph; y is bit-identical in both modes and for every
    first_output.
    """
    spec = layout.spec
    p = _check_params(p, layout.m)
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1] != spec.length or X.shape[2] != spec.input_dim:
        raise ComputeError(
            f"rnn_forward: expected X of shape (B, {spec.length}, {spec.input_dim}), got {X.shape}")
    _check_activation(activation)
    relu = activation == "relu"
    B, T = X.shape[0], spec.length
    if not 0 <= first_output < T:
        raise ComputeError(f"rnn_forward: first_output {first_output} outside [0, {T})")
    K = T if keep_trace else min(T, BLOCK)
    layers = range(1, spec.depth)

    Xt = np.ascontiguousarray(X.transpose(1, 0, 2))
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
    # buf[i][0] is the state carried into the block, buf[i][1 + s] the
    # state after step s of the block.
    buf = [None] + [np.empty((K + 1, B, n)) for n in spec.hidden_dims]
    tmp = [None] + [np.empty((B, n)) for n in spec.hidden_dims]
    y = np.empty((T - first_output, B, spec.output_dim))
    for t0 in range(0, T, K):
        k = min(K, T - t0)
        below = Xt[t0:t0 + k]
        for i in layers:
            WinT, WrecT, b = weights[i]
            blk = buf[i][1:k + 1]
            np.matmul(below.reshape(k * B, -1), WinT, out=blk.reshape(k * B, -1))
            if b is not None:
                blk += b
            for s in range(k):
                if WrecT is not None and t0 + s > 0:
                    blk[s] += np.matmul(buf[i][s], WrecT, out=tmp[i])
                if relu:
                    np.maximum(blk[s], 0.0, out=blk[s])
            buf[i][0] = blk[-1]
            below = blk
        lo = max(t0, first_output)  # first step of the block that is read out
        n = t0 + k - lo
        if n <= 0:
            continue
        yb = y[lo - first_output:lo - first_output + n]
        np.matmul(below[lo - t0:].reshape(n * B, -1), WoutT, out=yb.reshape(n * B, -1))
        if bout is not None:
            yb += bout[:, 0]
    h = ([Xt] + [a[1:] for a in buf[1:]]) if keep_trace else None
    return RnnTrace(h=h, y=y.transpose(1, 0, 2))


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
    straight into dpre[t].  With return_dpre the result is (dL/dp, dpre),
    where dpre[i] is dL/d(pre-activation) of hidden layer i, time-major
    like tr.h[i] (dpre[0] is None).
    """
    _check_activation(activation)
    spec = layout.spec
    p = np.asarray(p, dtype=float)
    dY = np.asarray(dY, dtype=float)
    if dY.shape != tr.y.shape:
        raise ComputeError(f"rnn_backward: dY shape {dY.shape} != outputs shape {tr.y.shape}")
    dY = np.ascontiguousarray(dY.transpose(1, 0, 2))
    T = spec.length
    r = T - dY.shape[0]  # first step with an output
    dp = np.zeros(layout.m)

    Wout = layout.view(p, "out")
    top = tr.h[spec.depth - 1]
    sl, _ = layout.slices["out"]
    dp[sl] = _outer_sum(dY, top[r:]).reshape(-1)
    if "bout" in layout.slices:
        sl, _ = layout.slices["bout"]
        dp[sl] = dY.sum(axis=(0, 1))

    # dL/dh for the top hidden layer; rows below r are written by the
    # recurrence before they are read.
    dh = np.empty_like(top)
    np.matmul(dY, Wout, out=dh[r:])
    dpres: list = [None] * spec.depth
    seeded = r  # the current layer's dh is written from this step on
    for i in range(spec.depth - 1, 0, -1):
        Win = layout.view(p, f"in{i}")
        Wrec = layout.matrix(p, f"rec{i}")
        # relu(z) > 0 exactly when z > 0, so the output gives the ReLU mask;
        # the identity activation has no mask.
        mask = tr.h[i] > 0.0 if activation == "relu" else None
        dpre = dh  # dh[t] is last read at step t, so dpre overwrites it
        tmp = np.empty_like(dpre[0])
        for t in range(T - 1, -1, -1):
            if Wrec is not None and t < T - 1:
                if t < seeded:
                    np.matmul(dpre[t + 1], Wrec, out=dpre[t])
                else:
                    dpre[t] += np.matmul(dpre[t + 1], Wrec, out=tmp)
            if mask is not None:
                dpre[t] *= mask[t]
        sl, _ = layout.slices[f"in{i}"]
        dp[sl] = _outer_sum(dpre, tr.h[i - 1]).reshape(-1)
        if Wrec is not None:
            sl, _ = layout.slices[f"rec{i}"]
            dp[sl] = _outer_sum(dpre[1:], tr.h[i][:-1]).reshape(-1)
        if f"b{i}" in layout.slices:
            sl, _ = layout.slices[f"b{i}"]
            dp[sl] = dpre.sum(axis=(0, 1))
        dpres[i] = dpre
        if i > 1:
            dh = dpre @ Win
            seeded = 0
    return (dp, dpres) if return_dpre else dp

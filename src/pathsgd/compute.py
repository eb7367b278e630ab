"""Forward evaluation and exact reverse-mode gradients of shared-weight nets.

Two routes cover every network:

* a generic interpreter over the explicit DAG (any SharedWeightNet), used by
  the oracles and small verification nets;
* a vectorized route over the RnnLayout matrices, used by training.

Both routes are exact reverse-mode differentiation and are tied together by
equivalence tests.  All arithmetic is 64-bit; gradients over a batch are the
mean over examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, RnnLayout, SharedWeightNet

ACTIVATIONS = ("relu", "tanh", "identity")


class ComputeError(ValueError):
    pass


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
    if activation not in ACTIVATIONS:
        raise ComputeError(f"unknown activation {activation!r}")

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
        elif activation == "relu":
            values[node.idx] = z if z > 0.0 else 0.0
        else:  # tanh
            values[node.idx] = np.tanh(z)

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
        elif activation == "relu":
            dpre = dval[node.idx] if trace.active[node.idx] else 0.0
        else:  # tanh
            dpre = dval[node.idx] * (1.0 - trace.values[node.idx] ** 2)
        if dpre == 0.0:
            continue
        for u, pi in net.incoming[node.idx]:
            dp[pi] += dpre * trace.values[u]
            dval[u] += dpre * p[pi]
    return dp


# --- losses ------------------------------------------------------------------

def loss(outputs: np.ndarray, target, kind: str = "mse") -> float:
    """Scalar loss over the designated output vector."""
    z = np.asarray(outputs, dtype=float).reshape(-1)
    if kind == "mse":
        t = np.asarray(target, dtype=float).reshape(-1)
        if t.shape != z.shape:
            raise ComputeError(f"mse: target shape {t.shape} != outputs shape {z.shape}")
        return float(np.mean((z - t) ** 2))
    if kind == "softmax_xent":
        c = int(target)
        if not 0 <= c < z.shape[0]:
            raise ComputeError(f"softmax_xent: class {c} out of range [0, {z.shape[0]})")
        zmax = np.max(z)
        return float(zmax + np.log(np.sum(np.exp(z - zmax))) - z[c])
    raise ComputeError(f"unknown loss kind {kind!r}")


def loss_grad(outputs: np.ndarray, target, kind: str = "mse") -> np.ndarray:
    """d(loss)/d(outputs) for the kinds in loss()."""
    z = np.asarray(outputs, dtype=float).reshape(-1)
    if kind == "mse":
        t = np.asarray(target, dtype=float).reshape(-1)
        return 2.0 * (z - t) / z.shape[0]
    if kind == "softmax_xent":
        c = int(target)
        zs = z - np.max(z)
        sm = np.exp(zs)
        sm /= sm.sum()
        sm[c] -= 1.0
        return sm
    raise ComputeError(f"unknown loss kind {kind!r}")


def _readout_ids(net: SharedWeightNet, readout) -> np.ndarray:
    if readout is None:
        return np.arange(len(net.output_ids))
    return np.asarray(readout, dtype=int)


def batch_loss(net: SharedWeightNet, p: np.ndarray, batch, kind: str = "mse",
               activation: str = "relu", readout=None) -> float:
    """Mean loss over (x, target) pairs; readout selects which output
    coordinates feed the loss (default: all)."""
    sel = _readout_ids(net, readout)
    total = 0.0
    for x, target in batch:
        outputs, _ = forward(net, p, x, activation)
        total += loss(outputs[sel], target, kind)
    return total / len(batch)


def grad(net: SharedWeightNet, p: np.ndarray, batch, kind: str = "mse",
         activation: str = "relu", readout=None) -> np.ndarray:
    """Mean gradient of the loss over a batch of (x, target) pairs."""
    if not batch:
        raise ComputeError("grad: empty batch")
    sel = _readout_ids(net, readout)
    dp = np.zeros(net.num_params)
    for x, target in batch:
        outputs, trace = forward(net, p, x, activation)
        d_sel = loss_grad(outputs[sel], target, kind)
        d_out = np.zeros(len(net.output_ids))
        d_out[sel] = d_sel
        dp += backprop(net, p, trace, d_out, activation)
    return dp / len(batch)


def finite_diff_grad(net: SharedWeightNet, p: np.ndarray, batch, kind: str = "mse",
                     step: float = 1e-5, activation: str = "relu", readout=None) -> np.ndarray:
    """Central-difference gradient of the batch loss; the gradient oracle."""
    p = _check_params(p, net.num_params)
    g = np.zeros(net.num_params)
    for i in range(net.num_params):
        pp = p.copy()
        pp[i] = p[i] + step
        fp = batch_loss(net, pp, batch, kind, activation, readout)
        pp[i] = p[i] - step
        fm = batch_loss(net, pp, batch, kind, activation, readout)
        g[i] = (fp - fm) / (2.0 * step)
    return g


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

    h[0] is the input block (B, T, input_dim); h[i] for hidden layer i is
    (B, T, H_i); y is (B, T, output_dim).  Pre-activations are not kept:
    every activation's derivative is a function of its output.
    """

    h: list
    y: np.ndarray


def _act(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    return z


def rnn_forward(layout: RnnLayout, p: np.ndarray, X: np.ndarray,
                activation: str = "relu") -> RnnTrace:
    """Batched forward pass over the unrolled layout.

    X has shape (B, T, input_dim); hidden state before the first step is 0.
    Matches the generic interpreter on the corresponding build_rnn graph.
    """
    spec = layout.spec
    p = _check_params(p, layout.m)
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[1] != spec.length or X.shape[2] != spec.input_dim:
        raise ComputeError(
            f"rnn_forward: expected X of shape (B, {spec.length}, {spec.input_dim}), got {X.shape}")
    T = spec.length

    h: list = [X]
    for i in range(1, spec.depth):
        Win = layout.view(p, f"in{i}")
        Wrec = layout.matrix(p, f"rec{i}")
        b = layout.matrix(p, f"b{i}")
        # h_i starts as the input drive and is overwritten step by step.
        h_i = h[i - 1] @ Win.T
        if b is not None:
            h_i += b[:, 0]
        for t in range(T):
            z = h_i[:, t]
            if Wrec is not None and t > 0:
                z = z + h_i[:, t - 1] @ Wrec.T
            h_i[:, t] = _act(z, activation)
        h.append(h_i)

    Wout = layout.view(p, "out")
    y = h[-1] @ Wout.T
    bout = layout.matrix(p, "bout")
    if bout is not None:
        y = y + bout[:, 0]
    return RnnTrace(h=h, y=y)


def _act_deriv(tr: RnnTrace, i: int, activation: str) -> np.ndarray:
    # relu(z) > 0 exactly when z > 0, so the output gives the ReLU mask.
    if activation == "relu":
        return tr.h[i] > 0.0
    if activation == "tanh":
        return 1.0 - tr.h[i] ** 2
    return np.ones_like(tr.h[i])


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of a_bt b_bt^T, as one BLAS product."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def rnn_backward(layout: RnnLayout, p: np.ndarray, tr: RnnTrace, dY: np.ndarray,
                 activation: str = "relu", return_dpre: bool = False):
    """Reverse pass of rnn_forward: dL/dp from dL/dY.

    dY must carry any batch normalization (e.g. 1/B for a batch mean); the
    result is the exact gradient of sum(dY * Y) linearized at the trace.
    With return_dpre the result is (dL/dp, dpre), where dpre[i] is
    dL/d(pre-activation) of hidden layer i, shaped like tr.h[i] (dpre[0] is
    None).
    """
    spec = layout.spec
    p = np.asarray(p, dtype=float)
    dY = np.asarray(dY, dtype=float)
    if dY.shape != tr.y.shape:
        raise ComputeError(f"rnn_backward: dY shape {dY.shape} != outputs shape {tr.y.shape}")
    T = spec.length
    dp = np.zeros(layout.m)

    Wout = layout.view(p, "out")
    sl, _ = layout.slices["out"]
    dp[sl] = _outer_sum(dY, tr.h[spec.depth - 1]).reshape(-1)
    if "bout" in layout.slices:
        sl, _ = layout.slices["bout"]
        dp[sl] = dY.sum(axis=(0, 1))

    dh = dY @ Wout  # dL/dh for the top hidden layer
    dpres: list = [None] * spec.depth
    for i in range(spec.depth - 1, 0, -1):
        Win = layout.view(p, f"in{i}")
        Wrec = layout.matrix(p, f"rec{i}")
        deriv = _act_deriv(tr, i, activation)
        dpre = dh  # dh[:, t] is last read at step t, so dpre overwrites it
        for t in range(T - 1, -1, -1):
            dd = dh[:, t]
            if Wrec is not None and t < T - 1:
                dd = dd + dpre[:, t + 1] @ Wrec
            np.multiply(dd, deriv[:, t], out=dpre[:, t])
        sl, _ = layout.slices[f"in{i}"]
        dp[sl] = _outer_sum(dpre, tr.h[i - 1]).reshape(-1)
        if Wrec is not None:
            # The time-shifted blocks do not flatten without a copy; one
            # batched product over the per-sequence (T-1, H) views does.
            sl, _ = layout.slices[f"rec{i}"]
            rec = dpre[:, 1:].transpose(0, 2, 1) @ tr.h[i][:, :-1]
            dp[sl] = rec.sum(axis=0).reshape(-1)
        if f"b{i}" in layout.slices:
            sl, _ = layout.slices[f"b{i}"]
            dp[sl] = dpre.sum(axis=(0, 1))
        dpres[i] = dpre
        if i > 1:
            dh = dpre @ Win
    return (dp, dpres) if return_dpre else dp

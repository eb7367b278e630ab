"""Node-wise rescaling transformations that leave the network function fixed.

For a ReLU net, multiplying a hidden unit's incoming weights by a > 0 and its
outgoing weights by 1/a preserves the function.  With shared weights the
rescaling must keep tied weights tied: in an unrolled RNN the scale of a
hidden unit is therefore one number per (layer, unit), applied identically at
every time step.  Input, output and bias nodes never scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, RnnLayout


@dataclass(frozen=True)
class NodeScaling:
    """Positive per-unit scales for each hidden layer.

    layers[i] holds the scales of hidden layer i+1 (layers are 1-based to
    match the weight-matrix numbering).
    """

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers",
                           tuple(np.asarray(a, dtype=float) for a in self.layers))
        for a in self.layers:
            if a.ndim != 1 or not np.all(a > 0.0):
                raise GraphError("NodeScaling: scales must be positive 1-D arrays")

    def layer(self, i: int) -> np.ndarray:
        """Scales of hidden layer i (1-based)."""
        return self.layers[i - 1]


def random_rescaling(layout: RnnLayout, rng: np.random.Generator,
                     log_range: float) -> NodeScaling:
    """Scales drawn as exp(U(-log_range, log_range)) per hidden unit."""
    if log_range < 0:
        raise GraphError("random_rescaling: log_range must be >= 0")
    return NodeScaling(tuple(
        np.exp(rng.uniform(-log_range, log_range, size=h)) for h in layout.hidden_dims))


def apply_rescaling(layout: RnnLayout, p: np.ndarray, alpha: NodeScaling) -> np.ndarray:
    """Transform RNN parameters by a node-wise rescaling.

    Per hidden layer i with scales a^i: the first input matrix scales rows by
    a^1; deeper input matrices scale entries by a^i_j / a^(i-1)_k; recurrent
    matrices by a^i_j / a^i_k; the output matrix scales columns by
    1 / a^(d-1)_k.  Hidden biases scale with their unit's incoming weights;
    output biases are untouched.  The transformed net computes the same
    function for any input.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (layout.m,):
        raise GraphError(f"apply_rescaling: expected {layout.m} parameters, got {p.shape}")
    if len(alpha.layers) != len(layout.hidden_dims) or any(
            a.shape[0] != h for a, h in zip(alpha.layers, layout.hidden_dims)):
        raise GraphError("apply_rescaling: scaling shape does not match the hidden dims")

    out = p.copy()
    d = layout.depth
    for i in range(1, d):
        a_i = alpha.layer(i)
        sl, shape = layout.slices[f"in{i}"]
        W = out[sl].reshape(shape)
        if i == 1:
            W = a_i[:, None] * W
        else:
            W = (a_i[:, None] / alpha.layer(i - 1)[None, :]) * W
        out[sl] = W.reshape(-1)
        if f"rec{i}" in layout.slices:
            sl, shape = layout.slices[f"rec{i}"]
            W = out[sl].reshape(shape)
            out[sl] = ((a_i[:, None] / a_i[None, :]) * W).reshape(-1)
        if f"b{i}" in layout.slices:
            sl, shape = layout.slices[f"b{i}"]
            out[sl] = (a_i[:, None] * out[sl].reshape(shape)).reshape(-1)
    sl, shape = layout.slices["out"]
    W = out[sl].reshape(shape)
    out[sl] = (W / alpha.layer(d - 1)[None, :]).reshape(-1)
    return out


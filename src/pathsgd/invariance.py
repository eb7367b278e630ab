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
    """Positive per-unit scales for each hidden layer: layers[i - 1] holds
    the scales of hidden layer i, numbered as the weight matrices are."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers",
                           tuple(np.asarray(a, dtype=float) for a in self.layers))
        for a in self.layers:
            if a.ndim != 1 or not np.all(a > 0.0):
                raise GraphError("NodeScaling: scales must be positive 1-D arrays")


def random_rescaling(layout: RnnLayout, rng: np.random.Generator,
                     log_range: float) -> NodeScaling:
    """Scales drawn as exp(U(-log_range, log_range)) per hidden unit."""
    if log_range < 0:
        raise GraphError("random_rescaling: log_range must be >= 0")
    return NodeScaling(tuple(
        np.exp(rng.uniform(-log_range, log_range, size=h)) for h in layout.hidden_dims))


def apply_rescaling(layout: RnnLayout, p: np.ndarray, alpha: NodeScaling) -> np.ndarray:
    """Transform RNN parameters by a node-wise rescaling.

    Per hidden layer i with scales a^i, and a^0 = 1 at the inputs: input
    matrix i scales entry (j, k) by a^i_j / a^(i-1)_k, recurrent matrix i
    by a^i_j / a^i_k and hidden bias i by a^i_j; the output matrix scales
    column k by 1 / a^(d-1)_k and output biases are untouched.  The
    transformed net computes the same function for any input.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (layout.m,):
        raise GraphError(f"apply_rescaling: expected {layout.m} parameters, got {p.shape}")
    if len(alpha.layers) != len(layout.hidden_dims) or any(
            a.shape[0] != h for a, h in zip(alpha.layers, layout.hidden_dims)):
        raise GraphError("apply_rescaling: scaling shape does not match the hidden dims")

    out = p.copy()
    prev = np.ones(layout.input_dim)
    for i, a in enumerate(alpha.layers, 1):
        for name, scale in ((f"in{i}", a[:, None] / prev), (f"rec{i}", a[:, None] / a),
                            (f"b{i}", a[:, None])):
            block = layout.matrix(out, name)
            if block is not None:
                block *= scale
        prev = a
    top = layout.view(out, "out")
    top /= prev
    return out

"""Stacked ReLU RNNs: the model, RnnLayout (an MLP is the case T = 1).

RnnLayout holds the shape of an RNN unrolled through time and maps each
weight matrix to a slice of one flat parameter vector p, so the T
applications of a matrix entry all read the same parameter.  Training,
kappa and the oracles all run on it; the oracles address one unit at one
step by (layer, unit, time) and read its weights through param_index.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

class GraphError(ValueError):
    """Raised when a network violates a structural constraint."""


@dataclass(frozen=True)
class RnnLayout:
    """A stacked ReLU RNN unrolled for ``length`` steps, and the layout of
    its flat parameter vector.

    depth = number of weight layers = len(hidden_dims) + 1; a single-layer
    RNN (one hidden layer) has depth 2.  slices maps each weight matrix
    (and bias vector) to a contiguous slice of the parameter vector, in
    row-major [target_unit, source_unit] order, and m is the parameter
    count; both are computed from the shape, so dataclasses.replace
    recomputes them.  Block order per hidden layer i: W_in^i, W_rec^i
    (absent when length == 1), b^i (when bias is on); then W_out and
    b_out.  param_index gives the index of one matrix entry: the oracles
    read single weights through it, so matrix views of p and per-entry
    reads always agree.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    length: int
    bias: bool = False
    slices: dict[str, tuple[slice, tuple[int, int]]] = field(init=False, repr=False)
    m: int = field(init=False)

    def __post_init__(self):
        if not self.hidden_dims:
            raise GraphError("RnnLayout: depth must be >= 2 (at least one hidden layer)")
        for name in ("length", "input_dim", "output_dim", "hidden_dims"):
            value = getattr(self, name)
            for dim in value if name == "hidden_dims" else (value,):
                if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
                    raise GraphError(f"RnnLayout: {name} takes integers >= 1, got {value!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = self.dims
        slices: dict[str, tuple[slice, tuple[int, int]]] = {}
        off = 0

        def add(name: str, shape: tuple[int, int]):
            nonlocal off
            n = shape[0] * shape[1]
            slices[name] = (slice(off, off + n), shape)
            off += n

        for i in range(1, self.depth):
            add(f"in{i}", (dims[i], dims[i - 1]))
            if self.length >= 2:
                add(f"rec{i}", (dims[i], dims[i]))
            if self.bias:
                add(f"b{i}", (dims[i], 1))
        add("out", (self.output_dim, self.hidden_dims[-1]))
        if self.bias:
            add("bout", (self.output_dim, 1))
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "m", off)

    @property
    def depth(self) -> int:
        return len(self.hidden_dims) + 1

    @property
    def dims(self) -> tuple[int, ...]:
        """Widths of layers 0 (the input) .. depth - 1 (the top hidden layer)."""
        return (self.input_dim,) + self.hidden_dims

    def view(self, p: np.ndarray, name: str) -> np.ndarray:
        sl, shape = self.slices[name]
        return np.asarray(p)[sl].reshape(shape)

    def matrix(self, p: np.ndarray, name: str) -> np.ndarray | None:
        """Like view() but returns None for absent blocks (e.g. rec at T=1)."""
        if name not in self.slices:
            return None
        return self.view(p, name)

    def param_index(self, name: str, j: int, k: int) -> int:
        sl, shape = self.slices[name]
        return sl.start + j * shape[1] + k

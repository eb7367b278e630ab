"""Stacked ReLU RNNs: the model, RnnLayout (an MLP is the case T = 1).

RnnLayout holds the shape of an RNN unrolled through time and maps each
weight matrix to a slice of one flat parameter vector p, so the T
applications of a matrix entry all read the same parameter.  Training,
kappa and the oracles all run on it; the oracles address one unit at one
step by (layer, unit, time) and read its weights through param_index.

build_rnn unrolls a layout into the explicit DAG, SharedWeightNet, with
one node per unit and step and an edge -> parameter map.  No other module
of the package reads it; it stays only while perfbench/probe.py times it
through the cli module.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

BIAS_LAYER = -1  # layer coordinate reserved for the bias node


class GraphError(ValueError):
    """Raised when a network violates a structural constraint."""


@dataclass(frozen=True)
class NodeRec:
    """One DAG node with (layer, unit, time) coordinates.  Input, hidden
    and output nodes carry times 1..T; the bias node carries layer
    BIAS_LAYER and time 0.
    """

    idx: int
    kind: str
    layer: int
    unit: int
    time: int


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
    read single weights through it, and build_rnn assigns edge parameter
    indices from it, so matrix views of p and per-entry reads always agree.
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


class SharedWeightNet:
    """The unrolled DAG: nodes in a topological order, edges as (src, dst)
    pairs of node indices, and param_of_edge[e], the parameter index that
    edge e carries."""

    def __init__(self, nodes: list[NodeRec], edges: list[tuple[int, int]],
                 param_of_edge: list[int], num_params: int):
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.param_of_edge = list(param_of_edge)
        self.num_params = int(num_params)
        self.input_ids = [n.idx for n in self.nodes if n.kind == "input"]
        self.output_ids = [n.idx for n in self.nodes if n.kind == "output"]
        self._coord = {(n.layer, n.unit, n.time): n.idx for n in self.nodes}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def node_at(self, layer: int, unit: int, time: int = 0) -> int:
        """Node index from (layer, unit, time) coordinates."""
        return self._coord[(layer, unit, time)]


def build_rnn(layout: RnnLayout) -> SharedWeightNet:
    """Unroll an RNN layout into a shared-weight DAG.

    Hidden state at t=0 is the constant zero, modeled by omitting recurrent
    edges into the first time step.  Output nodes exist at every time step
    and apply no nonlinearity.  At length 1 no recurrent edge would exist, so
    no recurrent parameters are materialized (every parameter index must be
    used by at least one edge).
    """
    d, T, dims = layout.depth, layout.length, layout.dims

    nodes: list[NodeRec] = []

    def add_node(kind: str, layer: int, unit: int, time: int) -> int:
        idx = len(nodes)
        nodes.append(NodeRec(idx, kind, layer, unit, time))
        return idx

    if layout.bias:
        add_node("bias", BIAS_LAYER, 0, 0)
    for t in range(1, T + 1):
        for k in range(layout.input_dim):
            add_node("input", 0, k, t)
    for t in range(1, T + 1):
        for i in range(1, d):
            for j in range(dims[i]):
                add_node("internal", i, j, t)
    for t in range(1, T + 1):
        for j in range(layout.output_dim):
            add_node("output", d, j, t)

    coord = {(n.layer, n.unit, n.time): n.idx for n in nodes}
    edges: list[tuple[int, int]] = []
    pidx: list[int] = []

    def add_edge(u: int, v: int, pi: int):
        edges.append((u, v))
        pidx.append(pi)

    for t in range(1, T + 1):
        for i in range(1, d):
            for j in range(dims[i]):
                v = coord[(i, j, t)]
                for k in range(dims[i - 1]):
                    u = coord[(i - 1, k, t)]
                    add_edge(u, v, layout.param_index(f"in{i}", j, k))
                if t >= 2:
                    for k in range(dims[i]):
                        u = coord[(i, k, t - 1)]
                        add_edge(u, v, layout.param_index(f"rec{i}", j, k))
                if layout.bias:
                    add_edge(coord[(BIAS_LAYER, 0, 0)], v, layout.param_index(f"b{i}", j, 0))
        for j in range(layout.output_dim):
            v = coord[(d, j, t)]
            for k in range(dims[d - 1]):
                add_edge(coord[(d - 1, k, t)], v, layout.param_index("out", j, k))
            if layout.bias:
                add_edge(coord[(BIAS_LAYER, 0, 0)], v, layout.param_index("bout", j, 0))

    return SharedWeightNet(nodes, edges, pidx, layout.m)


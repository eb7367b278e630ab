"""Stacked ReLU RNNs: the shape (RnnSpec) and the model (RnnLayout).

RnnLayout maps each weight matrix of an RNN unrolled through time to a
slice of one flat parameter vector p, so the T applications of a matrix
entry all read the same parameter.  A feedforward MLP is the case T = 1.
Training, kappa and the oracles all run on RnnLayout; the oracles address
one unit at one step by (layer, unit, time) and read its weights through
param_index.

build_rnn unrolls a spec into the explicit DAG, SharedWeightNet, with one
node per unit and step and an edge -> parameter map.  No other module of
the package reads it; it stays only while perfbench/probe.py times it
through the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BIAS_LAYER = -1  # layer coordinate reserved for the bias node


class GraphError(ValueError):
    """Raised when a network or spec violates a structural constraint."""


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
class RnnSpec:
    """Shape of a stacked ReLU RNN before unrolling.

    depth = number of weight layers = len(hidden_dims) + 1; a single-layer
    RNN (one hidden layer) has depth 2.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    length: int
    bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    @property
    def depth(self) -> int:
        return len(self.hidden_dims) + 1

    def check(self) -> None:
        if self.depth < 2 or not self.hidden_dims:
            raise GraphError("RnnSpec: depth must be >= 2 (at least one hidden layer)")
        if self.length < 1:
            raise GraphError("RnnSpec: length must be >= 1")
        for name, dim in [("input_dim", self.input_dim), ("output_dim", self.output_dim)]:
            if dim < 1:
                raise GraphError(f"RnnSpec: {name} must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise GraphError("RnnSpec: hidden dims must be >= 1")


@dataclass(frozen=True)
class RnnLayout:
    """Flat-parameter layout of an unrolled RNN.

    Maps each weight matrix (and bias vector) to a contiguous slice of the
    parameter vector, in row-major [target_unit, source_unit] order.  Block
    order per hidden layer i: W_in^i, W_rec^i (absent when length == 1),
    b^i (when bias is on); then W_out and b_out.  param_index gives the
    index of one matrix entry: the oracles read single weights through it,
    and build_rnn assigns edge parameter indices from it, so matrix views
    of p and per-entry reads always agree.
    """

    spec: RnnSpec
    slices: dict[str, tuple[slice, tuple[int, int]]]
    m: int

    @classmethod
    def from_spec(cls, spec: RnnSpec) -> "RnnLayout":
        spec.check()
        dims = (spec.input_dim,) + spec.hidden_dims
        slices: dict[str, tuple[slice, tuple[int, int]]] = {}
        off = 0

        def add(name: str, shape: tuple[int, int]):
            nonlocal off
            n = shape[0] * shape[1]
            slices[name] = (slice(off, off + n), shape)
            off += n

        for i in range(1, spec.depth):
            add(f"in{i}", (dims[i], dims[i - 1]))
            if spec.length >= 2:
                add(f"rec{i}", (dims[i], dims[i]))
            if spec.bias:
                add(f"b{i}", (dims[i], 1))
        add("out", (spec.output_dim, spec.hidden_dims[-1]))
        if spec.bias:
            add("bout", (spec.output_dim, 1))
        return cls(spec=spec, slices=slices, m=off)

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


def build_rnn(spec: RnnSpec) -> SharedWeightNet:
    """Unroll an RNN spec into a shared-weight DAG.

    Hidden state at t=0 is the constant zero, modeled by omitting recurrent
    edges into the first time step.  Output nodes exist at every time step
    and apply no nonlinearity.  At length 1 no recurrent edge would exist, so
    no recurrent parameters are materialized (every parameter index must be
    used by at least one edge).
    """
    layout = RnnLayout.from_spec(spec)
    d, T = spec.depth, spec.length
    dims = (spec.input_dim,) + spec.hidden_dims

    nodes: list[NodeRec] = []

    def add_node(kind: str, layer: int, unit: int, time: int) -> int:
        idx = len(nodes)
        nodes.append(NodeRec(idx, kind, layer, unit, time))
        return idx

    if spec.bias:
        add_node("bias", BIAS_LAYER, 0, 0)
    for t in range(1, T + 1):
        for k in range(spec.input_dim):
            add_node("input", 0, k, t)
    for t in range(1, T + 1):
        for i in range(1, d):
            for j in range(dims[i]):
                add_node("internal", i, j, t)
    for t in range(1, T + 1):
        for j in range(spec.output_dim):
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
                if spec.bias:
                    add_edge(coord[(BIAS_LAYER, 0, 0)], v, layout.param_index(f"b{i}", j, 0))
        for j in range(spec.output_dim):
            v = coord[(d, j, t)]
            for k in range(dims[d - 1]):
                add_edge(coord[(d - 1, k, t)], v, layout.param_index("out", j, k))
            if spec.bias:
                add_edge(coord[(BIAS_LAYER, 0, 0)], v, layout.param_index("bout", j, 0))

    return SharedWeightNet(nodes, edges, pidx, layout.m)


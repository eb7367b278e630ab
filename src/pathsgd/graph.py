"""Stacked ReLU RNNs: the flat-parameter layout and the unrolled DAG.

An RNN is unrolled through time into a directed acyclic graph whose edge
weights are drawn from a flat parameter vector p through an edge ->
parameter-index map: the T copies of each weight matrix entry all map to
the same parameter index.  A feedforward MLP is the case T = 1, where every
parameter is used by exactly one edge.  Graphs are immutable after
construction.  Training runs on RnnLayout alone; the unrolled DAG serves the
oracles, which compare the layout route with per-edge computation on small
nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NODE_KINDS = ("input", "internal", "output", "bias")

BIAS_LAYER = -1  # layer coordinate reserved for the bias node


class GraphError(ValueError):
    """Raised when a network or spec violates a structural constraint."""


@dataclass(frozen=True)
class NodeRec:
    """One graph node with (layer, unit, time) coordinates.

    Coordinates let the rescaling machinery tie scalings of the same hidden
    unit across all unrolled time steps.  Input, hidden and output nodes
    carry times 1..T; the bias node carries time 0.
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
    b^i (when bias is on); then W_out and b_out.  The graph builder assigns
    edge parameter indices from this same layout, so matrix views of p and
    the explicit edge map always agree.
    """

    spec: RnnSpec
    slices: dict[str, tuple[slice, tuple[int, int]]]
    m: int

    @property
    def has_recurrent(self) -> bool:
        return self.spec.length >= 2

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

    def pack(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        """Assemble a parameter vector from per-block matrices."""
        p = np.zeros(self.m)
        for name, (sl, shape) in self.slices.items():
            b = np.asarray(blocks[name], dtype=float)
            if b.shape != shape:
                raise GraphError(f"block {name}: expected shape {shape}, got {b.shape}")
            p[sl] = b.reshape(-1)
        return p

    def param_index(self, name: str, j: int, k: int) -> int:
        sl, shape = self.slices[name]
        return sl.start + j * shape[1] + k


class SharedWeightNet:
    """DAG with an edge -> parameter-index map.

    nodes are stored in a valid topological order; edges are (src, dst) pairs
    of node indices; param_of_edge[e] gives the 0-based parameter index of
    edge e.  Nets built by build_rnn additionally carry their RnnLayout in
    .rnn, so oracles can run the layout route on the same parameters.
    """

    def __init__(self, nodes: list[NodeRec], edges: list[tuple[int, int]],
                 param_of_edge: list[int], num_params: int,
                 rnn: RnnLayout | None = None):
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.param_of_edge = list(param_of_edge)
        self.num_params = int(num_params)
        self.rnn = rnn
        self._index()

    def _index(self) -> None:
        self.input_ids = [n.idx for n in self.nodes if n.kind == "input"]
        self.output_ids = [n.idx for n in self.nodes if n.kind == "output"]
        self.bias_id = next((n.idx for n in self.nodes if n.kind == "bias"), None)
        # incoming[v] = [(u, param_idx), ...] in edge order
        self.incoming: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        self.outgoing: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for (u, v), pi in zip(self.edges, self.param_of_edge):
            self.incoming[v].append((u, pi))
            self.outgoing[u].append((v, pi))
        self._param_edges: list[list[int]] = [[] for _ in range(self.num_params)]
        for e, pi in enumerate(self.param_of_edge):
            if 0 <= pi < self.num_params:
                self._param_edges[pi].append(e)
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

    return SharedWeightNet(nodes, edges, pidx, layout.m, rnn=layout)


def edges_for_param(net: SharedWeightNet, i: int) -> set[tuple[int, int]]:
    """The set of edges sharing parameter i (0-based).

    Over all i these sets partition the edge set.
    """
    if not 0 <= i < net.num_params:
        raise GraphError(f"parameter index {i} out of range [0, {net.num_params})")
    return {net.edges[e] for e in net._param_edges[i]}


def _topo_sort(num_nodes: int, edges: list[tuple[int, int]]) -> list[int] | None:
    """Kahn's algorithm; None if the edge relation has a cycle."""
    indeg = [0] * num_nodes
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        indeg[v] += 1
        adj[u].append(v)
    frontier = [v for v in range(num_nodes) if indeg[v] == 0]
    order = []
    while frontier:
        u = frontier.pop()
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(v)
    return order if len(order) == num_nodes else None


def validate(net: SharedWeightNet) -> str | None:
    """Check all structural invariants; return None if ok, else the name of
    the first violated invariant (with detail)."""
    n = net.num_nodes
    for u, v in net.edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"node index range: edge ({u}, {v}) outside [0, {n})"
    if _topo_sort(n, net.edges) is None:
        return "acyclicity: edge relation has a cycle"
    for u, v in net.edges:
        if u >= v:
            return f"topological order: edge ({u}, {v}) not ascending in stored node order"
    for node in net.nodes:
        if node.kind not in NODE_KINDS:
            return f"node kind: {node.kind!r}"
    if not net.input_ids:
        return "boundary nodes: no input nodes"
    if not net.output_ids:
        return "boundary nodes: no output nodes"
    for node in net.nodes:
        if node.kind in ("input", "bias") and net.incoming[node.idx]:
            return f"boundary edges: {node.kind} node {node.idx} has incoming edges"
        if node.kind == "output" and net.outgoing[node.idx]:
            return f"boundary edges: output node {node.idx} has outgoing edges"
    for e, pi in enumerate(net.param_of_edge):
        if not 0 <= pi < net.num_params:
            return f"param index range: edge {e} maps to {pi}, valid range [0, {net.num_params})"
    used = set(net.param_of_edge)
    for i in range(net.num_params):
        if i not in used:
            return f"param index coverage: parameter {i} used by no edge"
    return None


import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from pathsgd import graph
from pathsgd.graph import RnnLayout, build_rnn

SRC = Path(graph.__file__).parent


def test_single_unit_t2_counts():
    net = build_rnn(RnnLayout(1, (1,), 1, 2))
    assert net.num_params == 3
    assert len(net.input_ids) == 2
    assert sum(1 for n in net.nodes if n.kind == "internal") == 2
    assert len(net.output_ids) == 2
    assert net.num_edges == 5
    # the two input edges share one parameter index
    assert net.param_of_edge.count(0) == 2


def test_t1_has_no_recurrent_parameter():
    net = build_rnn(RnnLayout(1, (1,), 1, 1))
    assert net.num_params == 2
    assert sorted(net.param_of_edge) == [0, 1]


def test_param_count_depth3():
    net = build_rnn(RnnLayout(2, (3, 3), 2, 4))
    assert net.num_params == 6 + 9 + 9 + 9 + 6 == 39


def test_edge_count_formula():
    for layout in [RnnLayout(2, (3,), 2, 4), RnnLayout(1, (2, 2), 1, 3, bias=True),
                   RnnLayout(3, (4,), 1, 1)]:
        net = build_rnn(layout)
        T = layout.length
        dims = layout.dims
        expect = 0
        for i in range(1, layout.depth):
            expect += T * dims[i] * dims[i - 1]
            expect += (T - 1) * dims[i] * dims[i]
            if layout.bias:
                expect += T * dims[i]
        expect += T * layout.output_dim * layout.hidden_dims[-1]
        if layout.bias:
            expect += T * layout.output_dim
        assert net.num_edges == expect


def test_invalid_specs_rejected():
    for args in [(1, (), 1, 2), (0, (1,), 1, 2), (1, (1,), 0, 2), (1, (1,), 1, 0),
                 (1, (1, 0), 1, 2)]:
        with pytest.raises(graph.GraphError):
            RnnLayout(*args)


def test_replace_recomputes_slices():
    """dataclasses.replace re-runs the shape check and the slice layout: at
    length 1 the rec{i} blocks go and m shrinks by their size."""
    layout = RnnLayout(2, (3, 2), 1, 4, bias=True)
    flat = dataclasses.replace(layout, length=1)
    assert [n for n in layout.slices if n.startswith("rec")] == ["rec1", "rec2"]
    assert not [n for n in flat.slices if n.startswith("rec")]
    assert (layout.m, flat.m) == (33, 33 - 9 - 4)
    # the blocks close up: out follows in1 (3x2), b1, in2 (2x3) and b2
    assert flat.param_index("out", 0, 0) == 6 + 3 + 6 + 2
    with pytest.raises(graph.GraphError):
        dataclasses.replace(layout, length=0)


def test_feedforward_one_to_one():
    """An MLP is the RNN at T = 1: no recurrent block, one edge per parameter."""
    assert build_rnn(RnnLayout(2, (3,), 1, 1)).num_params == 9
    assert build_rnn(RnnLayout(1, (1,), 1, 1)).num_params == 2
    layout = RnnLayout(4, (4, 4), 4, 1)
    net = build_rnn(layout)
    assert net.num_params == 48 and "rec1" not in layout.slices
    assert sorted(net.param_of_edge) == list(range(net.num_params))


def test_edges_for_param_partitions_edges():
    """Each edge carries one parameter index in range, and every index is
    carried by at least one edge."""
    for net in [build_rnn(RnnLayout(2, (2,), 1, 3, bias=True)),
                build_rnn(RnnLayout(2, (2,), 2, 1))]:
        assert len(net.param_of_edge) == net.num_edges
        assert sorted(set(net.param_of_edge)) == list(range(net.num_params))


def test_recurrent_edge_sets():
    # T=3: the recurrent parameter is carried by h1->h2 and h2->h3
    layout = RnnLayout(1, (1,), 1, 3)
    net = build_rnn(layout)
    rec_idx = layout.param_index("rec1", 0, 0)
    es = [e for e, pi in zip(net.edges, net.param_of_edge) if pi == rec_idx]
    assert len(es) == 2
    times = sorted(net.nodes[u].time for u, _ in es)
    assert times == [1, 2]
    for u, v in es:
        assert net.nodes[u].kind == net.nodes[v].kind == "internal"
    # T=2: the input parameter is carried by x1->h1 and x2->h2
    net = build_rnn(RnnLayout(1, (1,), 1, 2))
    es_in = [e for e, pi in zip(net.edges, net.param_of_edge) if pi == 0]
    assert len(es_in) == 2
    assert all(net.nodes[u].kind == "input" for u, _ in es_in)


def test_validate_passes_on_builders(rng):
    """build_rnn stores its nodes in a topological order (every edge
    ascends), and no edge enters an input or the bias or leaves an
    output."""
    for _ in range(10):
        layout = RnnLayout(int(rng.integers(1, 3)),
                           tuple(int(rng.integers(1, 4))
                                 for _ in range(int(rng.integers(1, 3)))),
                           int(rng.integers(1, 3)),
                           int(rng.integers(1, 5)),
                           bias=bool(rng.integers(0, 2)))
        net = build_rnn(layout)
        kinds = [n.kind for n in net.nodes]
        for u, v in net.edges:
            assert u < v and kinds[u] != "output" and kinds[v] not in ("input", "bias")


def test_layout_matches_edge_map(rng):
    """The matrix views of p and the per-edge weights must be one structure."""
    layout = RnnLayout(2, (3,), 2, 3, bias=True)
    net = build_rnn(layout)
    p = rng.standard_normal(net.num_params)
    W_in = layout.view(p, "in1")
    for (u, v), pi in zip(net.edges, net.param_of_edge):
        nu, nv = net.nodes[u], net.nodes[v]
        if nu.kind == "input" and nv.layer == 1:
            assert p[pi] == W_in[nv.unit, nu.unit]


def test_layout_pack_view_roundtrip(rng):
    layout = RnnLayout(2, (3, 2), 1, 4, bias=True)
    p = rng.standard_normal(layout.m)
    blocks = [layout.view(p, name).reshape(-1) for name in layout.slices]
    assert np.array_equal(np.concatenate(blocks), p)
    assert layout.matrix(p, "nope") is None


def test_node_coordinates_tie_time_steps():
    net = build_rnn(RnnLayout(1, (2,), 1, 3))
    for t in (1, 2, 3):
        idx = net.node_at(1, 0, t)
        assert net.nodes[idx].unit == 0 and net.nodes[idx].time == t


def test_only_graph_names_the_dag():
    """The DAG is read by no module but graph; cli keeps one name for it
    because perfbench/probe.py times the builder as cli.build_rnn."""
    names = re.compile(r"\b(SharedWeightNet|build_rnn)\b")
    found = {f"{path.name}: {line.strip()}"
             for path in SRC.glob("*.py") if path.name != "graph.py"
             for line in path.read_text().splitlines() if names.search(line)}
    assert found == {"cli.py: build_rnn = graph.build_rnn"}

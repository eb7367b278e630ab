import numpy as np
import pytest

from pathsgd import graph
from pathsgd.graph import RnnLayout, RnnSpec, build_rnn


def test_single_unit_t2_counts(single_unit_t2):
    net = single_unit_t2
    assert net.num_params == 3
    assert len(net.input_ids) == 2
    assert sum(1 for n in net.nodes if n.kind == "internal") == 2
    assert len(net.output_ids) == 2
    assert net.num_edges == 5
    # the two input edges share one parameter index
    assert len(graph.edges_for_param(net, 0)) == 2


def test_t1_has_no_recurrent_parameter():
    net = build_rnn(RnnSpec(1, (1,), 1, 1))
    assert net.num_params == 2
    assert graph.validate(net) is None


def test_param_count_depth3():
    net = build_rnn(RnnSpec(2, (3, 3), 2, 4))
    assert net.num_params == 6 + 9 + 9 + 9 + 6 == 39


def test_edge_count_formula():
    for spec in [RnnSpec(2, (3,), 2, 4), RnnSpec(1, (2, 2), 1, 3, bias=True),
                 RnnSpec(3, (4,), 1, 1)]:
        net = build_rnn(spec)
        T = spec.length
        dims = (spec.input_dim,) + spec.hidden_dims
        expect = 0
        for i in range(1, spec.depth):
            expect += T * dims[i] * dims[i - 1]
            expect += (T - 1) * dims[i] * dims[i]
            if spec.bias:
                expect += T * dims[i]
        expect += T * spec.output_dim * spec.hidden_dims[-1]
        if spec.bias:
            expect += T * spec.output_dim
        assert net.num_edges == expect


def test_invalid_specs_rejected():
    with pytest.raises(graph.GraphError):
        build_rnn(RnnSpec(1, (), 1, 2))
    with pytest.raises(graph.GraphError):
        build_rnn(RnnSpec(0, (1,), 1, 2))
    with pytest.raises(graph.GraphError):
        build_rnn(RnnSpec(1, (1,), 1, 0))
    with pytest.raises(graph.GraphError):
        build_rnn(RnnSpec(1, (1, 0), 1, 2))


def test_feedforward_one_to_one():
    """An MLP is the RNN at T = 1: no recurrent block, one edge per parameter."""
    assert build_rnn(RnnSpec(2, (3,), 1, 1)).num_params == 9
    assert build_rnn(RnnSpec(1, (1,), 1, 1)).num_params == 2
    net = build_rnn(RnnSpec(4, (4, 4), 4, 1))
    assert net.num_params == 48 and not net.rnn.has_recurrent
    assert net.num_edges == net.num_params
    for i in range(net.num_params):
        assert len(graph.edges_for_param(net, i)) == 1


def test_edges_for_param_partitions_edges(rng):
    for net in [build_rnn(RnnSpec(2, (2,), 1, 3, bias=True)),
                build_rnn(RnnSpec(2, (2,), 2, 1))]:
        seen = set()
        total = 0
        for i in range(net.num_params):
            es = graph.edges_for_param(net, i)
            assert es, "every parameter must be used by at least one edge"
            assert not (seen & es)
            seen |= es
            total += len(es)
        assert total == net.num_edges
    with pytest.raises(graph.GraphError):
        graph.edges_for_param(net, net.num_params)
    with pytest.raises(graph.GraphError):
        graph.edges_for_param(net, -1)


def test_recurrent_edge_sets(single_unit_t2, single_unit_t3):
    # T=3: the recurrent parameter is carried by h1->h2 and h2->h3
    net = single_unit_t3
    rec_idx = net.rnn.param_index("rec1", 0, 0)
    es = graph.edges_for_param(net, rec_idx)
    assert len(es) == 2
    times = sorted(net.nodes[u].time for u, _ in es)
    assert times == [1, 2]
    for u, v in es:
        assert net.nodes[u].kind == net.nodes[v].kind == "internal"
    # T=2: the input parameter is carried by x1->h1 and x2->h2
    es_in = graph.edges_for_param(single_unit_t2, 0)
    assert len(es_in) == 2
    assert all(single_unit_t2.nodes[u].kind == "input" for u, _ in es_in)


def test_validate_passes_on_builders(rng):
    for _ in range(10):
        spec = RnnSpec(int(rng.integers(1, 3)),
                       tuple(int(rng.integers(1, 4))
                             for _ in range(int(rng.integers(1, 3)))),
                       int(rng.integers(1, 3)),
                       int(rng.integers(1, 5)),
                       bias=bool(rng.integers(0, 2)))
        assert graph.validate(build_rnn(spec)) is None


def test_validate_names_violations(single_unit_t2):
    net = single_unit_t2
    cyclic = graph.SharedWeightNet(net.nodes, net.edges + [(5, 2)],
                                   net.param_of_edge + [0], net.num_params)
    assert "acyclicity" in graph.validate(cyclic)

    bad_pi = graph.SharedWeightNet(net.nodes, net.edges,
                                   [-1] + net.param_of_edge[1:], net.num_params)
    assert "param index range" in graph.validate(bad_pi)

    unused = graph.SharedWeightNet(net.nodes, net.edges, net.param_of_edge, 4)
    assert "param index coverage" in graph.validate(unused)


def test_layout_matches_edge_map(rng):
    """The matrix views of p and the per-edge weights must be one structure."""
    spec = RnnSpec(2, (3,), 2, 3, bias=True)
    net = build_rnn(spec)
    p = rng.standard_normal(net.num_params)
    layout = net.rnn
    W_in = layout.view(p, "in1")
    for (u, v), pi in zip(net.edges, net.param_of_edge):
        nu, nv = net.nodes[u], net.nodes[v]
        if nu.kind == "input" and nv.layer == 1:
            assert p[pi] == W_in[nv.unit, nu.unit]


def test_layout_pack_view_roundtrip(rng):
    layout = RnnLayout.from_spec(RnnSpec(2, (3, 2), 1, 4, bias=True))
    p = rng.standard_normal(layout.m)
    blocks = {name: layout.view(p, name) for name in layout.slices}
    assert np.array_equal(layout.pack(blocks), p)
    assert layout.matrix(p, "nope") is None


def test_node_coordinates_tie_time_steps():
    net = build_rnn(RnnSpec(1, (2,), 1, 3))
    for t in (1, 2, 3):
        idx = net.node_at(1, 0, t)
        assert net.nodes[idx].unit == 0 and net.nodes[idx].time == t

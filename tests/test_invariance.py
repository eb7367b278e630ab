import numpy as np
import pytest

from pathsgd import compute, invariance, pathnorm, verify
from pathsgd.graph import GraphError, RnnSpec, build_rnn
from pathsgd.invariance import NodeScaling, apply_rescaling, edge_multipliers


def test_single_unit_alpha_two(single_unit_t2):
    """Scaling the one hidden unit by 2 doubles the input weight, leaves the
    recurrent weight alone and halves the output weight."""
    spec = RnnSpec(1, (1,), 1, 2)
    alpha = NodeScaling((np.array([2.0]),))
    q = apply_rescaling(spec, np.ones(3), alpha)
    assert np.allclose(q, [2.0, 1.0, 0.5], rtol=1e-15)


def test_rescaling_preserves_function(rng):
    for _ in range(10):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        p = verify.random_params(net.rnn, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, len(net.input_ids))
            ya, _ = compute.forward(net, p, x)
            yb, _ = compute.forward(net, q, x)
            assert np.allclose(ya, yb, rtol=1e-10, atol=1e-12)


def test_rescaling_preserves_gamma(rng):
    for _ in range(10):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        p = verify.random_params(net.rnn, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        ga = pathnorm.gamma_recursive(net, p)
        gb = pathnorm.gamma_recursive(net, q)
        assert abs(ga - gb) <= 1e-10 * max(1.0, abs(ga))


def test_group_structure(rng):
    spec = RnnSpec(2, (3, 2), 1, 3)
    net = build_rnn(spec)
    p = verify.random_params(net.rnn, rng)
    a = invariance.random_rescaling(spec, rng, 1.0)
    b = invariance.random_rescaling(spec, rng, 1.0)

    ident = NodeScaling.identity(spec)
    assert np.array_equal(apply_rescaling(spec, p, ident), p)

    both = apply_rescaling(spec, apply_rescaling(spec, p, a), b)
    assert np.allclose(both, apply_rescaling(spec, p, a.compose(b)), rtol=1e-12)

    undone = apply_rescaling(spec, apply_rescaling(spec, p, a), a.inverse())
    assert np.allclose(undone, p, rtol=1e-12)


def test_log_range_zero_is_identity(rng):
    spec = RnnSpec(1, (2,), 1, 2)
    alpha = invariance.random_rescaling(spec, rng, 0.0)
    for a in alpha.layers:
        assert np.array_equal(a, np.ones_like(a))


def test_apply_matches_edge_multipliers(rng):
    """The three matrix-level formulas agree with the generic node form
    scale(v) / scale(u) on every edge."""
    for _ in range(6):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        p = verify.random_params(net.rnn, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        mult = edge_multipliers(net, alpha)
        for i in range(net.num_params):
            for e in net._param_edges[i]:
                assert np.isclose(q[i], p[i] * mult[e], rtol=1e-12, atol=1e-15)


def test_node_scalings_are_feasible(rng):
    for _ in range(6):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        assert invariance.is_feasible(net, edge_multipliers(net, alpha))


def test_untied_scaling_is_infeasible(single_unit_t2):
    """Scaling the hidden unit at t=1 only gives the shared input weight two
    different multipliers, which no shared-weight net can absorb."""
    net = single_unit_t2
    beta = np.ones(net.num_nodes)
    for nd in net.nodes:
        if nd.kind == "internal" and nd.time == 1:
            beta[nd.idx] = 2.0
    mult = np.array([beta[v] / beta[u] for u, v in net.edges])
    assert not invariance.is_feasible(net, mult)


def test_feedforward_any_node_scaling_feasible(rng):
    net = build_rnn(RnnSpec(2, (3,), 2, 1))
    beta = np.ones(net.num_nodes)
    for nd in net.nodes:
        if nd.kind == "internal":
            beta[nd.idx] = rng.uniform(0.5, 2.0)
    mult = np.array([beta[v] / beta[u] for u, v in net.edges])
    assert invariance.is_feasible(net, mult)


def test_error_cases():
    spec = RnnSpec(1, (2,), 1, 2)
    with pytest.raises(GraphError):
        NodeScaling((np.array([1.0, -1.0]),))
    with pytest.raises(GraphError):
        apply_rescaling(spec, np.ones(8), NodeScaling((np.array([2.0, 1.0, 3.0]),)))
    with pytest.raises(GraphError):
        apply_rescaling(spec, np.ones(2), NodeScaling((np.ones(2),)))
    with pytest.raises(GraphError):
        invariance.random_rescaling(spec, np.random.default_rng(0), -1.0)
    net = build_rnn(spec)
    with pytest.raises(GraphError):
        invariance.is_feasible(net, np.ones(3))

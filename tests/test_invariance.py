import numpy as np
import pytest

from pathsgd import compute, invariance, pathnorm, verify
from pathsgd.graph import GraphError, RnnLayout, RnnSpec
from pathsgd.invariance import NodeScaling, apply_rescaling


def test_single_unit_alpha_two():
    """Scaling the one hidden unit by 2 doubles the input weight, leaves the
    recurrent weight alone and halves the output weight."""
    spec = RnnSpec(1, (1,), 1, 2)
    alpha = NodeScaling((np.array([2.0]),))
    q = apply_rescaling(spec, np.ones(3), alpha)
    assert np.allclose(q, [2.0, 1.0, 0.5], rtol=1e-15)


def test_rescaling_preserves_function(rng):
    for _ in range(10):
        spec = verify.random_spec(rng)
        layout = RnnLayout.from_spec(spec)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        X = rng.uniform(-1.0, 1.0, (3, spec.length, spec.input_dim))
        ya = compute.rnn_forward(layout, p, X).y
        yb = compute.rnn_forward(layout, q, X).y
        assert np.allclose(ya, yb, rtol=1e-10, atol=1e-12)


def test_rescaling_preserves_gamma(rng):
    for _ in range(10):
        spec = verify.random_spec(rng)
        layout = RnnLayout.from_spec(spec)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        ga = pathnorm.gamma_recursive(layout, p)
        gb = pathnorm.gamma_recursive(layout, q)
        assert abs(ga - gb) <= 1e-10 * max(1.0, abs(ga))


def test_group_structure(rng):
    spec = RnnSpec(2, (3, 2), 1, 3)
    p = verify.random_params(RnnLayout.from_spec(spec), rng)
    a = invariance.random_rescaling(spec, rng, 1.0)
    b = invariance.random_rescaling(spec, rng, 1.0)

    ident = NodeScaling(tuple(np.ones(h) for h in spec.hidden_dims))
    assert np.array_equal(apply_rescaling(spec, p, ident), p)

    both = apply_rescaling(spec, apply_rescaling(spec, p, a), b)
    composed = NodeScaling(tuple(x * y for x, y in zip(a.layers, b.layers)))
    assert np.allclose(both, apply_rescaling(spec, p, composed), rtol=1e-12)

    inverse = NodeScaling(tuple(1.0 / x for x in a.layers))
    undone = apply_rescaling(spec, apply_rescaling(spec, p, a), inverse)
    assert np.allclose(undone, p, rtol=1e-12)


def test_log_range_zero_is_identity(rng):
    spec = RnnSpec(1, (2,), 1, 2)
    alpha = invariance.random_rescaling(spec, rng, 0.0)
    for a in alpha.layers:
        assert np.array_equal(a, np.ones_like(a))


def _multipliers(layout, alpha):
    """Each parameter's factor under the rescaling in node form: the scale
    of the unit its weight enters over the scale of the unit it leaves.
    Only hidden units scale; inputs, outputs and the bias keep scale 1."""
    hidden = range(1, layout.spec.depth)

    def scale(layer, unit):
        return alpha.layer(layer)[unit] if layer in hidden else 1.0

    # (layer of the target unit, layer of the source unit) per block; the
    # outputs sit at layer depth, and the bias at None
    ends = {"out": (len(hidden) + 1, len(hidden)), "bout": (len(hidden) + 1, None)}
    for i in hidden:
        ends.update({f"in{i}": (i, i - 1), f"rec{i}": (i, i), f"b{i}": (i, None)})
    mult = np.empty(layout.m)
    for name, (_, (rows, cols)) in layout.slices.items():
        dst, src = ends[name]
        for j in range(rows):
            for k in range(cols):
                mult[layout.param_index(name, j, k)] = scale(dst, j) / scale(src, k)
    return mult


def test_apply_matches_edge_multipliers(rng):
    """The matrix-level formulas of apply_rescaling agree with the node form
    target scale / source scale on every parameter, built entry by entry
    through param_index."""
    for _ in range(6):
        spec = verify.random_spec(rng)
        layout = RnnLayout.from_spec(spec)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(spec, rng, 1.0)
        q = apply_rescaling(spec, p, alpha)
        assert np.allclose(q, p * _multipliers(layout, alpha), rtol=1e-12, atol=1e-15)


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

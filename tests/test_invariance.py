import math

import numpy as np
import pytest

from pathsgd import compute, invariance, optim, pathnorm, tasks, verify
from pathsgd.config import RunConfig
from pathsgd.graph import GraphError, RnnLayout
from pathsgd.invariance import NodeScaling, apply_rescaling


def test_single_unit_alpha_two():
    """Scaling the one hidden unit by 2 doubles the input weight, leaves the
    recurrent weight alone and halves the output weight."""
    layout = RnnLayout(1, (1,), 1, 2)
    alpha = NodeScaling((np.array([2.0]),))
    q = apply_rescaling(layout, np.ones(3), alpha)
    assert np.allclose(q, [2.0, 1.0, 0.5], rtol=1e-15)


def test_rescaling_preserves_function(rng):
    for _ in range(10):
        layout = verify.random_layout(rng)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(layout, rng, 1.0)
        q = apply_rescaling(layout, p, alpha)
        X = rng.uniform(-1.0, 1.0, (3, layout.length, layout.input_dim))
        ya = compute.rnn_forward(layout, p, X).y
        yb = compute.rnn_forward(layout, q, X).y
        assert np.allclose(ya, yb, rtol=1e-10, atol=1e-12)


def test_rescaling_preserves_gamma(rng):
    for _ in range(10):
        layout = verify.random_layout(rng)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(layout, rng, 1.0)
        q = apply_rescaling(layout, p, alpha)
        ga = pathnorm.gamma_recursive(layout, p)
        gb = pathnorm.gamma_recursive(layout, q)
        assert abs(ga - gb) <= 1e-10 * max(1.0, abs(ga))


def test_group_structure(rng):
    layout = RnnLayout(2, (3, 2), 1, 3)
    p = verify.random_params(layout, rng)
    a = invariance.random_rescaling(layout, rng, 1.0)
    b = invariance.random_rescaling(layout, rng, 1.0)

    ident = NodeScaling(tuple(np.ones(h) for h in layout.hidden_dims))
    assert np.array_equal(apply_rescaling(layout, p, ident), p)

    both = apply_rescaling(layout, apply_rescaling(layout, p, a), b)
    composed = NodeScaling(tuple(x * y for x, y in zip(a.layers, b.layers)))
    assert np.allclose(both, apply_rescaling(layout, p, composed), rtol=1e-12)

    inverse = NodeScaling(tuple(1.0 / x for x in a.layers))
    undone = apply_rescaling(layout, apply_rescaling(layout, p, a), inverse)
    assert np.allclose(undone, p, rtol=1e-12)


def test_log_range_zero_is_identity(rng):
    layout = RnnLayout(1, (2,), 1, 2)
    alpha = invariance.random_rescaling(layout, rng, 0.0)
    for a in alpha.layers:
        assert np.array_equal(a, np.ones_like(a))


def _multipliers(layout, alpha):
    """Each parameter's factor under the rescaling in node form: the scale
    of the unit its weight enters over the scale of the unit it leaves.
    Only hidden units scale; inputs, outputs and the bias keep scale 1."""
    hidden = range(1, layout.depth)

    def scale(layer, unit):
        return alpha.layers[layer - 1][unit] if layer in hidden else 1.0

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
        layout = verify.random_layout(rng)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(layout, rng, 1.0)
        q = apply_rescaling(layout, p, alpha)
        assert np.allclose(q, p * _multipliers(layout, alpha), rtol=1e-12, atol=1e-15)


def test_path_sgd_invariance_holds_over_500_steps():
    """Path-SGD at acceptance criterion 8's shape (addition, T = 40, H = 32,
    +-0.3 init, eta 1e-2, seed 15) from the plain init and from that init
    node-rescaled by scales in exp(U(-ln 16, ln 16)) gives the same
    held-out predictions at every eval of a 500-step run, one every 25
    steps, up to rounding.  The two runs' largest gap over the 21 evals
    measured 2.0e-15 (seeds 0-3: 3.2e-15, 2.7e-15, 8.7e-15, 4.3e-15); the
    tolerance is 1e-12.  This carries verify's 3-step path-sgd-invariance
    property to a training run's length, where rounding could build up."""
    T, seed = 40, 15
    task = tasks.AdditionTask(length=T, eval_size=1024, eval_seed=1)
    layout = RnnLayout(2, (32,), 1, T)
    held = [X for X, _ in task.held_out(compute.row_chunk(layout))]

    def run(p0):
        predictions = []

        def on_eval(row, p, opt):
            predictions.append(np.concatenate([
                compute.rnn_forward(layout, p, X, keep_trace=False, first_output=T - 1).y
                for X in held]))

        optim.train_loop(layout, task, RunConfig(steps=500, eval_interval=25, seed=seed), p0,
                         optim.OptimizerState(kind="path_sgd", eta=1e-2), on_eval=on_eval)
        return predictions

    p = optim.init_uniform(layout, optim.rng_for(seed, optim.STREAM_INIT), 0.3)
    alpha = invariance.random_rescaling(layout, np.random.default_rng(100 + seed), math.log(16))
    q = apply_rescaling(layout, p, alpha)
    assert np.max(np.abs(np.log(np.abs(q / p)))) > math.log(16)
    plain, rescaled = run(p), run(q)
    assert len(plain) == 21
    for a, b in zip(plain, rescaled):
        assert np.max(np.abs(a - b)) < 1e-12


def test_error_cases():
    layout = RnnLayout(1, (2,), 1, 2)
    with pytest.raises(GraphError):
        NodeScaling((np.array([1.0, -1.0]),))
    with pytest.raises(GraphError):
        apply_rescaling(layout, np.ones(8), NodeScaling((np.array([2.0, 1.0, 3.0]),)))
    with pytest.raises(GraphError):
        apply_rescaling(layout, np.ones(2), NodeScaling((np.ones(2),)))
    with pytest.raises(GraphError):
        invariance.random_rescaling(layout, np.random.default_rng(0), -1.0)

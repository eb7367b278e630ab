import numpy as np
import pytest

from pathsgd import compute, graph, verify
from pathsgd.graph import RnnSpec, build_rnn


def test_forward_hand_unrolled(single_unit_t2):
    p = np.ones(3)
    y, tr = compute.forward(single_unit_t2, p, [0.5, 0.25])
    assert np.allclose(y, [0.5, 0.75], atol=0)
    assert y[1] == 0.25 + 0.5  # h2 = relu(w_in x2 + w_rec h1)


def test_forward_zero_params(single_unit_t2, rng):
    y, _ = compute.forward(single_unit_t2, np.zeros(3), rng.standard_normal(2))
    assert np.all(y == 0.0)


def test_forward_relu_clips(single_unit_t2):
    y, _ = compute.forward(single_unit_t2, np.ones(3), [-1.0, -1.0])
    assert np.all(y == 0.0)


def test_forward_shape_and_finite_checks(single_unit_t2):
    with pytest.raises(compute.ComputeError):
        compute.forward(single_unit_t2, np.ones(3), [1.0])
    with pytest.raises(compute.ComputeError):
        compute.forward(single_unit_t2, np.array([1.0, np.nan, 1.0]), [1.0, 1.0])
    with pytest.raises(compute.ComputeError):
        compute.forward(single_unit_t2, np.ones(3), [1.0, 1.0], activation="softplus")


def test_forward_deterministic(single_unit_t3, rng):
    p = rng.standard_normal(3)
    x = rng.standard_normal(3)
    y1, _ = compute.forward(single_unit_t3, p, x)
    y2, _ = compute.forward(single_unit_t3, p, x)
    assert np.array_equal(y1, y2)


def test_loss_values():
    assert compute.loss([0.75], [0.75]) == 0.0
    assert compute.loss([1.0], [0.0]) == 1.0
    assert compute.loss([1.0, 3.0], [0.0, 1.0]) == 2.5
    with pytest.raises(compute.ComputeError):
        compute.loss([1.0, 2.0], [1.0])


def test_grad_zero_at_optimum(single_unit_t2):
    batch = [([0.5, 0.25], [0.5, 0.75])]
    g = compute.grad(single_unit_t2, np.ones(3), batch)
    assert np.all(g == 0.0)


def test_grad_single_edge():
    """1-1-1 MLP, p = (w_in, w_out) = (1, 1), x = 1, target 0: loss (w_out
    w_in x)^2 has gradient (2 w_out x y, 2 w_in x y) = (2, 2)."""
    net = build_rnn(RnnSpec(1, (1,), 1, 1))
    g = compute.grad(net, np.array([1.0, 1.0]), [([1.0], [0.0])])
    assert np.allclose(g, [2.0, 2.0], rtol=1e-12)


def test_grad_matches_finite_differences(rng):
    for _ in range(10):
        net = verify.random_net(rng)
        batch = [(rng.standard_normal(len(net.input_ids)),
                  rng.standard_normal(len(net.output_ids))) for _ in range(2)]
        p = verify.sample_kink_free(net, rng, batch)
        g = compute.grad(net, p, batch)
        g_fd = compute.finite_diff_grad(net, p, batch)
        assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-3)) < 1e-5


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
def test_unknown_activation_rejected(activation, single_unit_t2, rng):
    """Both routes raise instead of running some other activation."""
    p = np.ones(3)
    _, trace = compute.forward(single_unit_t2, p, [1.0, 1.0])
    with pytest.raises(compute.ComputeError, match="unknown activation"):
        compute.backprop(single_unit_t2, p, trace, np.ones(2), activation)
    layout = single_unit_t2.rnn
    X = rng.standard_normal((2, 2, 1))
    for keep_trace in (True, False):
        with pytest.raises(compute.ComputeError, match="unknown activation"):
            compute.rnn_forward(layout, p, X, activation, keep_trace=keep_trace)
    tr = compute.rnn_forward(layout, p, X)
    with pytest.raises(compute.ComputeError, match="unknown activation"):
        compute.rnn_backward(layout, p, tr, np.ones_like(tr.y), activation)


def test_relu_subgradient_zero_at_kink():
    """At pre-activation exactly 0 the backward mask must be 0."""
    net = build_rnn(RnnSpec(1, (1,), 1, 1))
    p = np.array([1.0, 1.0])  # w_in, w_out
    _, tr = compute.forward(net, p, [0.0])
    hid = net.node_at(1, 0, 1)
    assert tr.pre[hid] == 0.0 and not tr.active[hid]
    g = compute.backprop(net, p, tr, np.ones(1))
    assert g[0] == 0.0  # nothing flows through the inactive unit


def test_rnn_route_matches_generic(rng):
    for _ in range(8):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        p = rng.uniform(-1.2, 1.2, net.num_params)
        B = 2
        X = rng.standard_normal((B, spec.length, spec.input_dim))
        tr = compute.rnn_forward(net.rnn, p, X)
        for b in range(B):
            y, _ = compute.forward(net, p, X[b])
            assert np.allclose(tr.y[b].reshape(-1), y, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("length", [1, 2, 7, compute.BLOCK, 2 * compute.BLOCK + 3])
def test_rnn_forward_trace_free_matches_traced(activation, hidden, bias, length, rng):
    """keep_trace=False gives the traced y bit for bit, and both match the
    generic interpreter; the longer lengths span several trace-free blocks
    and end in a partial one, so the state carried between blocks counts."""
    spec = RnnSpec(2, hidden, 2, length, bias=bias)
    net = build_rnn(spec)
    p = rng.uniform(-1.2, 1.2, net.num_params)
    X = rng.standard_normal((4, length, spec.input_dim))
    tr = compute.rnn_forward(net.rnn, p, X, activation)
    lean = compute.rnn_forward(net.rnn, p, X, activation, keep_trace=False)
    assert lean.h is None and lean.y.shape == tr.y.shape == (4, length, 2)
    np.testing.assert_array_equal(lean.y, tr.y)
    for b in range(X.shape[0]):
        y, _ = compute.forward(net, p, X[b], activation)
        assert np.allclose(lean.y[b].reshape(-1), y, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2), (2, 3, 2)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("length", [compute.BLOCK + 1, 2 * compute.BLOCK + 3])
@pytest.mark.parametrize("first", ["1", "BLOCK", "T-1"])
def test_rnn_output_suffix_matches_full(activation, hidden, bias, length, first, rng):
    """first_output = r gives the full forward's y[:, r:] bit for bit in
    both modes, and the backward of that suffix equals the full backward
    with dY zero before step r, dpre included.  The lengths span several
    trace-free blocks and end in a partial one."""
    r = {"1": 1, "BLOCK": compute.BLOCK, "T-1": length - 1}[first]
    spec = RnnSpec(2, hidden, 2, length, bias=bias)
    layout = graph.RnnLayout.from_spec(spec)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((4, length, spec.input_dim))
    full = compute.rnn_forward(layout, p, X, activation)
    lean = compute.rnn_forward(layout, p, X, activation, keep_trace=False, first_output=r)
    tr = compute.rnn_forward(layout, p, X, activation, first_output=r)
    assert lean.y.shape == tr.y.shape == (4, length - r, 2)
    np.testing.assert_array_equal(lean.y, full.y[:, r:])
    np.testing.assert_array_equal(tr.y, full.y[:, r:])
    dY = rng.standard_normal(tr.y.shape)
    dY_full = np.zeros_like(full.y)
    dY_full[:, r:] = dY
    g, dpre = compute.rnn_backward(layout, p, tr, dY, activation, return_dpre=True)
    g_full, dpre_full = compute.rnn_backward(layout, p, full, dY_full, activation,
                                             return_dpre=True)
    np.testing.assert_array_equal(g, g_full)
    for got, want in zip(dpre[1:], dpre_full[1:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(compute.rnn_backward(layout, p, tr, dY, activation), g)


@pytest.mark.parametrize("first_output", [-1, 5, 6])
def test_rnn_forward_rejects_first_output_out_of_range(first_output, rng):
    layout = graph.RnnLayout.from_spec(RnnSpec(2, (3,), 1, 5))
    X = rng.standard_normal((2, 5, 2))
    for keep_trace in (True, False):
        with pytest.raises(compute.ComputeError, match="first_output"):
            compute.rnn_forward(layout, np.zeros(layout.m), X, keep_trace=keep_trace,
                                first_output=first_output)


def test_rnn_backward_matches_generic_grad(rng):
    """The two reverse-mode routes agree on the same scalar objective."""
    for _ in range(5):
        spec = verify.random_spec(rng)
        net = build_rnn(spec)
        p = rng.uniform(-1.2, 1.2, net.num_params)
        X = rng.standard_normal((3, spec.length, spec.input_dim))
        dY = rng.standard_normal((3, spec.length, spec.output_dim))
        tr = compute.rnn_forward(net.rnn, p, X)
        g_vec = compute.rnn_backward(net.rnn, p, tr, dY)
        g_ref = np.zeros(net.num_params)
        for b in range(X.shape[0]):
            _, trace = compute.forward(net, p, X[b])
            g_ref += compute.backprop(net, p, trace, dY[b].reshape(-1))
        assert np.allclose(g_vec, g_ref, rtol=1e-10, atol=1e-12)


def test_rnn_backward_matches_generic_grad_stacked_long(rng):
    """One and two hidden layers at T = 5..8, past the lengths that
    verify.random_spec draws; covers the in{i} gradient of upper layers."""
    for length in range(5, 9):
        for hidden in ((int(rng.integers(1, 4)),),
                       (int(rng.integers(1, 4)), int(rng.integers(1, 4)))):
            spec = RnnSpec(int(rng.integers(1, 3)), hidden, int(rng.integers(1, 3)),
                           length, bias=bool(rng.integers(0, 2)))
            net = build_rnn(spec)
            p = rng.uniform(-1.2, 1.2, net.num_params)
            X = rng.standard_normal((3, length, spec.input_dim))
            dY = rng.standard_normal((3, length, spec.output_dim))
            tr = compute.rnn_forward(net.rnn, p, X)
            g_vec = compute.rnn_backward(net.rnn, p, tr, dY)
            g_ref = np.zeros(net.num_params)
            for b in range(X.shape[0]):
                _, trace = compute.forward(net, p, X[b])
                g_ref += compute.backprop(net, p, trace, dY[b].reshape(-1))
            assert np.allclose(g_vec, g_ref, rtol=1e-10, atol=1e-12)


def test_rnn_forward_shape_check(rng):
    spec = RnnSpec(2, (3,), 1, 4)
    layout = graph.RnnLayout.from_spec(spec)
    with pytest.raises(compute.ComputeError):
        compute.rnn_forward(layout, np.zeros(layout.m), np.zeros((2, 3, 2)))

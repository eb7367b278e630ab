import numpy as np
import pytest

from pathsgd import compute, verify
from pathsgd.graph import RnnLayout

import reference


def test_forward_hand_unrolled(single_unit_t2):
    """h2 = relu(w_in x2 + w_rec h1), on the layout route and the scalar
    reference alike."""
    X = np.array([[[0.5], [0.25]]])
    y = compute.rnn_forward(single_unit_t2, np.ones(3), X).y
    assert y.tolist() == [[[0.5], [0.75]]]
    assert reference.forward(single_unit_t2, np.ones(3), X[0])[0] == [[0.5], [0.75]]


def test_forward_zero_params(single_unit_t2, rng):
    y = compute.rnn_forward(single_unit_t2, np.zeros(3), rng.standard_normal((2, 2, 1))).y
    assert np.all(y == 0.0)


def test_forward_relu_clips(single_unit_t2):
    y = compute.rnn_forward(single_unit_t2, np.ones(3), -np.ones((1, 2, 1))).y
    assert np.all(y == 0.0)


def test_forward_shape_and_finite_checks(single_unit_t2):
    X = np.ones((1, 2, 1))
    with pytest.raises(compute.ComputeError):
        compute.rnn_forward(single_unit_t2, np.ones(3), np.ones((1, 1, 1)))
    with pytest.raises(compute.ComputeError):
        compute.rnn_forward(single_unit_t2, np.array([1.0, np.nan, 1.0]), X)
    with pytest.raises(compute.ComputeError):
        compute.rnn_forward(single_unit_t2, np.ones(3), X, activation="softplus")


def test_forward_deterministic(single_unit_t3, rng):
    p = rng.standard_normal(3)
    X = rng.standard_normal((2, 3, 1))
    y1 = compute.rnn_forward(single_unit_t3, p, X).y
    y2 = compute.rnn_forward(single_unit_t3, p, X).y
    assert np.array_equal(y1, y2)


def _mse_grad(layout, p, X, Y):
    """rnn_backward of the mean squared error over (B, T, O)."""
    tr = compute.rnn_forward(layout, p, X)
    return compute.rnn_backward(tr, 2.0 * (tr.y - Y) / Y.size)


def test_grad_zero_at_optimum(single_unit_t2):
    g = _mse_grad(single_unit_t2, np.ones(3), np.array([[[0.5], [0.25]]]),
                  np.array([[[0.5], [0.75]]]))
    assert np.all(g == 0.0)


def test_grad_single_edge():
    """1-1-1 MLP, p = (w_in, w_out) = (1, 1), x = 1, target 0: loss (w_out
    w_in x)^2 has gradient (2 w_out x y, 2 w_in x y) = (2, 2)."""
    layout = RnnLayout(1, (1,), 1, 1)
    g = _mse_grad(layout, np.array([1.0, 1.0]), np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
    assert np.allclose(g, [2.0, 2.0], rtol=1e-12)


def test_grad_matches_finite_differences(rng):
    res = verify.check_gradient(rng, 10)
    assert res.passed, res.line()


@pytest.mark.parametrize("activation", ["tanh", "softplus"])
def test_unknown_activation_rejected(activation, single_unit_t2, rng):
    """The forward raises instead of running some other activation; the
    backward runs the activation its trace records."""
    p = np.ones(3)
    layout = single_unit_t2
    X = rng.standard_normal((2, 2, 1))
    for keep_trace in (True, False):
        with pytest.raises(compute.ComputeError, match="unknown activation"):
            compute.rnn_forward(layout, p, X, activation, keep_trace=keep_trace)


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
def test_backward_reads_layout_params_and_activation_from_trace(activation, rng):
    """The trace records the forward's layout, its parameter vector itself
    and its activation, and the backward takes all three from it: its
    gradient is the scalar reference backward of that activation."""
    layout = RnnLayout(2, (3, 2), 2, 5, bias=True)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((3, 5, 2))
    tr = compute.rnn_forward(layout, p, X, activation)
    assert tr.layout is layout and tr.p is p and tr.relu == (activation == "relu")
    dY = rng.standard_normal(tr.y.shape)
    g_ref = np.sum([reference.backward(layout, p, X[b], dY[b], activation)
                    for b in range(3)], axis=0)
    np.testing.assert_allclose(compute.rnn_backward(tr, dY), g_ref, rtol=1e-10, atol=1e-12)


def test_relu_subgradient_zero_at_kink():
    """At pre-activation exactly 0 the backward mask must be 0: with
    p = (w_in, b, w_out, b_out) = (1, 0, 1, 0) and x = 0 nothing flows to
    the bias b, where an open mask would pass w_out = 1."""
    layout = RnnLayout(1, (1,), 1, 1, bias=True)
    p = np.array([1.0, 0.0, 1.0, 0.0])
    X = np.zeros((1, 1, 1))
    assert reference.forward(layout, p, X[0])[2][0][1] == [0.0]
    tr = compute.rnn_forward(layout, p, X)
    g = compute.rnn_backward(tr, np.ones_like(tr.y))
    b = layout.param_index("b1", 0, 0)
    assert g[b] == 0.0 and reference.backward(layout, p, X[0], [[1.0]])[b] == 0.0


def test_rnn_route_matches_generic(rng):
    """rnn_forward equals the per-unit scalar reference."""
    for _ in range(8):
        layout = verify.random_layout(rng)
        p = rng.uniform(-1.2, 1.2, layout.m)
        B = 2
        X = rng.standard_normal((B, layout.length, layout.input_dim))
        tr = compute.rnn_forward(layout, p, X)
        for b in range(B):
            y = reference.forward(layout, p, X[b])[0]
            assert np.allclose(tr.y[b], y, rtol=1e-12, atol=1e-14)


# Steps per trace-free block at the budget _set_block_budget sets.
BLOCK = 8


def _set_block_budget(monkeypatch, rows, hidden):
    """Set compute.BUDGET so that a trace-free rnn_forward of `rows` rows
    runs blocks of BLOCK steps."""
    monkeypatch.setattr(compute, "BUDGET", 32 * 8 * rows * max(hidden))


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("length", [1, 2, 7, BLOCK, 2 * BLOCK + 3])
def test_rnn_forward_trace_free_matches_traced(activation, hidden, bias, length, rng,
                                               monkeypatch):
    """keep_trace=False over one chunk of rows gives the traced y bit for
    bit, and both match the per-unit scalar reference; the longer lengths
    span several trace-free blocks and end in a partial one, so the state
    carried between blocks counts."""
    layout = RnnLayout(2, hidden, 2, length, bias=bias)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((4, length, layout.input_dim))
    _set_block_budget(monkeypatch, 4, hidden)
    tr = compute.rnn_forward(layout, p, X, activation)
    lean = compute.rnn_forward(layout, p, X, activation, keep_trace=False)
    assert lean.h is None and lean.y.shape == tr.y.shape == (4, length, 2)
    np.testing.assert_array_equal(lean.y, tr.y)
    for b in range(X.shape[0]):
        y = reference.forward(layout, p, X[b], activation)[0]
        assert np.allclose(lean.y[b], y, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2), (2, 3, 2)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("length", [BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("first", ["1", "BLOCK", "T-1"])
def test_rnn_output_suffix_matches_full(activation, hidden, bias, length, first, rng,
                                        monkeypatch):
    """first_output = r gives the full forward's y[:, r:] bit for bit in
    both modes, and the backward of that suffix equals the full backward
    with dY zero before step r, dpre included.  The lengths span several
    trace-free blocks and end in a partial one; "BLOCK" starts the read-out
    on the first step of the second block."""
    r = {"1": 1, "BLOCK": BLOCK, "T-1": length - 1}[first]
    layout = RnnLayout(2, hidden, 2, length, bias=bias)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((4, length, layout.input_dim))
    _set_block_budget(monkeypatch, 4, hidden)
    full = compute.rnn_forward(layout, p, X, activation)
    lean = compute.rnn_forward(layout, p, X, activation, keep_trace=False, first_output=r)
    tr = compute.rnn_forward(layout, p, X, activation, first_output=r)
    assert lean.y.shape == tr.y.shape == (4, length - r, 2)
    np.testing.assert_array_equal(lean.y, full.y[:, r:])
    np.testing.assert_array_equal(tr.y, full.y[:, r:])
    dY = rng.standard_normal(tr.y.shape)
    dY_full = np.zeros_like(full.y)
    dY_full[:, r:] = dY
    g, dpre, _ = compute.rnn_backward(tr, dY, return_dpre=True)
    g_full, dpre_full, _ = compute.rnn_backward(full, dY_full, return_dpre=True)
    np.testing.assert_array_equal(g, g_full)
    for got, want in zip(dpre[1:], dpre_full[1:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(compute.rnn_backward(tr, dY), g)


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2), (2, 3, 2)])
@pytest.mark.parametrize("bias", [False, True])
def test_rnn_forward_trace_free_chunks(activation, hidden, bias, rng, monkeypatch):
    """A trace-free forward forced into blocks of 1 and BLOCK steps (T = 11
    ends in a partial block) matches the traced forward for every
    first_output, up to rounding: BLAS may round a row of a product
    differently at another row count, and a one-row product runs as gemv.
    Each first_output gives the bytes of the same blocks read out from
    step 0."""
    T, B = 11, 5
    layout = RnnLayout(2, hidden, 2, T, bias=bias)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((B, T, 2))
    want = [compute.rnn_forward(layout, p, X, activation, first_output=r).y
            for r in range(T)]
    for steps in (1, BLOCK):
        if steps == 1:
            monkeypatch.setattr(compute, "BUDGET", 1)
        else:
            _set_block_budget(monkeypatch, B, hidden)
        full = compute.rnn_forward(layout, p, X, activation, keep_trace=False).y
        for r in range(T):
            got = compute.rnn_forward(layout, p, X, activation, keep_trace=False,
                                      first_output=r).y
            assert got.shape == want[r].shape
            np.testing.assert_allclose(got, want[r], rtol=1e-12, atol=1e-14)
            assert got.tobytes() == full[:, r:].tobytes()


@pytest.mark.parametrize("first_output", [-1, 5, 6])
def test_rnn_forward_rejects_first_output_out_of_range(first_output, rng):
    layout = RnnLayout(2, (3,), 1, 5)
    X = rng.standard_normal((2, 5, 2))
    for keep_trace in (True, False):
        with pytest.raises(compute.ComputeError, match="first_output"):
            compute.rnn_forward(layout, np.zeros(layout.m), X, keep_trace=keep_trace,
                                first_output=first_output)


def test_rnn_backward_rejects_trace_free_forward(rng):
    layout = RnnLayout(2, (3,), 1, 5)
    p = np.zeros(layout.m)
    lean = compute.rnn_forward(layout, p, rng.standard_normal((2, 5, 2)), keep_trace=False)
    with pytest.raises(compute.ComputeError, match="kept no trace"):
        compute.rnn_backward(lean, np.ones_like(lean.y))


@pytest.mark.parametrize("keep_trace", [True, False])
def test_rnn_forward_rejects_empty_batch(keep_trace):
    layout = RnnLayout(2, (3,), 1, 5)
    with pytest.raises(compute.ComputeError, match=r"empty batch.*\(0, 5, 2\)"):
        compute.rnn_forward(layout, np.zeros(layout.m), np.zeros((0, 5, 2)),
                            keep_trace=keep_trace)


def _assert_matches_generic_grad(layout, p, X, dY, monkeypatch):
    """rnn_backward equals the per-example scalar reference backward, both
    with the default block budget and with one step per backward block."""
    g_ref = np.zeros(layout.m)
    for b in range(X.shape[0]):
        g_ref += reference.backward(layout, p, X[b], dY[b])
    tr = compute.rnn_forward(layout, p, X)
    for budget in (compute.BUDGET, 1):
        monkeypatch.setattr(compute, "BUDGET", budget)
        g_vec = compute.rnn_backward(tr, dY)
        assert np.allclose(g_vec, g_ref, rtol=1e-10, atol=1e-12)


def test_rnn_backward_matches_generic_grad(rng, monkeypatch):
    """The layout backward and the scalar reference agree on the same
    scalar objective."""
    for _ in range(5):
        layout = verify.random_layout(rng)
        p = rng.uniform(-1.2, 1.2, layout.m)
        X = rng.standard_normal((3, layout.length, layout.input_dim))
        dY = rng.standard_normal((3, layout.length, layout.output_dim))
        _assert_matches_generic_grad(layout, p, X, dY, monkeypatch)


def test_rnn_backward_matches_generic_grad_stacked_long(rng, monkeypatch):
    """One and two hidden layers at T = 5..8, past the lengths that
    verify.random_layout draws; covers the in{i} gradient of upper layers."""
    for length in range(5, 9):
        for hidden in ((int(rng.integers(1, 4)),),
                       (int(rng.integers(1, 4)), int(rng.integers(1, 4)))):
            layout = RnnLayout(int(rng.integers(1, 3)), hidden, int(rng.integers(1, 3)),
                               length, bias=bool(rng.integers(0, 2)))
            p = rng.uniform(-1.2, 1.2, layout.m)
            X = rng.standard_normal((3, length, layout.input_dim))
            dY = rng.standard_normal((3, length, layout.output_dim))
            _assert_matches_generic_grad(layout, p, X, dY, monkeypatch)


@pytest.mark.parametrize("K", [1, 3, "T"])
@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("hidden", [(3,), (3, 2), (2, 3, 2)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("length", [7, 11])
def test_rnn_backward_blocks_match_one_block(K, activation, hidden, bias, length, rng,
                                             monkeypatch):
    """A backward walked in K-step blocks (T = 7 and 11 end in a partial
    block at K = 3) gives the one-block gradient up to rounding, the same
    dpre bit for bit, and the same bits with and without return_dpre; the
    first read-out step r is 0, inside a block, on a block boundary and
    T - 1."""
    B = 4
    layout = RnnLayout(2, hidden, 2, length, bias=bias)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((B, length, 2))
    k = length if K == "T" else K
    for r in (0, 4, 6, length - 1):
        tr = compute.rnn_forward(layout, p, X, activation, first_output=r)
        dY = rng.standard_normal(tr.y.shape)
        monkeypatch.setattr(compute, "BUDGET", 8 * B * max(hidden) * length)
        g_one, dpre_one, _ = compute.rnn_backward(tr, dY, return_dpre=True)
        monkeypatch.setattr(compute, "BUDGET", 8 * B * max(hidden) * k)
        g, dpre, _ = compute.rnn_backward(tr, dY, return_dpre=True)
        np.testing.assert_allclose(g, g_one, rtol=1e-12, atol=1e-14)
        for got, want in zip(dpre[1:], dpre_one[1:]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(compute.rnn_backward(tr, dY), g)


def test_rnn_forward_shape_check(rng):
    layout = RnnLayout(2, (3,), 1, 4)
    with pytest.raises(compute.ComputeError):
        compute.rnn_forward(layout, np.zeros(layout.m), np.zeros((2, 3, 2)))


def _matmul_forward_steps(b, WrecT, first, t, relu):
    """compute._forward_steps in the matmul form it replaced: index the
    block at every step, np.matmul, += and the float 0.0."""
    blk = b[1:]
    for s in range(len(blk)):
        if WrecT is not None and (s > 0 or not first):
            blk[s] += np.matmul(b[s], WrecT, out=t)
        if relu:
            np.maximum(blk[s], 0.0, out=blk[s])


def _matmul_backward_steps(blk, carry, m, Wrec, last, seeded, t):
    """compute._backward_steps in the matmul form it replaced, with *= for
    the bool mask.  Under ReLU the rows below seeded hold their step's mask
    as 0.0 / 1.0; it is read back as bools before the product overwrites
    the row."""
    k = len(blk)
    for s in range(k - 1, -1, -1):
        ms = None if m is None else blk[s] > 0.0 if s < seeded else m[s]
        if Wrec is not None and not (last and s == k - 1):
            nxt = blk[s + 1] if s + 1 < k else carry
            if s < seeded:
                np.matmul(nxt, Wrec, out=blk[s])
            else:
                blk[s] += np.matmul(nxt, Wrec, out=t)
        if ms is not None:
            blk[s] *= ms


def _recurrence_outputs(layout, p, X, activation, r, dY):
    tr = compute.rnn_forward(layout, p, X, activation, first_output=r)
    lean = compute.rnn_forward(layout, p, X, activation, keep_trace=False, first_output=r)
    g, dpre, h = compute.rnn_backward(tr, dY, return_dpre=True)
    g_lean = compute.rnn_backward(tr, dY)
    return [tr.y, *h[1:], lean.y, g, *dpre[1:], g_lean]


@pytest.mark.parametrize("budget", ["default", 1])
@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("hidden", [(3,), (1,), (4, 1), (2, 3, 2)])
def test_step_loops_bit_identical_to_matmul_form(hidden, bias, activation, budget, rng,
                                                 monkeypatch):
    """Every output of rnn_forward (traced and trace-free) and rnn_backward
    (with and without return_dpre) has the bytes of the matmul-form step
    loops, for B = 1 (the squared pass), 3 and 32, T = 1, 2, 7 and 40, and
    first read-out steps 0, inside the sequence and T - 1.  A width-1 layer
    at B = 1 covers the 1 x 1 product, whose sign of zero np.dot and
    np.matmul disagree on; at budget 1 the backward walks one-step blocks."""
    if budget != "default":
        monkeypatch.setattr(compute, "BUDGET", budget)
    for T in (1, 2, 7, 40):
        layout = RnnLayout(2, hidden, 2, T, bias=bias)
        for B in (1, 3, 32):
            p = rng.uniform(-1.2, 1.2, layout.m)
            X = rng.standard_normal((B, T, 2))
            for r in sorted({0, T // 2, T - 1}):
                dY = rng.standard_normal((B, T - r, 2))
                with monkeypatch.context() as mp:
                    mp.setattr(compute, "_forward_steps", _matmul_forward_steps)
                    mp.setattr(compute, "_backward_steps", _matmul_backward_steps)
                    want = _recurrence_outputs(layout, p, X, activation, r, dY)
                got = _recurrence_outputs(layout, p, X, activation, r, dY)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (T, B, r)


def _forward_backward(layout, p, X, activation, r, dY):
    """The trace, then y, g, dpre and h of return_dpre, and g without it."""
    tr = compute.rnn_forward(layout, p, X, activation, first_output=r)
    g, dpre, h = compute.rnn_backward(tr, dY, return_dpre=True)
    return tr, [tr.y, g, *dpre[1:], *h, compute.rnn_backward(tr, dY)]


@pytest.mark.parametrize("activation", compute.ACTIVATIONS)
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("hidden", [(3,), (4, 1), (2, 3, 2)])
def test_recomputed_blocks_bit_identical_to_kept_trace(hidden, bias, activation, rng,
                                                       monkeypatch):
    """A forward and backward both under a budget of 1-, 2- and 3-step
    blocks keep only the state carried into each block and recompute the
    rest.  The recomputed states have the bytes of the ones the forward
    carried, and y, g and return_dpre's dpre and h have the bytes of the
    one-block trace walked in the same blocks.  T = 20 ends in a partial
    block at 3 steps.  At B = 1 and one step per block every product has
    one row, which NumPy runs as gemv, so there the match to the one-block
    trace, whose products have T rows, is up to rounding."""
    T = 20
    layout = RnnLayout(2, hidden, 2, T, bias=bias)
    for B in (1, 3, 32):
        p = rng.uniform(-1.2, 1.2, layout.m)
        X = rng.standard_normal((B, T, 2))
        for r in (0, T // 2, T - 1):
            dY = rng.standard_normal((B, T - r, 2))
            kept = compute.rnn_forward(layout, p, X, activation, first_output=r)
            assert kept.K == T
            for k in (1, 2, 3):
                with monkeypatch.context() as mp:
                    mp.setattr(compute, "BUDGET", k * 8 * B * max(hidden))
                    g, dpre, h = compute.rnn_backward(kept, dY, return_dpre=True)
                    want = [kept.y, g, *dpre[1:], *h, compute.rnn_backward(kept, dY)]
                    cut, got = _forward_backward(layout, p, X, activation, r, dY)
                assert cut.K == k and len(got) == len(want)
                h_got = got[-len(h) - 1:-1]
                for carried, states in zip(cut.h[1:], h_got[1:]):
                    assert carried[1:].tobytes() == states[k - 1:T - 1:k].tobytes()
                for a, b in zip(got, want):
                    assert a.shape == b.shape
                    if B == 1 and k == 1:
                        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
                    else:
                        assert a.tobytes() == b.tobytes(), (B, r, k)


@pytest.mark.parametrize("hidden, length, batch, K", [
    (100, 750, 32, 38),     # add-T750-k12: checkpointed every isqrt(1500) steps
    (128, 50, 32, 50),      # charlm-H128-adam: within the cap of 64, one block
    (32, 40, 32, 40),       # add-T40-k1 and criterion 8: one block
    (100, 81, 32, 81),      # at the cap of 81 steps, one block
    (100, 82, 32, 12),      # one step past the cap: isqrt(164)
    (100, 100, 1024, 2)])   # a cap of 2 steps below isqrt(200)
def test_time_block_is_one_block_or_isqrt_2t(hidden, length, batch, K):
    """A trace within the cache cap BUDGET // (8 B max H) is one block; a
    longer one is checkpointed every min(cap, isqrt(2 T)) steps."""
    layout = RnnLayout(2, (hidden,), 1, length)
    assert compute._time_block(layout, batch) == K


@pytest.mark.parametrize("input_dim", [2, 27, 100])
def test_checkpointed_trace_bit_identical_at_paper_scale(input_dim, rng, monkeypatch):
    """At T = 750, B = 32, H = 100 the trace is checkpointed every
    isqrt(2 T) = 38 steps.  Each block's input drive is one matmul over its rows,
    and at input widths 2 (addition), 27 and 100 it has the bytes of the
    same rows of one whole-sequence matmul: y, g, dpre and h equal those of
    the one-block trace walked in the same blocks."""
    T, B = 750, 32
    layout = RnnLayout(input_dim, (100,), 1, T)
    p = rng.uniform(-0.1, 0.1, layout.m)
    X = rng.standard_normal((B, T, input_dim))
    dY = rng.standard_normal((B, 1, 1))
    cut, got = _forward_backward(layout, p, X, "relu", T - 1, dY)
    assert cut.K == 38
    with monkeypatch.context() as mp:
        mp.setattr(compute, "BUDGET", 8 * B * 100 * T)
        kept = compute.rnn_forward(layout, p, X, first_output=T - 1)
    assert kept.K == T and compute.rnn_forward(layout, p, X[:1]).K == T
    g, dpre, h = compute.rnn_backward(kept, dY, return_dpre=True)
    want = [kept.y, g, *dpre[1:], *h, compute.rnn_backward(kept, dY)]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("budget", ["default", 1])
def test_kept_trace_holds_the_callers_input(budget, rng, monkeypatch):
    """A kept trace's h[0] is the caller's X itself, whether the trace is
    one block (K = T) or checkpointed (K < T), and y and g have the bytes
    of a forward and backward on a copy of X."""
    if budget != "default":
        monkeypatch.setattr(compute, "BUDGET", budget)
    layout = RnnLayout(2, (3, 2), 2, 7, bias=True)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((3, 7, 2))
    tr = compute.rnn_forward(layout, p, X, first_output=2)
    assert (tr.K == 7) == (budget == "default")
    assert tr.h[0] is X
    dY = rng.standard_normal(tr.y.shape)
    g = compute.rnn_backward(tr, dY)
    copy = compute.rnn_forward(layout, p, X.tolist(), first_output=2)
    assert not np.shares_memory(copy.h[0], X)
    assert copy.y.tobytes() == tr.y.tobytes()
    assert compute.rnn_backward(copy, dY).tobytes() == g.tobytes()


@pytest.mark.parametrize("budget", ["default", 1])
def test_backward_leaves_the_trace_as_it_was(budget, rng, monkeypatch):
    """Two backward calls on one trace, kept whole or checkpointed into
    one-step blocks, give the same bytes, and neither writes the trace."""
    if budget != "default":
        monkeypatch.setattr(compute, "BUDGET", budget)
    layout = RnnLayout(2, (3, 2), 2, 7, bias=True)
    p = rng.uniform(-1.2, 1.2, layout.m)
    X = rng.standard_normal((3, 7, 2))
    tr = compute.rnn_forward(layout, p, X, first_output=2)
    assert (tr.K == 7) == (budget == "default")
    kept = [a.tobytes() for a in (tr.y, *tr.h)]
    dY = rng.standard_normal(tr.y.shape)
    for return_dpre in (False, True):
        first = compute.rnn_backward(tr, dY, return_dpre=return_dpre)
        second = compute.rnn_backward(tr, dY, return_dpre=return_dpre)
        if return_dpre:
            first = [first[0], *first[1][1:], *first[2]]
            second = [second[0], *second[1][1:], *second[2]]
        else:
            first, second = [first], [second]
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]
        assert [a.tobytes() for a in (tr.y, *tr.h)] == kept

import tracemalloc
import warnings

import numpy as np
import pytest

from pathsgd import compute, invariance, optim, pathnorm, verify
from pathsgd.graph import RnnLayout

import reference


def rel_gap(a, b, floor=1e-12):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


# --- gamma^2 -----------------------------------------------------------------

def test_gamma_hand_values(single_unit_t2, single_unit_t3):
    p = np.ones(3)
    assert pathnorm.gamma_recursive(single_unit_t2, p) == 3.0
    assert pathnorm.gamma_bruteforce(single_unit_t2, p) == 3.0
    assert pathnorm.gamma_recursive(single_unit_t3, p) == 6.0
    assert pathnorm.gamma_recursive(single_unit_t2, np.zeros(3)) == 0.0
    assert pathnorm.gamma(single_unit_t2, p) == 3.0
    assert pathnorm.gamma(single_unit_t3, p) == 6.0
    assert pathnorm.gamma(single_unit_t3, np.zeros(3)) == 0.0


def test_gamma_recursive_equals_bruteforce(rng):
    for _ in range(20):
        layout = verify.random_net(rng)
        p = verify.random_params(layout, rng)
        slow = pathnorm.gamma_bruteforce(layout, p)
        assert rel_gap(pathnorm.gamma_recursive(layout, p), slow) < 1e-10
        assert rel_gap(pathnorm.gamma(layout, p), slow) < 1e-10


def test_path_count_and_guard(rng):
    """count_paths equals the number of paths iter_paths yields, and the
    enumerators refuse past PATH_GUARD."""
    assert pathnorm.count_paths(RnnLayout(1, (1,), 1, 3)) == 6
    for _ in range(20):
        layout = verify.random_net(rng)
        assert pathnorm.count_paths(layout) == sum(1 for _ in pathnorm.iter_paths(layout))
    big = RnnLayout(10, (10,), 10, 5)
    assert pathnorm.count_paths(big) > pathnorm.PATH_GUARD
    with pytest.raises(pathnorm.EnumerationError):
        pathnorm.gamma_bruteforce(big, np.ones(big.m))


def test_squared_net_reproduces_gamma_bit_exactly(rng):
    """Theorem: unit values of the squared net at the all-ones input are the
    per-unit gamma^2 values; the summed output of the scalar reference
    forward must equal the recursion without any floating-point slack."""
    for _ in range(10):
        layout = verify.random_net(rng)
        p = verify.random_params(layout, rng)
        ones = np.ones((layout.length, layout.input_dim))
        outputs, h, _ = reference.forward(layout, p * p, ones)
        assert all(v >= 0.0 for hs in h for layer in hs for v in layer)
        total = 0.0
        for yt in outputs:
            for v in yt:
                total += v
        assert total == pathnorm.gamma_recursive(layout, p)


# --- kappa oracles and closed forms ------------------------------------------

def test_kappa_fd_hand_values(single_unit_t2, single_unit_t3):
    p = np.ones(3)
    assert np.allclose(pathnorm.kappa_fd(single_unit_t2, p), [3.0, 1.0, 3.0],
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(pathnorm.kappa_fd(single_unit_t3, p), [6.0, 8.0, 6.0],
                       rtol=1e-6, atol=1e-6)


def test_kappa_fd_single_edge_independent_of_w():
    """1-1-1 MLP: gamma^2 = w_in^2 w_out^2, so kappa of w_in is w_out^2
    whatever w_in is."""
    layout = RnnLayout(1, (1,), 1, 1)
    for w in (0.3, 1.0, -2.0):
        assert np.allclose(pathnorm.kappa_fd(layout, np.array([w, 1.0])), [1.0, w * w],
                           rtol=1e-8, atol=1e-8)


def test_kappa1_hand_values(single_unit_t2, single_unit_t3):
    p = np.ones(3)
    assert np.allclose(pathnorm.kappa1(single_unit_t2, p), [3.0, 1.0, 3.0],
                       rtol=1e-12)
    assert np.allclose(pathnorm.kappa1(single_unit_t3, p), [6.0, 4.0, 6.0],
                       rtol=1e-12)


def test_kappa1_equals_per_edge_enumeration(rng):
    for _ in range(12):
        layout = verify.random_net(rng)
        p = verify.random_params(layout, rng)
        slow = pathnorm.kappa1_bruteforce(layout, p)
        assert rel_gap(pathnorm.kappa1(layout, p), slow, floor=1e-9) < 1e-10


def test_kappa1_feedforward_equals_fd(rng):
    """Without weight sharing kappa2 is 0, so kappa1 alone is kappa."""
    for dims in ([1, 1, 1], [2, 3, 1], [3, 2, 2]):
        layout = RnnLayout(dims[0], tuple(dims[1:-1]), dims[-1], 1)
        p = rng.uniform(-1.0, 1.0, layout.m)
        k1 = pathnorm.kappa1(layout, p)
        assert rel_gap(k1, pathnorm.kappa1_bruteforce(layout, p), floor=1e-9) < 1e-10
        assert rel_gap(k1, pathnorm.kappa_fd(layout, p), floor=1.0) < 1e-6


def test_kappa2_hand_values(single_unit_t2, single_unit_t3):
    p = np.ones(3)
    assert np.array_equal(pathnorm.kappa2_bruteforce(single_unit_t2, p),
                          np.zeros(3))
    assert np.array_equal(pathnorm.kappa2(single_unit_t2, p), np.zeros(3))
    assert np.allclose(pathnorm.kappa2_bruteforce(single_unit_t3, p),
                       [0.0, 4.0, 0.0], rtol=1e-12)
    assert np.allclose(pathnorm.kappa2(single_unit_t3, p),
                       [0.0, 4.0, 0.0], rtol=1e-12)


def test_kappa2_feedforward_exactly_zero(rng):
    for dims in ([1, 1, 1], [2, 3, 1], [4, 4, 4, 4]):
        layout = RnnLayout(dims[0], tuple(dims[1:-1]), dims[-1], 1)
        p = rng.uniform(-1.0, 1.0, layout.m)
        assert np.array_equal(pathnorm.kappa2_bruteforce(layout, p),
                              np.zeros(layout.m))
        assert np.array_equal(pathnorm.kappa2(layout, p), np.zeros(layout.m))


def test_kappa2_rnn_equals_bruteforce(rng):
    for _ in range(12):
        layout = verify.random_layout(rng)
        p = verify.random_params(layout, rng)
        fast = pathnorm.kappa2(layout, p)
        slow = pathnorm.kappa2_bruteforce(layout, p)
        assert rel_gap(fast, slow, floor=1.0) < 1e-10


def test_kappa2_layout_equals_bruteforce_past_two_lags(rng):
    """At T <= 4 the time-ordered pairs span at most two lags; from T = 5 on
    the running sum in kappa2 carries three or more terms."""
    for length in range(5, 9):
        for depth in (1, 2):
            hidden = tuple(int(rng.integers(1, 3)) for _ in range(depth))
            layout = RnnLayout(int(rng.integers(1, 3)), hidden,
                               int(rng.integers(1, 3)), length,
                               bias=bool(rng.integers(0, 2)))
            p = verify.random_params(layout, rng)
            fast = pathnorm.kappa2(layout, p)
            slow = pathnorm.kappa2_bruteforce(layout, p)
            assert rel_gap(fast, slow, floor=1.0) < 1e-10


@pytest.mark.parametrize("length, hidden", [
    (750, (100,)),   # L = 14: 53 whole blocks and a partial one
    (50, (128,)),    # L = 16: exactly 3 blocks
    (101, (16,)),    # L = 5: a partial last block
    (30, (8, 3)),    # L = 4 and 2, one per layer
])
def test_kappa2_matches_step_major_reference(rng, length, hidden):
    """At training shapes, beyond the reach of kappa2_bruteforce and
    kappa_fd, kappa2 agrees with the step-major block form it replaced.
    Each squared recurrent matrix has spectral radius 1, so kappa2 grows
    with T and its large entries are compared relative to their size."""
    layout = RnnLayout(2, hidden, 1, length, bias=True)
    p = rng.uniform(-1.0, 1.0, layout.m)
    for i, n in enumerate(hidden, 1):
        sl, _ = layout.slices[f"rec{i}"]
        rho = np.max(np.abs(np.linalg.eigvals(p[sl].reshape(n, n) ** 2)))
        p[sl] /= np.sqrt(rho)
    expected = reference.kappa2(layout, p)
    assert np.max(np.abs(expected)) > 100.0
    assert rel_gap(pathnorm.kappa2(layout, p), expected, floor=1.0) < 1e-12


@pytest.mark.parametrize("length, hidden", [
    (101, (6,)), (30, (8, 3)), (750, (100,)), (400, (100,)), (784, (128,))])
def test_kappa2_chunks_of_blocks_match_one_chunk(rng, monkeypatch, length, hidden):
    """kappa2 forms V and M for a chunk of blocks at a time.  Every chunk
    size of 2 or more blocks, the default's too, gives the bytes of one
    chunk of all blocks; a last chunk of one block joins the one before it
    (T = 400, H = 100 has 29 blocks, T = 784, H = 128 has 49).  Chunks of
    one block agree only up to rounding: a one-row product may round
    differently.  kappa2 takes over the states it is handed, so each call
    gets its own lists of the one pass's arrays."""
    assert pathnorm._chunk_blocks(100) == 3 and pathnorm._chunk_blocks(128) == 2
    layout = RnnLayout(2, hidden, 1, length, bias=True)
    p = rng.uniform(-0.1, 0.1, layout.m)
    h, delta = pathnorm._squared_pass(layout, p)[1]

    def states():
        return list(h), list(delta)

    got = pathnorm.kappa2(layout, p, states())
    with monkeypatch.context() as mp:
        mp.setattr(pathnorm, "_chunk_blocks", lambda H: length)
        want = pathnorm.kappa2(layout, p, states())
    assert got.tobytes() == want.tobytes()
    for c in (1, 2, 3):
        monkeypatch.setattr(pathnorm, "_chunk_blocks", lambda H, c=c: c)
        got = pathnorm.kappa2(layout, p, states())
        if c == 1:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        else:
            assert got.tobytes() == want.tobytes()


def test_kappa2_takes_over_the_states_it_is_handed(rng):
    """kappa2 drops each layer's h and delta from the lists it is handed
    once it has copied them, and returns the bytes of a kappa2 that runs
    its own squared pass."""
    layout = RnnLayout(2, (6, 4), 1, 30, bias=True)
    p = rng.uniform(-0.5, 0.5, layout.m)
    h, delta = pathnorm._squared_pass(layout, p)[1]
    got = pathnorm.kappa2(layout, p, (h, delta))
    assert got.tobytes() == pathnorm.kappa2(layout, p).tobytes()
    assert h[1:] == [None, None] and delta[1:] == [None, None]


def test_kappa2_forms_v_and_m_within_budget(rng):
    """At T = 750, H = 100 kappa2 sums 54 blocks of 14 steps.  V and M of
    all of them would take 8.6 MB; formed a chunk of blocks at a time,
    kappa2's peak beside the squared-pass states it is handed stays below
    its position-major copies of h and delta, the 15 powers of the matrix
    and one compute.BUDGET for the rest."""
    T, H, L = 750, 100, 14
    layout = RnnLayout(2, (H,), 1, T)
    p = rng.uniform(-0.1, 0.1, layout.m)
    states = pathnorm._squared_pass(layout, p)[1]
    nb = -(-(T - 2) // L)
    tracemalloc.start()
    try:
        pathnorm.kappa2(layout, p, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nb == 54 and peak < 2 * L * nb * H * 8 + (L + 1) * H * H * 8 + compute.BUDGET


def test_kappa_matches_fd_at_long_unroll(rng):
    """kappa1 + kappa2 against the finite-difference oracle at T ~ 40.  The
    recurrent block is scaled so its squared matrix has spectral radius 1:
    there kappa2 outweighs kappa1, so kappa1 alone must miss the oracle.
    kappa2 runs in blocks of floor(sqrt(2H)) steps, 2 at H = 2 and 4 at
    H = 8, so these lengths cover several blocks and partial last ones; at
    H = 8, T = 5 the two pair steps are fewer than one block."""
    for hidden in (2, 4, 6, 8):
        layout = RnnLayout(int(rng.integers(1, 3)), (hidden,), int(rng.integers(1, 3)),
                           int(rng.integers(38, 43)), bias=bool(rng.integers(0, 2)))
        p = rng.uniform(-1.0, 1.0, layout.m)
        sl, _ = layout.slices["rec1"]
        rho = np.max(np.abs(np.linalg.eigvals(p[sl].reshape(hidden, hidden) ** 2)))
        p[sl] /= np.sqrt(rho)
        k1 = pathnorm.kappa1(layout, p)
        fd = pathnorm.kappa_fd(layout, p)
        assert rel_gap(k1 + pathnorm.kappa2(layout, p), fd, floor=1.0) < 1e-4
        assert rel_gap(k1, fd, floor=1.0) > 0.5
    layout = RnnLayout(1, (8,), 1, 5, bias=True)
    p = rng.uniform(-1.0, 1.0, layout.m)
    kappa = pathnorm.kappa1(layout, p) + pathnorm.kappa2(layout, p)
    assert rel_gap(kappa, pathnorm.kappa_fd(layout, p), floor=1.0) < 1e-4


def test_preconditioner_shares_one_squared_pass(rng, monkeypatch):
    """preconditioner(k1_plus_k2) and kappa_ratio each run one forward and
    one backward of the squared net, shared by kappa1 and kappa2."""
    layout = RnnLayout(2, (3,), 1, 6, bias=True)
    p = rng.uniform(-1.5, 1.5, layout.m)
    expected = pathnorm.kappa1(layout, p) + pathnorm.kappa2(layout, p)
    ratio = pathnorm.kappa_ratio(layout, p)
    calls = []
    for name in ("rnn_forward", "rnn_backward"):
        real = getattr(compute, name)
        monkeypatch.setattr(compute, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    assert np.array_equal(pathnorm.preconditioner(layout, p, "k1_plus_k2"), expected)
    assert calls == ["rnn_forward", "rnn_backward"]
    assert pathnorm.kappa_ratio(layout, p) == ratio
    assert calls == ["rnn_forward", "rnn_backward"] * 2


def test_preconditioner_overflow_skips_kappa2(monkeypatch):
    """Once the squared net overflows, kappa1 is already non-finite: the
    preconditioner returns it as is, without kappa2 and without a numpy
    warning."""
    layout = RnnLayout(2, (8,), 1, 400)
    p = np.random.default_rng(0).uniform(-2.0, 2.0, layout.m)
    monkeypatch.setattr(pathnorm, "kappa2", lambda *a, **kw: pytest.fail("kappa2 ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = pathnorm.preconditioner(layout, p, "k1_plus_k2")
        assert not np.all(np.isfinite(kappa))
        assert not np.all(np.isfinite(pathnorm.preconditioner(layout, p, "k1")))


def test_preconditioner_squared_overflow_is_non_finite(monkeypatch):
    """A finite p whose square overflows gives a non-finite kappa in both
    modes and a NaN kappa ratio, without an exception, a numpy warning or a
    kappa2 pass."""
    layout = RnnLayout(2, (3,), 1, 5, bias=True)
    p = np.full(layout.m, 0.5)
    p[0] = 1e200
    monkeypatch.setattr(pathnorm, "kappa2", lambda *a, **kw: pytest.fail("kappa2 ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in pathnorm.KAPPA_MODES:
            assert not np.all(np.isfinite(pathnorm.preconditioner(layout, p, mode)))
        assert np.isnan(pathnorm.kappa_ratio(layout, p))


def test_decomposition_matches_fd(rng):
    for _ in range(8):
        layout = RnnLayout(1, (3,), 1, 4)
        p = rng.uniform(-0.5, 0.5, layout.m)
        total = pathnorm.kappa1(layout, p) + pathnorm.kappa2(layout, p)
        assert rel_gap(total, pathnorm.kappa_fd(layout, p), floor=1.0) < 1e-4


def test_kappa_nonnegative(rng):
    for _ in range(10):
        layout = verify.random_net(rng)
        p = verify.random_params(layout, rng)
        assert np.all(pathnorm.kappa1(layout, p) >= 0.0)
        assert np.all(pathnorm.kappa2(layout, p) >= 0.0)


def test_kappa_rescaling_covariance(rng):
    """kappa transforms exactly inversely to the squared parameter
    multiplier: kappa_i(T(p)) = kappa_i(p) / mult_i^2, with mult = T(p) / p,
    separately for k1, k2, total."""
    for _ in range(8):
        layout = verify.random_layout(rng)
        p = verify.random_params(layout, rng)
        alpha = invariance.random_rescaling(layout, rng, 1.0)
        q = invariance.apply_rescaling(layout, p, alpha)
        per_param = q / p
        a1, a2 = pathnorm.kappa1(layout, p), pathnorm.kappa2(layout, p)
        b1, b2 = pathnorm.kappa1(layout, q), pathnorm.kappa2(layout, q)
        for before, after in ((a1, b1), (a2, b2), (a1 + a2, b1 + b2)):
            assert rel_gap(after * per_param ** 2, before, floor=1e-9) < 1e-9


def test_preconditioner_modes(single_unit_t3):
    layout = single_unit_t3
    p = np.ones(3)
    assert np.allclose(pathnorm.preconditioner(layout, p, "k1"),
                       [6.0, 4.0, 6.0])
    assert np.allclose(pathnorm.preconditioner(layout, p, "k1_plus_k2"),
                       [6.0, 8.0, 6.0])
    with pytest.raises(ValueError):
        pathnorm.preconditioner(layout, p, "k3")


def test_kappa_ratio(single_unit_t3, rng):
    # at T = 1 no parameter repeats along a path, so kappa2 vanishes
    layout = RnnLayout(2, (2,), 1, 1)
    assert pathnorm.kappa_ratio(layout, rng.uniform(-1, 1, layout.m)) == 0.0
    r = pathnorm.kappa_ratio(single_unit_t3, np.ones(3))
    assert np.isclose(r, 4.0 / np.sqrt(36.0 + 16.0 + 36.0), rtol=1e-12)
    # kappa1 identically zero, at p = 0 or where p^2 underflows: 0 / 0
    for p in (np.zeros(3), np.full(3, 1e-200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(pathnorm.kappa_ratio(single_unit_t3, p))


def test_kappa_ratio_scales_before_the_norms(rng):
    """At init range 1e30 kappa1 peaks near 2.5e180, so its squares overflow
    an unscaled norm, yet the ratio is finite.  The power-of-two scaling is
    exact: at a normal range the ratio keeps the unscaled norms' bits."""
    layout = RnnLayout(2, (2,), 2, 3)
    p = optim.rng_for(0, optim.STREAM_INIT, 0).uniform(-1e30, 1e30, layout.m)
    with np.errstate(over="ignore"):
        assert np.linalg.norm(pathnorm.kappa1(layout, p)) == np.inf
    assert np.isclose(pathnorm.kappa_ratio(layout, p), 0.7651007350707342, rtol=1e-14)
    p = rng.uniform(-0.5, 0.5, layout.m)
    unscaled = np.linalg.norm(pathnorm.kappa2(layout, p)) / np.linalg.norm(
        pathnorm.kappa1(layout, p))
    assert pathnorm.kappa_ratio(layout, p) == unscaled

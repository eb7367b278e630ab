import numpy as np
import pytest

from pathsgd import compute, pathnorm, verify
from pathsgd.graph import RnnLayout

import reference


def test_run_all_quick_passes():
    results = verify.run_all("quick", seed=0)
    assert len(results) == 11
    for res in results:
        assert res.passed, res.line()
        assert res.worst <= res.threshold or res.name == "sgd-not-invariant"


def test_run_all_unknown_level():
    with pytest.raises(ValueError):
        verify.run_all("exhaustive")


def test_result_line_format():
    res = verify.PropertyResult("demo", True, 1.5e-12, 1e-10, 7)
    line = res.line()
    assert line.startswith("PASS demo:")
    assert "n=7" in line
    res = verify.PropertyResult("demo", False, 2.0, 1e-10, 3, detail="bad")
    assert res.line().startswith("FAIL demo:")
    assert res.line().endswith("bad")


def test_tampered_kappa_is_caught(monkeypatch):
    """Scaling kappa1 by a constant keeps update invariance (it only rescales
    the step size), so the fault must be caught by the oracle comparison."""
    real = pathnorm.kappa1
    monkeypatch.setattr(pathnorm, "kappa1", lambda layout, p: 3.0 * real(layout, p))
    results = {r.name: r for r in verify.run_all("quick", seed=0)}
    assert not results["kappa-decomposition"].passed
    assert results["path-sgd-invariance"].passed
    assert any(not r.passed for r in results.values())


def test_zeroed_block_carry_is_caught(monkeypatch):
    """A backward that drops the dpre carried into each earlier time block
    is right at one block and wrong at several: only the time-blocking
    property sees it, and it leaves compute.BUDGET as it found it."""
    real, budget = compute._backward_steps, compute.BUDGET
    monkeypatch.setattr(compute, "_backward_steps", lambda blk, carry, *rest:
                        real(blk, np.zeros_like(carry), *rest))
    results = {r.name: r for r in verify.run_all("quick", seed=0)}
    assert [name for name, r in results.items() if not r.passed] == ["time-blocking"]
    assert compute.BUDGET == budget


def test_unmasked_readout_rows_are_caught(monkeypatch):
    """A backward that skips the ReLU mask on the steps before the read-out
    step (it sets their 0.0 / 1.0 mask rows to 1.0) is right whenever every
    step is read out: only the read-out gradient check sees it."""
    real = compute._backward_steps

    def unmasked(blk, carry, m, Wrec, last, seeded, t):
        if m is not None:
            blk[:seeded] = 1.0
        real(blk, carry, m, Wrec, last, seeded, t)

    monkeypatch.setattr(compute, "_backward_steps", unmasked)
    results = {r.name: r for r in verify.run_all("quick", seed=0)}
    assert [name for name, r in results.items() if not r.passed] == ["gradient-check-readout"]


def test_uncarried_kappa2_state_is_caught(monkeypatch):
    """A kappa2 that drops the state Z carried from one chunk of blocks
    into the next is right whenever all blocks fit in one chunk, as in
    every small net: only the kappa-at-scale property sees it."""
    real = pathnorm._across_blocks
    monkeypatch.setattr(pathnorm, "_across_blocks", lambda accT, Z, *rest:
                        real(accT, None if Z is None else np.zeros_like(Z), *rest))
    results = {r.name: r for r in verify.run_all("quick", seed=0)}
    assert [name for name, r in results.items() if not r.passed] == ["kappa-at-scale"]


def test_sample_kink_free_respects_margin(rng):
    """The layout sampler's parameters keep every ReLU pre-activation of
    the scalar reference more than the margin from 0, except at a unit
    whose sources are all 0."""
    for _ in range(5):
        layout = verify.random_net(rng)
        X = rng.uniform(-1, 1, (3, layout.length, layout.input_dim))
        p, X = verify.sample_kink_free(layout, rng, X, margin=1e-2)
        for x in X:
            _, h, pre = reference.forward(layout, p, x)
            for t in range(layout.length):
                for i in range(1, layout.depth):
                    sources = h[t][i - 1] + (h[t - 1][i] if t else [])
                    dead = not layout.bias and all(v == 0.0 for v in sources)
                    assert dead or all(abs(z) > 1e-2 for z in pre[t][i])


def test_sample_kink_free_redraws_a_batch_no_parameters_pass(rng):
    """An input of 0.0035 at step 0 of a one-input net keeps |w x| under
    the margin 1e-2 for every weight |w| <= 1.5, so no draw of p passes on
    that batch: the sampler redraws X and returns parameters kink-free on
    the X it returns."""
    layout = RnnLayout(1, (2,), 2, 3)
    X = rng.standard_normal((2, 3, 1))
    X[0, 0, 0] = 0.0035
    p, drawn = verify.sample_kink_free(layout, rng, X)
    assert drawn.shape == X.shape and X[0, 0, 0] == 0.0035
    assert verify._kink_free(layout, p, drawn, 1e-2)


@pytest.mark.parametrize("seed", [3, 4, 6, 22, 34])
def test_run_all_quick_passes_at_more_seeds(seed):
    """Seeds 3, 4, 6 and 34 draw a gradient-check batch on which no
    parameters are kink-free, and seed 22 a path-SGD instance whose kappa
    is under the epsilon floor, which the property skips and counts."""
    results = verify.run_all("quick", seed)
    assert [r.line() for r in results if not r.passed] == []
    inv = next(r for r in results if r.name == "path-sgd-invariance")
    assert (inv.detail == "(1 skipped: kappa near the epsilon floor)") == (seed == 22)


def test_random_spec_bounds(rng):
    for _ in range(30):
        layout = verify.random_layout(rng)
        assert 1 <= layout.length <= 4
        assert all(1 <= h <= 3 for h in layout.hidden_dims)

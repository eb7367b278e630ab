import pytest

from pathsgd import compute, verify


def test_run_all_quick_passes():
    results = verify.run_all("quick", seed=0)
    assert len(results) == 8
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


def test_tampered_kappa_is_caught():
    """Scaling kappa by a constant keeps update invariance (it only rescales
    the step size), so the fault must be caught by the oracle comparison."""
    results = {r.name: r for r in verify.run_all("quick", seed=0, kappa_scale=3.0)}
    assert not results["kappa-decomposition"].passed
    assert results["path-sgd-invariance"].passed
    assert any(not r.passed for r in results.values())


def test_sample_kink_free_respects_margin(rng):
    """The layout sampler's parameters keep every ReLU pre-activation of
    the unrolled DAG more than the margin from 0, except at a unit whose
    sources are all 0."""
    for _ in range(5):
        net = verify.random_net(rng)
        spec = net.rnn.spec
        X = rng.uniform(-1, 1, (3, spec.length, spec.input_dim))
        p = verify.sample_kink_free(net.rnn, rng, X, margin=1e-2)
        for x in X:
            _, tr = compute.forward(net, p, x)
            for nd in net.nodes:
                if nd.kind != "internal":
                    continue
                dead = all(tr.values[u] == 0.0 for u, _ in net.incoming[nd.idx])
                assert dead or abs(tr.pre[nd.idx]) > 1e-2


def test_random_spec_bounds(rng):
    for _ in range(30):
        spec = verify.random_spec(rng)
        assert 1 <= spec.length <= 4
        assert all(1 <= h <= 3 for h in spec.hidden_dims)
        spec.check()

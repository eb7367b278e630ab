import dataclasses

import numpy as np
import pytest

from pathsgd import compute, optim, pathnorm, tasks
from pathsgd.config import ConfigError, RunConfig, load_checkpoint, save_checkpoint
from pathsgd.graph import GraphError, RnnLayout
from pathsgd.optim import OptimizerState

# Addition at T = 2 through one hidden unit: p = (w_value, w_mask, w_rec,
# w_out).  The target x_1 + x_2 is exactly representable, so path-SGD drives
# the loss to zero within a few hundred steps.
TINY = RnnLayout(2, (1,), 1, 2)
TINY_P0 = np.array([0.5, 0.0, 0.5, 0.5])


def tiny_task():
    return tasks.AdditionTask(length=2, eval_size=64)


def test_rng_for_is_stateless():
    a = optim.rng_for(3, optim.STREAM_DATA, 7).uniform(size=4)
    b = optim.rng_for(3, optim.STREAM_DATA, 7).uniform(size=4)
    c = optim.rng_for(3, optim.STREAM_DATA, 8).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


LAYOUT = RnnLayout(2, (4,), 1, 3)


def test_init_uniform_range(rng):
    p = optim.init_uniform(LAYOUT, rng, 0.25)
    assert p.shape == (LAYOUT.m,)
    assert np.all(np.abs(p) <= 0.25)


def test_init_uniform_per_block_stream_matches_plain():
    """The one draw over all m parameters gives the same bits as one draw
    per block in packing order, the init of earlier versions."""
    rng = optim.rng_for(0, 0)
    blocks = [rng.uniform(-0.1, 0.1, sl.stop - sl.start)
              for sl, _ in LAYOUT.slices.values()]
    assert np.array_equal(optim.init_uniform(LAYOUT, optim.rng_for(0, 0), 0.1),
                          np.concatenate(blocks))


def test_init_identity(rng):
    p = optim.init_identity(LAYOUT, rng, 0.01)
    sl, shape = LAYOUT.slices["rec1"]
    assert np.array_equal(p[sl].reshape(shape), np.eye(4))
    assert np.all(np.abs(np.delete(p, np.arange(sl.start, sl.stop))) <= 0.01)


def test_sgd_step():
    p = np.array([1.0, 2.0])
    sgd = OptimizerState(kind="sgd", eta=0.1)
    out, state = optim.apply_update(p, np.array([0.5, -1.0]), sgd)
    assert np.array_equal(out, [0.95, 2.1]) and state is sgd
    assert np.array_equal(optim.apply_update(p, np.zeros(2), sgd)[0], p)


def test_path_sgd_step_hand_value():
    p = np.full(3, 0.9)
    g = np.array([0.3, 0.1, 0.3])
    out, _ = optim.apply_update(p, g, OptimizerState(kind="path_sgd", eta=1.0),
                                kappa=np.array([3.0, 1.0, 3.0]))
    assert np.allclose(out, [0.8, 0.8, 0.8], rtol=1e-15)


def test_path_sgd_with_unit_kappa_is_sgd(rng):
    p = rng.uniform(-1, 1, 3)
    g = rng.uniform(-1, 1, 3)
    a, _ = optim.apply_update(p, g, OptimizerState(kind="path_sgd", eta=0.05),
                              kappa=np.ones(3))
    assert np.array_equal(a, optim.apply_update(p, g, OptimizerState(kind="sgd", eta=0.05))[0])


def test_path_sgd_floors_kappa(single_unit_t2):
    p = np.zeros(3)
    g = np.array([1.0, 0.0, 0.0])
    kappa = pathnorm.preconditioner(single_unit_t2, p)
    out, _ = optim.apply_update(p, g, OptimizerState(kind="path_sgd", eta=1e-8), kappa)
    # kappa is 0 at p=0, so the floor eps=1e-8 caps the effective step at eta/eps
    assert np.array_equal(kappa, np.zeros(3))
    assert np.allclose(out, [-1.0, 0.0, 0.0], rtol=1e-12)


@pytest.mark.parametrize("kind", ["path_sgd", "path_adam"])
def test_path_kinds_need_kappa(kind, monkeypatch):
    """apply_update runs no squared-net pass: a path kind handed no kappa
    raises, and the state is left as it was."""
    monkeypatch.setattr(pathnorm, "preconditioner", None)
    state = OptimizerState(kind=kind, eta=0.1)
    with pytest.raises(GraphError, match=f"{kind} needs kappa"):
        optim.apply_update(np.ones(3), np.ones(3), state)
    assert state.t == 0 and state.m1 is None


def test_adam_first_step_is_signlike():
    p = np.array([1.0, -1.0, 0.5])
    g = np.array([10.0, -0.01, 0.0])
    state = OptimizerState(kind="adam", eta=0.1)
    out, state = optim.apply_update(p, g, state)
    assert state.t == 1
    assert np.allclose(out[:2], p[:2] - 0.1 * np.sign(g[:2]), atol=1e-4)
    assert out[2] == p[2]


def test_adam_two_steps_match_hand_recurrence():
    p = np.array([2.0])
    state = OptimizerState(kind="adam", eta=0.1)
    g1, g2 = np.array([0.4]), np.array([-0.2])

    p1, state = optim.apply_update(p, g1, state)
    p2, state = optim.apply_update(p1, g2, state)

    m = 0.1 * g1
    v = 0.001 * g1 * g1
    e1 = p - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2 * g2
    e2 = e1 - 0.1 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
    assert np.allclose(p1, e1, rtol=1e-12)
    assert np.allclose(p2, e2, rtol=1e-12)


def test_path_adam_with_unit_kappa_is_adam(rng):
    p = rng.uniform(-1, 1, 3)
    sa = OptimizerState(kind="adam", eta=0.02)
    sp = OptimizerState(kind="path_adam", eta=0.02)
    qa, qp = p.copy(), p.copy()
    for _ in range(5):
        g = rng.uniform(-1, 1, 3)
        qa, sa = optim.apply_update(qa, g, sa)
        qp, sp = optim.apply_update(qp, g, sp, kappa=np.ones(3))
    assert np.array_equal(qa, qp)
    assert np.array_equal(sa.m1, sp.m1)
    assert np.array_equal(sa.m2, sp.m2)


def test_optimizer_state_validation():
    with pytest.raises(GraphError):
        OptimizerState(kind="rmsprop")
    with pytest.raises(GraphError):
        OptimizerState(kappa_mode="k3")
    # A NaN passes both sides of a sign check, so it is named too.
    for bad in ({"eta": 0.0}, {"eta": np.nan}, {"eta": np.inf}, {"eps": np.nan},
                {"eps": np.inf}):
        with pytest.raises(GraphError, match="must be finite and positive"):
            OptimizerState(kind="path_sgd", **bad)
    st = OptimizerState(kind="path_adam")
    assert st.uses_kappa
    assert not OptimizerState(kind="sgd").uses_kappa


def test_apply_update_dispatch(single_unit_t2, rng):
    p = rng.uniform(0.5, 1.0, 3)
    g = rng.uniform(-0.1, 0.1, 3)
    kappa = pathnorm.preconditioner(single_unit_t2, p)
    for kind in optim.OPTIMIZERS:
        state = OptimizerState(kind=kind, eta=0.01)
        out, state2 = optim.apply_update(p, g, state, kappa)
        assert out.shape == p.shape
        assert np.all(np.isfinite(out))


def test_train_loop_validates_config():
    for bad in ({"steps": -1}, {"batch_size": 0}, {"eval_interval": 0}):
        with pytest.raises(ConfigError):
            optim.train_loop(TINY, tiny_task(), RunConfig(optimizer="sgd", lr=0.1, **bad),
                             TINY_P0, None)


def test_train_loop_zero_steps_records_initial_row():
    res = optim.train_loop(TINY, tiny_task(), RunConfig(optimizer="sgd", lr=0.1, steps=0),
                           TINY_P0, None)
    assert res.status == "budget_exhausted"
    assert res.steps_done == 0
    assert len(res.history) == 1
    assert res.history[0]["step"] == 0


def test_train_loop_path_sgd_converges():
    cfg = RunConfig(optimizer="path_sgd", lr=0.2, steps=1000, batch_size=8,
                    eval_interval=50, target_test_metric=1e-8)
    res = optim.train_loop(TINY, tiny_task(), cfg, TINY_P0, None)
    assert res.status == "converged"
    assert res.steps_done < 1000
    assert res.history[-1]["test_metric"] < 1e-6


def test_train_loop_history_agrees_with_metric_stream():
    cfg = RunConfig(optimizer="sgd", lr=0.05, steps=20, eval_interval=5, batch_size=4)
    res = optim.train_loop(TINY, tiny_task(), cfg, TINY_P0, None)
    assert [r["step"] for r in res.history] == [0, 5, 10, 15, 20]
    for row in res.history:
        assert set(row) == {"step", "train_loss", "train_metric",
                            "test_metric", "wall_ms"}
        assert row["wall_ms"] == 0.0


def test_train_loop_divergence_has_no_nan_rows():
    cfg = RunConfig(optimizer="sgd", lr=30.0, steps=200, eval_interval=10, batch_size=4)
    res = optim.train_loop(TINY, tiny_task(), cfg, np.full(4, 0.3), None)
    assert (res.status, res.reason) == ("diverged", "loss above 1e+06")
    assert res.history
    for row in res.history:
        assert np.isfinite(row["train_loss"])


def test_train_loop_non_finite_kappa_ends_run(monkeypatch):
    task = tasks.AdditionTask(length=4, eval_size=8)
    layout = RnnLayout(2, (3,), 1, 4)
    p0 = optim.init_uniform(layout, optim.rng_for(0, optim.STREAM_INIT), 0.3)
    monkeypatch.setattr(pathnorm, "preconditioner",
                        lambda layout, p, mode: np.full(layout.m, np.inf))
    res = optim.train_loop(layout, task, RunConfig(optimizer="path_sgd", lr=0.01, steps=5,
                                                   eval_interval=1), p0, None)
    assert (res.status, res.reason, res.steps_done) == ("diverged", "non-finite kappa", 0)
    assert [r["step"] for r in res.history] == [0]
    assert np.array_equal(res.params, p0)


def test_train_loop_non_finite_params_end_run(monkeypatch):
    real = optim.apply_update

    def blow_up(p, g, state, kappa=None):
        p, state = real(p, g, state, kappa)
        return (p * np.inf if state.t >= 3 else p), state

    monkeypatch.setattr(optim, "apply_update", blow_up)
    res = optim.train_loop(TINY, tiny_task(), RunConfig(optimizer="adam", lr=0.01, steps=10,
                                                        eval_interval=100), TINY_P0, None)
    assert (res.status, res.reason, res.steps_done) == ("diverged", "non-finite parameters", 2)
    assert np.all(np.isfinite(res.params)) and res.opt.t == 2


def test_train_loop_kappa_at_every_step(monkeypatch):
    calls = []
    real = pathnorm.preconditioner

    def spy(layout, p, mode):
        calls.append(p.copy())
        return real(layout, p, mode)

    task = tiny_task()
    monkeypatch.setattr(pathnorm, "preconditioner", spy)
    cfg = RunConfig(optimizer="path_sgd", lr=0.01, steps=6, eval_interval=100, batch_size=2)
    p = TINY_P0
    res = optim.train_loop(TINY, task, cfg, p, None)
    assert len(calls) == 6
    # each call sees the pre-update parameters of its step
    for step, seen in enumerate(calls):
        batch = task.train_batch(optim.rng_for(cfg.seed, optim.STREAM_DATA, step),
                                 cfg.batch_size)
        assert np.array_equal(seen, p)
        _, g, _ = task.loss_and_grad(TINY, p, batch)
        # the real preconditioner, so the replay does not call the spy
        p, _ = optim.apply_update(p, g, OptimizerState(kind="path_sgd", eta=0.01),
                                  real(TINY, p, "k1"))
    assert np.array_equal(res.params, p)


def test_train_loop_final_row_runs_no_backward(monkeypatch):
    """Each of N path-SGD steps runs two backwards (the loss gradient and the
    squared pass of kappa); the final row, at a step that is no eval step,
    adds none, and it holds loss_and_grad's loss and metric at that step."""
    calls = []
    real = compute.rnn_backward
    monkeypatch.setattr(compute, "rnn_backward",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    task = tasks.AdditionTask(length=4, eval_size=8)
    layout = RnnLayout(2, (3,), 1, 4)
    p0 = optim.init_uniform(layout, optim.rng_for(0, optim.STREAM_INIT), 0.3)
    cfg = RunConfig(optimizer="path_sgd", lr=0.01, steps=5, eval_interval=3, batch_size=4)
    res = optim.train_loop(layout, task, cfg, p0, None)
    assert res.steps_done == 5 and len(calls) == 2 * 5
    assert [r["step"] for r in res.history] == [0, 3, 5]
    batch = task.train_batch(optim.rng_for(cfg.seed, optim.STREAM_DATA, 5), cfg.batch_size)
    loss, g, metric = task.loss_and_grad(layout, res.params, batch)
    assert g is not None
    assert (res.history[-1]["train_loss"], res.history[-1]["train_metric"]) == (loss, metric)


def test_train_loop_target_test_metric_on_final_row_is_budget_exhausted():
    """target_test_metric is checked on eval rows only: met first by the
    row at the step budget, it leaves the run budget_exhausted."""
    cfg = RunConfig(optimizer="path_sgd", lr=0.1, steps=15, eval_interval=10, batch_size=4)
    free = optim.train_loop(TINY, tiny_task(), cfg, TINY_P0, None)
    metrics = [r["test_metric"] for r in free.history]
    assert [r["step"] for r in free.history] == [0, 10, 15]
    assert metrics[-1] < min(metrics[:-1])
    cfg.target_test_metric = metrics[-1]
    res = optim.train_loop(TINY, tiny_task(), cfg, TINY_P0, None)
    assert (res.status, res.steps_done) == ("budget_exhausted", 15)
    assert res.history == free.history


def test_train_loop_resume_matches_uninterrupted():
    """Also when the resumed run evals at another interval, as acceptance
    criterion 8's second train_loop call does."""
    task = tiny_task()
    cfg = RunConfig(optimizer="path_sgd", lr=0.05, steps=20, eval_interval=10)
    half = optim.train_loop(TINY, task, cfg, TINY_P0, None)
    for interval in (10, 5):
        cfg = dataclasses.replace(cfg, steps=40, eval_interval=interval)
        full = optim.train_loop(TINY, task, cfg, TINY_P0, None)
        resumed = optim.train_loop(TINY, task, cfg, half.params, half.opt, start_step=20)
        assert np.array_equal(resumed.params, full.params)
        assert resumed.history == [row for row in full.history if row["step"] >= 20]


def test_train_loop_rejects_start_step_outside_budget():
    task = tiny_task()
    for start in (6, -1):
        with pytest.raises(GraphError, match=f"start_step = {start} .*steps = 5"):
            optim.train_loop(TINY, task, RunConfig(steps=5), TINY_P0, None, start_step=start)
    res = optim.train_loop(TINY, task, RunConfig(steps=5), TINY_P0, None, start_step=5)
    assert (res.status, res.steps_done, [row["step"] for row in res.history]) == (
        "budget_exhausted", 5, [5])


def test_train_loop_resume_adam_state():
    task = tiny_task()
    cfg = RunConfig(optimizer="adam", lr=0.05, steps=30, eval_interval=15)
    full = optim.train_loop(TINY, task, cfg, TINY_P0, None)
    half = optim.train_loop(TINY, task, dataclasses.replace(cfg, steps=15), TINY_P0, None)
    resumed = optim.train_loop(TINY, task, cfg, half.params, half.opt, start_step=15)
    assert np.array_equal(resumed.params, full.params)
    assert np.array_equal(resumed.opt.m1, full.opt.m1)
    assert np.array_equal(resumed.opt.m2, full.opt.m2)
    assert resumed.opt.t == full.opt.t


# T = 4 so kappa2 is not zero; eval rows at 0, 3, 6, 9 and the budget.
RESUME_LAYOUT = RnnLayout(2, (3,), 1, 4)


# sgd and adam read no kappa mode, so RunConfig admits only the default.
@pytest.mark.parametrize("kind, kappa_mode", [
    (kind, mode) for kind in optim.OPTIMIZERS for mode in pathnorm.KAPPA_MODES
    if OptimizerState(kind=kind).uses_kappa or mode == "k1"])
def test_train_loop_resume_at_every_step(tmp_path, kind, kappa_mode):
    task = tasks.AdditionTask(length=4, eval_size=8)
    p0 = optim.init_uniform(RESUME_LAYOUT, optim.rng_for(0, optim.STREAM_INIT), 0.3)
    cfg = RunConfig(optimizer=kind, lr=0.01, kappa_mode=kappa_mode, steps=10,
                    eval_interval=3, batch_size=4)
    full = optim.train_loop(RESUME_LAYOUT, task, cfg, p0, None)
    assert full.status == "budget_exhausted"
    save_checkpoint(tmp_path / "full.txt", 10, RESUME_LAYOUT, full.params, full.opt)
    for s in range(1, 10):
        half = optim.train_loop(RESUME_LAYOUT, task, dataclasses.replace(cfg, steps=s), p0, None)
        save_checkpoint(tmp_path / "half.txt", s, RESUME_LAYOUT, half.params, half.opt)
        start, p, opt = load_checkpoint(tmp_path / "half.txt", RESUME_LAYOUT)
        resumed = optim.train_loop(RESUME_LAYOUT, task, cfg, p, opt, start_step=start)
        assert np.array_equal(resumed.params, full.params)
        assert resumed.opt.t == full.opt.t
        for got, want in ((resumed.opt.m1, full.opt.m1), (resumed.opt.m2, full.opt.m2)):
            assert (got is None and want is None) or np.array_equal(got, want)
        # the rows a resume into the same out_dir keeps, then the resumed ones
        kept = [r for r in half.history if r["step"] < s]
        assert kept + resumed.history == full.history
        save_checkpoint(tmp_path / "resumed.txt", 10, RESUME_LAYOUT,
                        resumed.params, resumed.opt)
        assert ((tmp_path / "resumed.txt").read_bytes()
                == (tmp_path / "full.txt").read_bytes())


@pytest.mark.parametrize("name, kind", [("charlm", "path_adam"), ("seqclass", "adam")])
def test_train_loop_resume_off_eval_step(tmp_path, name, kind):
    """Resume through a checkpoint at step 5, between the eval rows at 3
    and 6, with Adam moments in the checkpoint: the final checkpoint's
    bytes and the history equal the uninterrupted run's."""
    if name == "charlm":
        task = tasks.CharLmTask(tasks.load_char_corpus(text="the quick brown fox " * 30),
                                unroll=5)
    else:
        task = tasks.SeqClassTask(size=3, num_classes=3, n=64, data_seed=2)
    layout = RnnLayout(task.input_dim, (3,), task.output_dim, task.length)
    p0 = optim.init_uniform(layout, optim.rng_for(0, optim.STREAM_INIT), 0.3)
    # adam reads no kappa mode, so its config keeps the default
    mode = "k1_plus_k2" if kind == "path_adam" else "k1"
    cfg = RunConfig(optimizer=kind, lr=0.01, kappa_mode=mode, steps=10, eval_interval=3,
                    batch_size=4)
    full = optim.train_loop(layout, task, cfg, p0, None)
    half = optim.train_loop(layout, task, dataclasses.replace(cfg, steps=5), p0, None)
    save_checkpoint(tmp_path / "half.txt", 5, layout, half.params, half.opt)
    start, p, opt = load_checkpoint(tmp_path / "half.txt", layout)
    assert start == 5 and opt.m1 is not None
    resumed = optim.train_loop(layout, task, cfg, p, opt, start_step=start)
    kept = [r for r in half.history if r["step"] < start]
    assert [r["step"] for r in kept + resumed.history] == [0, 3, 6, 9, 10]
    assert kept + resumed.history == full.history
    for label, res in (("full", full), ("resumed", resumed)):
        save_checkpoint(tmp_path / f"{label}.txt", res.steps_done, layout,
                        res.params, res.opt)
    assert ((tmp_path / "resumed.txt").read_bytes()
            == (tmp_path / "full.txt").read_bytes())


@pytest.mark.parametrize("field, value", [
    ("kind", "adam"), ("eta", 0.5), ("kappa_mode", "k1_plus_k2"), ("eps", 1e3)])
def test_train_loop_steps_with_config_settings(field, value):
    """The update's settings come from the RunConfig: fresh, train_loop ends
    on a hand loop's parameters at the config's eta, and a handed state
    that differs from the config in one setting steps with the config's."""
    task = tasks.AdditionTask(length=4, eval_size=8)
    p0 = optim.init_uniform(RESUME_LAYOUT, optim.rng_for(0, optim.STREAM_INIT), 0.3)
    cfg = RunConfig(optimizer="path_sgd", lr=0.05, steps=5, eval_interval=100, batch_size=4)
    p, state = p0, OptimizerState(kind="path_sgd", eta=0.05)
    for step in range(cfg.steps):
        batch = task.train_batch(optim.rng_for(cfg.seed, optim.STREAM_DATA, step),
                                 cfg.batch_size)
        _, g, _ = task.loss_and_grad(RESUME_LAYOUT, p, batch)
        p, state = optim.apply_update(p, g, state, pathnorm.preconditioner(RESUME_LAYOUT, p))
    fresh = optim.train_loop(RESUME_LAYOUT, task, cfg, p0, None)
    handed = optim.train_loop(RESUME_LAYOUT, task, cfg, p0,
                              dataclasses.replace(state, **{field: value}))
    assert np.array_equal(fresh.params, p) and fresh.opt == state
    assert np.array_equal(handed.params, p) and handed.opt == state


def test_train_loop_rejects_adam_moments_under_another_optimizer():
    """Adam moments handed to a run whose config names sgd or path_sgd could
    not take effect, and the state they end in would not load."""
    adam = optim.train_loop(TINY, tiny_task(), RunConfig(optimizer="adam", lr=0.01, steps=3),
                            TINY_P0, None)
    for kind in ("sgd", "path_sgd"):
        with pytest.raises(GraphError, match=f"moments at t = 3; optimizer = {kind}"):
            optim.train_loop(TINY, tiny_task(), RunConfig(optimizer=kind, lr=0.01, steps=6),
                             adam.params, adam.opt, start_step=3)
    res = optim.train_loop(TINY, tiny_task(), RunConfig(optimizer="adam", lr=0.01, steps=6),
                           adam.params, adam.opt, start_step=3)
    assert res.opt.t == 6

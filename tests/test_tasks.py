import math
import tracemalloc

import numpy as np
import pytest

from pathsgd import compute, tasks
from pathsgd.graph import GraphError, RnnLayout, RnnSpec


# --- metrics -----------------------------------------------------------------

def test_metric_pins():
    assert tasks.metric_mse([1.0, 2.0], [1.0, 4.0]) == 2.0
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    assert tasks.metric_error_rate(logits, [0, 1, 1]) == pytest.approx(1 / 3)
    zeros = np.zeros((5, 8))
    assert tasks.metric_bpc(zeros, np.zeros(5, dtype=int)) == pytest.approx(3.0, abs=1e-12)


def test_softmax_xent_grad():
    logits = np.zeros((1, 2))
    loss, d = tasks.softmax_xent_grad(logits, np.array([0]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(d, [[-0.5, 0.5]], atol=1e-15)
    logits = np.array([[5.0, 1.0, -2.0], [0.0, 0.0, 900.0]])
    loss, d = tasks.softmax_xent_grad(logits, np.array([0, 2]))
    assert np.isfinite(loss)
    assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)


# --- addition ----------------------------------------------------------------

def test_gen_addition_invariants(rng):
    ds = tasks.gen_addition(12, 200, rng)
    assert ds.values.shape == ds.masks.shape == (200, 12)
    assert np.all(ds.masks.sum(axis=1) == 2.0)
    assert np.all(ds.masks[:, :6].sum(axis=1) == 1.0)
    assert np.all(ds.masks[:, 6:].sum(axis=1) == 1.0)
    marked = (ds.values * ds.masks).sum(axis=1)
    assert np.allclose(marked, ds.targets, rtol=1e-15)
    x = ds.inputs()
    assert x.shape == (200, 12, 2)
    assert np.array_equal(x[:, :, 0], ds.values)


def test_gen_addition_short_length_raises(rng):
    with pytest.raises(GraphError):
        tasks.gen_addition(1, 4, rng)


def test_gen_addition_seeded():
    a = tasks.gen_addition(8, 16, np.random.default_rng(5))
    b = tasks.gen_addition(8, 16, np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.targets, b.targets)


def test_addition_grad_matches_fd(rng):
    task = tasks.AdditionTask(length=5, eval_size=8)
    layout = RnnLayout.from_spec(RnnSpec(2, (3,), 1, 5))
    p = rng.uniform(-0.5, 0.5, layout.m)
    batch = task.train_batch(rng, 4)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_addition_eval_fixed_set():
    a = tasks.AdditionTask(length=6, eval_size=32, eval_seed=9)
    b = tasks.AdditionTask(length=6, eval_size=32, eval_seed=9)
    assert np.array_equal(a.eval_set.targets, b.eval_set.targets)


def test_addition_eval_holds_no_trace():
    """Evaluation runs the forward trace-free: its peak allocation stays
    below one chunk's (EVAL_CHUNK, T, H) hidden-state trace."""
    T, H = 200, 64
    task = tasks.AdditionTask(T, eval_size=512)
    layout = RnnLayout.from_spec(RnnSpec(2, (H,), 1, T))
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    tracemalloc.start()
    try:
        task.evaluate(layout, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tasks.EVAL_CHUNK * T * H * 8


def test_addition_backward_holds_no_full_gradient():
    """The blocked rnn_backward allocates no (T, B, H) array of its own: a
    training loss_and_grad that spans several backward blocks peaks below
    1.5x the (T, B, H) forward trace it has to hold, where a full dpre and
    ReLU mask beside the trace would need more than 2x."""
    T, H, B = 1000, 32, 32
    K = compute.BUDGET // (8 * B * H)
    assert -(-T // K) >= 4
    task = tasks.AdditionTask(T, eval_size=1)
    layout = RnnLayout.from_spec(RnnSpec(2, (H,), 1, T))
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    batch = task.train_batch(np.random.default_rng(1), B)
    tracemalloc.start()
    try:
        task.loss_and_grad(layout, p, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * T * B * H * 8


# --- sequential classification ----------------------------------------------

def test_synthetic_glyphs(rng):
    ds = tasks.synthetic_glyphs(50, 4, 3, rng)
    assert ds.pixels.shape == (50, 16)
    assert set(np.unique(ds.labels)) <= {0, 1, 2}
    assert ds.inputs().shape == (50, 16, 1)


def test_split_stratified(rng):
    ds = tasks.synthetic_glyphs(200, 3, 4, rng)
    train, test = tasks.split_stratified(ds, 0.25, rng)
    assert len(train) + len(test) == 200
    assert set(np.unique(train.labels)) == set(np.unique(ds.labels))
    assert set(np.unique(test.labels)) == set(np.unique(ds.labels))
    assert abs(len(test) / 200 - 0.25) < 0.05


def test_seq_class_grad_matches_fd(rng):
    task = tasks.SeqClassTask(size=3, num_classes=3, n=64, data_seed=2)
    layout = RnnLayout.from_spec(RnnSpec(1, (3,), 3, task.length))
    p = rng.uniform(-0.4, 0.4, layout.m)
    batch = task.train_batch(rng, 4)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_seq_class_uniform_logit_metric(rng):
    task = tasks.SeqClassTask(size=3, num_classes=4, n=128, data_seed=3)
    layout = RnnLayout.from_spec(RnnSpec(1, (2,), 4, task.length))
    err = task.evaluate(layout, np.zeros(layout.m))
    share0 = float(np.mean(task.test_set.labels == 0))
    assert err == pytest.approx(1.0 - share0)


# --- char-level language modelling -------------------------------------------

def test_corpus_is_regenerable():
    """The bundled corpus must equal the generator's output byte for byte."""
    bundled = tasks.bundled_corpus_path().read_text()
    assert bundled == tasks.make_synthetic_corpus(110_000, seed=7)
    assert len(bundled) == 110_000


def test_corpus_alphabet():
    corpus = tasks.load_char_corpus(tasks.bundled_corpus_path())
    assert corpus.alphabet == "\n .abcdefghijklmnopqrstuvwy"
    assert corpus.num_symbols == 27
    assert len(corpus.train) == 88_000
    assert len(corpus.valid) == 11_000
    assert len(corpus.test) == 11_000


def test_encode_text():
    ids = tasks.encode_text("abba", "ab")
    assert np.array_equal(ids, [0, 1, 1, 0])
    with pytest.raises(GraphError):
        tasks.encode_text("abc", "ab")


def test_load_char_corpus_validation():
    with pytest.raises(GraphError):
        tasks.load_char_corpus()
    with pytest.raises(GraphError):
        tasks.load_char_corpus(text="abc", fractions=(0.5, 0.5, 0.5))


def test_charlm_windows_shift_by_one(rng):
    corpus = tasks.load_char_corpus(text="abcdefgh" * 40)
    task = tasks.CharLmTask(corpus, unroll=6)
    X, ys = task.train_batch(rng, 5)
    assert X.shape == (5, 6, corpus.num_symbols)
    ids = np.argmax(X, axis=2)
    assert np.array_equal(ids[:, 1:], ys[:, :-1])


def test_charlm_uniform_predictor_bpc():
    corpus = tasks.load_char_corpus(text=tasks.make_synthetic_corpus(4000))
    task = tasks.CharLmTask(corpus, unroll=10, eval_windows=8)
    layout = RnnLayout.from_spec(RnnSpec(task.input_dim, (4,), task.output_dim, 10))
    bpc = task.evaluate(layout, np.zeros(layout.m))
    assert bpc == pytest.approx(math.log2(corpus.num_symbols), abs=1e-12)


def test_charlm_grad_matches_fd(rng):
    corpus = tasks.load_char_corpus(text="the quick brown fox " * 30)
    task = tasks.CharLmTask(corpus, unroll=4)
    layout = RnnLayout.from_spec(RnnSpec(task.input_dim, (3,), task.output_dim, 4))
    p = rng.uniform(-0.4, 0.4, layout.m)
    batch = task.train_batch(rng, 3)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_charlm_validation():
    corpus = tasks.load_char_corpus(text="ab" * 100)
    with pytest.raises(GraphError):
        tasks.CharLmTask(corpus, unroll=0)
    with pytest.raises(GraphError):
        tasks.CharLmTask(corpus, unroll=50)


@pytest.mark.parametrize("name", ["addition", "seqclass", "charlm"])
def test_loss_without_grad_matches(name, rng):
    """grad=False returns g = None and the loss and metric of the full call
    bit for bit, from a forward alone."""
    if name == "addition":
        task = tasks.AdditionTask(length=11, eval_size=8)
    elif name == "seqclass":
        task = tasks.SeqClassTask(size=3, num_classes=3, n=64, data_seed=2)
    else:
        task = tasks.CharLmTask(tasks.load_char_corpus(text="the quick brown fox " * 30),
                                unroll=11)
    layout = RnnLayout.from_spec(RnnSpec(task.input_dim, (3, 2), task.output_dim,
                                         task.length))
    p = rng.uniform(-0.6, 0.6, layout.m)
    batch = task.train_batch(rng, 4)
    loss, g, metric = task.loss_and_grad(layout, p, batch)
    assert g.shape == (layout.m,)
    assert task.loss_and_grad(layout, p, batch, grad=False) == (loss, None, metric)

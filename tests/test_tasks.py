import math
import tracemalloc

import numpy as np
import pytest

from pathsgd import compute, pathnorm, tasks
from pathsgd.graph import GraphError, RnnLayout

import reference


# --- the shared route and the heads ------------------------------------------

def test_tasks_share_one_route():
    """loss_and_grad and evaluate are defined once, on Task; each task
    brings its data, train_batch, held_out and one head."""
    for cls in (tasks.AdditionTask, tasks.SeqClassTask, tasks.CharLmTask):
        assert issubclass(cls, tasks.Task)
        assert not {"loss_and_grad", "evaluate"} & set(vars(cls)), cls
        assert {"train_batch", "held_out", "head"} <= set(vars(cls)), cls


def test_metric_pins():
    """Each head's loss and metric on fixed outputs."""
    add = tasks.AdditionTask(length=2, eval_size=1)
    loss, _, mse = add.head(np.array([[[1.0]], [[2.0]]]), np.array([1.0, 4.0]))
    assert loss == mse == 2.0
    seq = tasks.SeqClassTask(size=2, num_classes=2, n=16)
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])[:, None, :]
    assert seq.head(logits, np.array([0, 1, 1]))[2] == pytest.approx(1 / 3)
    charlm = tasks.CharLmTask(tasks.load_char_corpus(text="abcdefgh" * 40), unroll=5)
    loss, _, bpc = charlm.head(np.zeros((5, 1, 8)), np.zeros((5, 1), dtype=int))
    assert loss == pytest.approx(math.log(8.0), abs=1e-12)
    assert bpc == pytest.approx(3.0, abs=1e-12)


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
    X, targets = tasks.gen_addition(12, 200, rng)
    assert X.shape == (200, 12, 2) and targets.shape == (200,)
    values, masks = X[:, :, 0], X[:, :, 1]
    assert np.all(masks.sum(axis=1) == 2.0)
    assert np.all(masks[:, :6].sum(axis=1) == 1.0)
    assert np.all(masks[:, 6:].sum(axis=1) == 1.0)
    marked = (values * masks).sum(axis=1)
    assert np.allclose(marked, targets, rtol=1e-15)


def test_gen_addition_short_length_raises(rng):
    with pytest.raises(GraphError):
        tasks.gen_addition(1, 4, rng)


def test_gen_addition_seeded():
    a = tasks.gen_addition(8, 16, np.random.default_rng(5))
    b = tasks.gen_addition(8, 16, np.random.default_rng(5))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("length, n, seed", [
    (2, 1, 0), (3, 5, 7), (40, 32, 1), (40, 1024, 1), (750, 512, 1), (751, 64, 3)])
def test_gen_addition_matches_reference(length, n, seed):
    """Drawing straight into the final array gives the earlier form's X and
    targets bit for bit and leaves the generator in the same state."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    X, targets = tasks.gen_addition(length, n, rng)
    X_ref, targets_ref = reference.gen_addition(length, n, ref)
    assert X.shape == X_ref.shape
    assert X.tobytes() == X_ref.tobytes()
    assert targets.tobytes() == targets_ref.tobytes()
    assert rng.random() == ref.random()


def test_gen_addition_allocates_one_copy_of_the_set():
    """The draws go into X's own buffer, so building a set peaks at X plus
    a few (n,) index arrays; a whole-set temporary of the values would take
    it to 1.5x X."""
    tracemalloc.start()
    try:
        X, _ = tasks.gen_addition(200, 512, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + 64 * 1024


def test_addition_grad_matches_fd(rng):
    task = tasks.AdditionTask(length=5, eval_size=8)
    layout = RnnLayout(2, (3,), 1, 5)
    p = rng.uniform(-0.5, 0.5, layout.m)
    batch = task.train_batch(rng, 4)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_addition_eval_fixed_set():
    a = tasks.AdditionTask(length=6, eval_size=32, eval_seed=9)
    b = tasks.AdditionTask(length=6, eval_size=32, eval_seed=9)
    assert np.array_equal(next(a.held_out(32))[1], next(b.held_out(32))[1])


@pytest.mark.parametrize("length, n, value_sum, target_sum, mark_sum", [
    (40, 1024, 20454.30030889075, 999.0503786504418, 40111),
    (750, 512, 191881.18983009298, 505.4222489367922, 378056)])
def test_held_out_is_the_same_at_every_call(length, n, value_sum, target_sum,
                                            mark_sum):
    """held_out rebuilds the set from eval_seed at each call: the calls agree
    bit for bit, and with the pinned exact sums of the set's values, its
    targets and its marked steps."""
    task = tasks.AdditionTask(length, eval_size=n, eval_seed=1)
    (X, target), (X2, target2) = next(task.held_out(n)), next(task.held_out(n))
    assert X.tobytes() == X2.tobytes() and target.tobytes() == target2.tobytes()
    assert math.fsum(X[:, :, 0].ravel()) == value_sum
    assert math.fsum(target) == target_sum
    assert int(np.nonzero(X[:, :, 1])[1].sum()) == mark_sum


def test_addition_task_keeps_no_held_out_set():
    """An AdditionTask holds no array, after construction or after an
    evaluate: the held-out set (1.6 MB here) exists only while evaluate
    runs."""
    T = 200
    layout = RnnLayout(2, (8,), 1, T)
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    tracemalloc.start()
    try:
        task = tasks.AdditionTask(T, eval_size=512)
        built = tracemalloc.get_traced_memory()[0]
        task.evaluate(layout, p)
        evaluated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built < 64 * 1024 and evaluated < 64 * 1024
    assert not any(isinstance(v, np.ndarray) for v in vars(task).values())


def test_addition_eval_holds_no_trace():
    """Evaluation runs the forward trace-free, one chunk of rows at a time:
    with the held-out chunks built beforehand, its peak allocation stays
    below one compute.BUDGET, so it holds no hidden-state trace (13 MB for
    one 128-row chunk here) and no second, transposed copy of the whole set
    (1.6 MB)."""
    T, H = 200, 64
    task = tasks.AdditionTask(T, eval_size=512)
    layout = RnnLayout(2, (H,), 1, T)
    held = list(task.held_out(compute.row_chunk(layout)))
    task.held_out = lambda rows: iter(held)
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    tracemalloc.start()
    try:
        task.evaluate(layout, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < compute.BUDGET


@pytest.mark.parametrize("length, hidden, n", [
    (750, 100, 512), (40, 32, 1024),
    (41, 32, 300), (750, 100, 300)])  # a partial last chunk
def test_chunked_evaluate_is_bit_identical_to_the_whole_set(length, hidden, n):
    """evaluate builds and runs the held-out set one chunk of rows at a
    time; the chunks join into gen_addition's whole set, and the result
    has the bits of the head over forwards of that set's rows taken in the
    same chunks, products of the same shapes.  One forward over all rows
    runs products of other shapes, which BLAS may round differently, so it
    agrees within 1e-12 relative only: at these inits the recurrence
    contracts, so a last-place difference in a product stays near 1e-16
    relative."""
    task = tasks.AdditionTask(length, eval_size=n, eval_seed=1)
    layout = RnnLayout(2, (hidden,), 1, length)
    p = np.random.default_rng(3).uniform(-0.1, 0.1, layout.m)
    X, target = tasks.gen_addition(length, n, np.random.default_rng(1))
    rows = compute.row_chunk(layout)
    chunks = list(task.held_out(rows))
    assert len(chunks) == -(-n // rows) > 1
    assert np.concatenate([c[0] for c in chunks]).tobytes() == X.tobytes()
    assert np.concatenate([c[1] for c in chunks]).tobytes() == target.tobytes()

    def forward(X):
        return compute.rnn_forward(layout, p, X, keep_trace=False, first_output=length - 1).y

    metric = task.evaluate(layout, p)
    y = np.concatenate([forward(X[lo:lo + rows]) for lo in range(0, n, rows)])
    assert metric == task.head(y, target)[2]
    whole = task.head(forward(X), target)[2]
    assert abs(metric - whole) <= 1e-12 * abs(whole)


def test_traced_peaks_at_paper_scale():
    """At add-T750-k12's shape (T = 750, H = 100, 512 held-out rows, a batch
    of 32) a training loss_and_grad, the k1_plus_k2 preconditioner and the
    evaluation each peak at 3.6 MiB or less: the step's trace is
    checkpointed every 38 steps, kappa2 frees the squared-net states it
    has copied, and the evaluation copies its input one block at a time.
    With an 81-step interval, states kept beside kappa2's copies and whole
    input copies they peaked at 5.20, 4.60 and 4.01 MiB."""
    T, H = 750, 100
    task = tasks.AdditionTask(T, eval_size=512)
    layout = RnnLayout(2, (H,), 1, T)
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    batch = task.train_batch(np.random.default_rng(1), 32)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 3.6 * 2**20
    assert peak(lambda: task.loss_and_grad(layout, p, batch)) <= bound
    assert peak(lambda: pathnorm.preconditioner(layout, p, "k1_plus_k2")) <= bound
    assert peak(lambda: task.evaluate(layout, p)) <= bound


def test_addition_backward_holds_no_full_gradient():
    """Neither the forward nor the blocked rnn_backward allocates a
    (T, B, H) array: a training loss_and_grad that spans several blocks
    keeps only the state carried into each block, recomputes each block's
    states in the backward, and peaks below one (T, B, H) trace (8.2 MB
    here), which a forward that kept every state would hold alone."""
    T, H, B = 1000, 32, 32
    K = compute.BUDGET // (8 * B * H)
    assert -(-T // K) >= 4
    task = tasks.AdditionTask(T, eval_size=1)
    layout = RnnLayout(2, (H,), 1, T)
    p = np.random.default_rng(0).uniform(-0.1, 0.1, layout.m)
    batch = task.train_batch(np.random.default_rng(1), B)
    tracemalloc.start()
    try:
        task.loss_and_grad(layout, p, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < T * B * H * 8


# --- sequential classification ----------------------------------------------

def test_synthetic_glyphs(rng):
    task = tasks.SeqClassTask(size=4, num_classes=3, n=50)
    assert task.train_X.shape == (len(task.train_labels), 16, 1)
    assert task.test_X.shape == (len(task.test_labels), 16, 1)
    assert set(np.unique(task.train_labels)) <= {0, 1, 2}
    X, labels = task.train_batch(rng, 7)
    assert X.shape == (7, 16, 1) and labels.shape == (7,)


def test_split_stratified():
    task = tasks.SeqClassTask(size=3, num_classes=4, n=200, test_frac=0.25)
    train, test = task.train_labels, task.test_labels
    assert len(train) + len(test) == 200
    assert set(np.unique(train)) == set(np.unique(test)) == {0, 1, 2, 3}
    assert abs(len(test) / 200 - 0.25) < 0.05


def test_seq_class_grad_matches_fd(rng):
    task = tasks.SeqClassTask(size=3, num_classes=3, n=64, data_seed=2)
    layout = RnnLayout(1, (3,), 3, task.length)
    p = rng.uniform(-0.4, 0.4, layout.m)
    batch = task.train_batch(rng, 4)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_seq_class_uniform_logit_metric(rng):
    task = tasks.SeqClassTask(size=3, num_classes=4, n=128, data_seed=3)
    layout = RnnLayout(1, (2,), 4, task.length)
    err = task.evaluate(layout, np.zeros(layout.m))
    share0 = float(np.mean(task.test_labels == 0))
    assert err == pytest.approx(1.0 - share0)


# --- char-level language modelling -------------------------------------------

def test_corpus_is_regenerable():
    """The bundled corpus must equal the generator's output byte for byte."""
    bundled = tasks.bundled_corpus_path().read_text()
    assert bundled == reference.make_synthetic_corpus(110_000, seed=7)
    assert len(bundled) == 110_000


def test_corpus_alphabet():
    """The bundled corpus's alphabet and the ids of its train and test
    splits, as the per-character dict encoding gave them."""
    corpus = tasks.load_char_corpus(tasks.bundled_corpus_path())
    assert corpus.alphabet == "\n .abcdefghijklmnopqrstuvwy"
    assert corpus.num_symbols == 27
    assert corpus.train.dtype == corpus.test.dtype == np.uint8
    assert len(corpus.train) == 88_000
    assert int(corpus.train.sum()) == 1_004_063
    assert len(corpus.test) == 11_000
    assert int(corpus.test.sum()) == 125_831


TEXTS = {
    "ascii": "the quick brown fox.\n",
    "latin1": "café naïve déjà vu ÿ\x00",
    "cjk": "日本語のテキスト、中文文本",
    "astral": "a🙂b😀c\U0010ffff",
    "surrogate": "ab\udcc3\ud800",
    "empty": "",
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_encode_text_matches_per_character_reference(text):
    alphabet = "".join(sorted(set(text)))
    ids = reference.encode_text(text, alphabet)
    assert ids.tolist() == [alphabet.index(c) for c in text]
    assert ids.dtype == np.uint8
    corpus = tasks.load_char_corpus(text=text * 10)
    assert corpus.alphabet == alphabet
    whole = reference.encode_text(text * 10, alphabet)
    assert np.array_equal(corpus.train, whole[:len(corpus.train)])
    assert np.array_equal(corpus.test, whole[len(whole) - len(corpus.test):])


def test_encode_text():
    ids = reference.encode_text("abba", "ba")
    assert np.array_equal(ids, [1, 0, 0, 1])
    with pytest.raises(GraphError, match="character 'é' not in alphabet"):
        reference.encode_text("abéc", "ab")


@pytest.mark.parametrize("size, dtype", [(255, np.uint8), (256, np.uint16),
                                         (70_000, np.uint32)])
def test_ids_take_the_smallest_dtype_that_holds_the_alphabet(size, dtype):
    alphabet = "".join(map(chr, range(size)))
    text = alphabet[::-1] + alphabet[:3]
    ids = reference.encode_text(text, alphabet)
    assert ids.dtype == dtype
    assert ids.tolist() == [*range(size - 1, -1, -1), 0, 1, 2]
    assert tasks.load_char_corpus(text=text).train.dtype == dtype


def test_load_char_corpus_validation():
    with pytest.raises(GraphError):
        tasks.load_char_corpus()


def test_charlm_windows_shift_by_one(rng):
    corpus = tasks.load_char_corpus(text="abcdefgh" * 40)
    task = tasks.CharLmTask(corpus, unroll=6)
    X, ys = task.train_batch(rng, 5)
    assert X.shape == (5, 6, corpus.num_symbols)
    ids = np.argmax(X, axis=2)
    assert np.array_equal(ids[:, 1:], ys[:, :-1])


def test_charlm_uniform_predictor_bpc():
    corpus = tasks.load_char_corpus(text=reference.make_synthetic_corpus(4000))
    task = tasks.CharLmTask(corpus, unroll=10, eval_windows=8)
    layout = RnnLayout(task.input_dim, (4,), task.output_dim, 10)
    bpc = task.evaluate(layout, np.zeros(layout.m))
    assert bpc == pytest.approx(math.log2(corpus.num_symbols), abs=1e-12)


def test_charlm_grad_matches_fd(rng):
    corpus = tasks.load_char_corpus(text="the quick brown fox " * 30)
    task = tasks.CharLmTask(corpus, unroll=4)
    layout = RnnLayout(task.input_dim, (3,), task.output_dim, 4)
    p = rng.uniform(-0.4, 0.4, layout.m)
    batch = task.train_batch(rng, 3)
    _, g, _ = task.loss_and_grad(layout, p, batch)
    fd = compute.central_diff(lambda q: task.loss_and_grad(layout, q, batch)[0], p, 1e-6)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("test_chars, starts", [(6, [0]), (11, [0, 5]), (12, [0, 5])])
def test_charlm_eval_windows_reach_the_end(test_chars, starts):
    """A window starting at len(test) - unroll - 1 still has its last
    target, so it is evaluated: a test split of unroll + 1 characters gives
    one window, and one of 2 unroll + 1 gives a last start of unroll."""
    text = ("abcdefghijklmnopqrstuvwxyz" * 5)[:10 * test_chars]
    corpus = tasks.load_char_corpus(text=text)
    assert len(corpus.test) == test_chars
    task = tasks.CharLmTask(corpus, unroll=5)
    assert task.eval_starts.tolist() == starts
    layout = RnnLayout(task.input_dim, (4,), task.output_dim, 5)
    bpc = task.evaluate(layout, np.zeros(layout.m))
    assert bpc == pytest.approx(math.log2(corpus.num_symbols), abs=1e-12)


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
    layout = RnnLayout(task.input_dim, (3, 2), task.output_dim, task.length)
    p = rng.uniform(-0.6, 0.6, layout.m)
    batch = task.train_batch(rng, 4)
    loss, g, metric = task.loss_and_grad(layout, p, batch)
    assert g.shape == (layout.m,)
    assert task.loss_and_grad(layout, p, batch, grad=False) == (loss, None, metric)


@pytest.mark.parametrize("name", ["addition", "seqclass", "charlm"])
def test_evaluate_does_not_depend_on_budget(name, rng, monkeypatch):
    """evaluate is one trace-free forward and its metric; forced into
    one-row, one-step chunks by a tiny compute.BUDGET it returns the value
    of the default budget up to rounding (a row of a BLAS product may round
    differently at another row count)."""
    if name == "addition":
        task = tasks.AdditionTask(length=11, eval_size=37)
    elif name == "seqclass":
        task = tasks.SeqClassTask(size=3, num_classes=3, n=64, data_seed=2)
    else:
        task = tasks.CharLmTask(tasks.load_char_corpus(text="the quick brown fox " * 30),
                                unroll=11)
    layout = RnnLayout(task.input_dim, (3, 2), task.output_dim, task.length)
    p = rng.uniform(-0.6, 0.6, layout.m)
    want = task.evaluate(layout, p)
    monkeypatch.setattr(compute, "BUDGET", 1)
    assert task.evaluate(layout, p) == pytest.approx(want, rel=1e-12)

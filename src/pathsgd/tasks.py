"""Desk-scale sequence tasks: their data and one loss head each.

The task route is written once, in Task: loss_and_grad runs the forward of
``compute`` on an (X, target) batch, the task's head and the backward from
the head's dY (with grad=False, the forward alone and g = None); evaluate
runs the held-out set through trace-free forwards one chunk of rows at a
time.  head(y, target) -> (loss, dY, metric) is each task's one
definition of its loss and metric.  The addition task keeps no copy of its
held-out set: it rebuilds the set from its seed at each evaluation, one
chunk at a time.  The many-to-one tasks (addition, seqclass) read only the
last step's output, so their forward projects from first_output = T - 1;
charlm reads every step (first_output = 0)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compute
from .graph import GraphError, RnnLayout


# ---------------------------------------------------------------------------
# the task route

class Task:
    """The forward, head and backward every task shares.

    A subclass sets metric_name, input_dim, output_dim, length and
    first_output, and defines train_batch, held_out and head.
    held_out(rows) yields the held-out set as (X, target) chunks of at most
    rows rows, in order, the same chunks at every call.
    """

    def loss_and_grad(self, layout: RnnLayout, p, batch, grad: bool = True):
        """(loss, g, metric) on an (X, target) batch; g is None without grad."""
        X, target = batch
        tr = compute.rnn_forward(layout, p, X, keep_trace=grad,
                                 first_output=self.first_output)
        loss, dY, metric = self.head(tr.y, target)
        g = compute.rnn_backward(layout, p, tr, dY) if grad else None
        return loss, g, metric

    def evaluate(self, layout: RnnLayout, p) -> float:
        """The head's metric on the held-out set.  This is the one place
        rows are chunked: the set is taken in chunks of
        compute.row_chunk(layout) rows, one trace-free forward each, so
        the forward's blocks stay within compute.BUDGET whatever the set's
        size, and the head runs once on the joined outputs and targets.
        The result agrees with the head over one forward of the whole set
        up to rounding; the tests check that it keeps the bits at the
        benchmark shapes."""
        chunks = [(compute.rnn_forward(layout, p, X, keep_trace=False,
                                       first_output=self.first_output).y, target)
                  for X, target in self.held_out(compute.row_chunk(layout))]
        y, target = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
        return self.head(y, target)[2]


def softmax_xent_grad(logits: np.ndarray, targets: np.ndarray):
    """Summed cross-entropy in nats and its gradient wrt logits.

    logits: (n, k); targets: (n,).  Gradient rows are softmax(z) - onehot.
    """
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets)
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp_t = (logits[np.arange(len(targets)), targets]
              - zmax[:, 0] - np.log(sez[:, 0]))
    dlogits = ez / sez
    dlogits[np.arange(len(targets)), targets] -= 1.0
    return float(-logp_t.sum()), dlogits


# ---------------------------------------------------------------------------
# addition problem

def gen_addition(length: int, n: int, rng: np.random.Generator, marks=None):
    """(X, targets): X is (n, T, 2), a uniform value channel and a mask
    channel that marks two positions, one in each half of the sequence; the
    target is the sum of the values at the marked positions.  The uniform
    draws go straight into the value plane of one channel-first (2, n, T)
    array, which X views channel-last, so the set is allocated once with no
    whole-set temporary.  rng.random gives the doubles of rng.uniform(0, 1),
    one 64-bit draw each in C order, and leaves rng in the same state.  The
    marks are then drawn from rng, unless marks gives them."""
    planes = np.zeros((2, n, length))
    rng.random(out=planes[0])
    first, second = _marks(rng, length, n) if marks is None else marks
    rows = np.arange(n)
    planes[1, rows, first] = 1.0
    planes[1, rows, second] = 1.0
    return planes.transpose(1, 2, 0), planes[0, rows, first] + planes[0, rows, second]


def _marks(rng: np.random.Generator, length: int, n: int):
    """The marked step in the first and in the second half of n rows."""
    if length < 2:
        raise GraphError("gen_addition: length must be >= 2")
    return (rng.integers(0, length // 2, size=n),
            rng.integers(length // 2, length, size=n))


class AdditionTask(Task):
    """Predict the sum of two marked sequence entries from the final step,
    the only output the forward projects (first_output = T - 1).  The task
    holds no arrays.  The held-out set is gen_addition's set of eval_size
    rows from default_rng(eval_seed), and held_out rebuilds it at each call,
    one chunk of rows at a time, with the bits of the whole set: rows lo to
    hi of the value plane are draws lo T to hi T - 1 of that stream, read in
    order from one generator, and the marks come from a second one advanced
    past all the values."""

    input_dim = 2
    output_dim = 1
    metric_name = "mse"

    def __init__(self, length: int, eval_size: int = 512, eval_seed: int = 1):
        self.length = length
        self.first_output = length - 1
        self.eval_size = eval_size
        self.eval_seed = eval_seed

    def train_batch(self, rng: np.random.Generator, size: int):
        return gen_addition(self.length, size, rng)

    def held_out(self, rows: int):
        T, n = self.length, self.eval_size
        rng = np.random.default_rng(self.eval_seed)
        rng.bit_generator.advance(n * T)
        first, second = _marks(rng, T, n)
        rng = np.random.default_rng(self.eval_seed)
        for lo in range(0, n, rows):
            yield gen_addition(T, min(rows, n - lo), rng,
                               (first[lo:lo + rows], second[lo:lo + rows]))

    def head(self, y: np.ndarray, target: np.ndarray):
        """Mean squared error; the metric is the loss itself."""
        err = y[:, -1, 0] - target
        loss = float(np.mean(err ** 2))
        return loss, (2.0 * err / len(err)).reshape(y.shape), loss


# ---------------------------------------------------------------------------
# sequential classification of tiny glyph images

class SeqClassTask(Task):
    """Classify a pixel-sequence image from the final step's logits, the
    only output the forward projects (first_output = T - 1).  The images
    are noisy copies of per-class binary templates, flattened row-major so
    an image is consumed one pixel per time step, and split per class so
    both sides see every class."""

    input_dim = 1
    metric_name = "error_rate"

    def __init__(self, size: int = 8, num_classes: int = 4, n: int = 1024,
                 test_frac: float = 0.25, data_seed: int = 1):
        rng = np.random.default_rng(data_seed)
        self.output_dim = num_classes
        self.length = size * size
        self.first_output = self.length - 1
        templates = (rng.uniform(size=(num_classes, size, size)) > 0.5).astype(float)
        labels = rng.integers(0, num_classes, size=n)
        images = templates[labels] + 0.3 * rng.standard_normal((n, size, size))
        X = images.reshape(n, self.length, 1)
        test = np.zeros(n, dtype=bool)
        for k in np.unique(labels):
            idx = rng.permutation(np.flatnonzero(labels == k))
            test[idx[:int(round(len(idx) * test_frac))]] = True
        self.train_X, self.train_labels = X[~test], labels[~test]
        self.test_X, self.test_labels = X[test], labels[test]
        if not len(self.train_labels) or not len(self.test_labels):
            raise GraphError(f"seqclass: {n} examples with test_frac = {test_frac} "
                             "leave a split empty")

    def train_batch(self, rng: np.random.Generator, size: int):
        idx = rng.integers(0, len(self.train_labels), size=size)
        return self.train_X[idx], self.train_labels[idx]

    def held_out(self, rows: int):
        for lo in range(0, len(self.test_labels), rows):
            yield self.test_X[lo:lo + rows], self.test_labels[lo:lo + rows]

    def head(self, y: np.ndarray, target: np.ndarray):
        """Mean softmax cross-entropy in nats; the metric is the error rate,
        the share of rows whose argmax is not the label."""
        logits = y[:, -1, :]
        total, dlogits = softmax_xent_grad(logits, target)
        n = len(target)
        error_rate = float(np.mean(np.argmax(logits, axis=-1) != target))
        return total / n, (dlogits / n).reshape(y.shape), error_rate


# ---------------------------------------------------------------------------
# character-level language modelling

@dataclass(frozen=True)
class CharCorpus:
    """A corpus's alphabet and its train and test ids over it."""

    alphabet: str
    train: np.ndarray
    test: np.ndarray

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)


def _code_points(text: str) -> np.ndarray:
    """One uint32 code point per character of text, lone surrogates too."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _lookup(codes: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The index in symbols of each code point, read from one table indexed
    by code point, in the smallest unsigned dtype that holds len(symbols)."""
    n = len(symbols)
    size = int(max(codes.max(initial=0), symbols.max(initial=0))) + 1
    table = np.full(size, n, dtype=np.min_scalar_type(n))
    table[symbols] = np.arange(n)
    ids = table[codes]
    if ids.size and ids.max() == n:
        first = codes[np.argmax(ids == n)]
        raise GraphError(f"character {chr(first)!r} not in alphabet")
    return ids


def load_char_corpus(path=None, text: str | None = None,
                     fractions=(0.8, 0.1, 0.1)) -> CharCorpus:
    """Split a text corpus, read from path as UTF-8 or given as text, into
    contiguous train and test id arrays over its alphabet, the characters
    it holds sorted by code point (as sorted(set(text)) sorts them).  The
    middle fraction is cut out and not kept.  The text is decoded to code
    points once and mapped in NumPy, with no Python step per character;
    ids take the smallest unsigned dtype that holds the alphabet's size."""
    if text is None:
        if path is None:
            raise GraphError("load_char_corpus: need a path or a text")
        text = Path(path).read_text(encoding="utf-8")
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f <= 0 for f in fractions):
        raise GraphError("load_char_corpus: fractions must be positive and sum to 1")
    codes = _code_points(text)
    present = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
    present[codes] = True  # unlike np.bincount, no intp copy of codes
    symbols = np.flatnonzero(present)
    ids = _lookup(codes, symbols)
    n = len(ids)
    a = int(n * fractions[0])
    b = a + int(n * fractions[1])
    return CharCorpus("".join(map(chr, symbols.tolist())), ids[:a], ids[b:])


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "corpus.txt"


class CharLmTask(Task):
    """Next-character prediction with one-hot inputs and a per-step readout,
    so the forward projects every step (first_output = 0)."""

    metric_name = "bpc"
    first_output = 0

    def __init__(self, corpus: CharCorpus, unroll: int = 50, eval_windows: int = 64):
        if unroll < 1:
            raise GraphError("CharLmTask: unroll must be >= 1")
        shortest = min(len(corpus.train), len(corpus.test))
        if shortest <= unroll:
            raise GraphError("CharLmTask: corpus splits shorter than the unroll")
        self.corpus = corpus
        self.length = unroll
        self.input_dim = corpus.num_symbols
        self.output_dim = corpus.num_symbols
        self.eye = np.eye(corpus.num_symbols)
        self.eval_starts = np.arange(0, len(corpus.test) - unroll, unroll)[:eval_windows]

    def _window_batch(self, ids: np.ndarray, starts: np.ndarray):
        offs = np.arange(self.length)
        xs = ids[starts[:, None] + offs[None, :]]
        ys = ids[starts[:, None] + offs[None, :] + 1]
        return self.eye[xs], ys

    def train_batch(self, rng: np.random.Generator, size: int):
        starts = rng.integers(0, len(self.corpus.train) - self.length, size=size)
        return self._window_batch(self.corpus.train, starts)

    def held_out(self, rows: int):
        for lo in range(0, len(self.eval_starts), rows):
            yield self._window_batch(self.corpus.test, self.eval_starts[lo:lo + rows])

    def head(self, y: np.ndarray, target: np.ndarray):
        """Mean softmax cross-entropy per character in nats; the metric is
        the same mean in bits per character."""
        B, T, A = y.shape
        total, dflat = softmax_xent_grad(y.reshape(B * T, A), target.reshape(-1))
        loss = total / (B * T)
        return loss, dflat.reshape(B, T, A) / (B * T), loss / math.log(2.0)

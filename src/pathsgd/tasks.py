"""Desk-scale sequence tasks: their data and one loss head each, on the
forward / backward route that Task writes once."""

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
    first_output, the first step whose output the head reads, and defines
    train_batch, held_out and head.  held_out(rows) yields the held-out set
    as (X, target) chunks of at most rows rows, the same at every call.
    head(y, target) -> (loss, dY, metric) is the task's one definition of
    its loss and metric.
    """

    def loss_and_grad(self, layout: RnnLayout, p, batch, grad: bool = True):
        """(loss, g, metric) on an (X, target) batch; g is None without grad."""
        X, target = batch
        tr = compute.rnn_forward(layout, p, X, keep_trace=grad,
                                 first_output=self.first_output)
        loss, dY, metric = self.head(tr.y, target)
        g = compute.rnn_backward(tr, dY) if grad else None
        return loss, g, metric

    def evaluate(self, layout: RnnLayout, p) -> float:
        """The head's metric on the held-out set, run in chunks of
        compute.row_chunk(layout) rows, one trace-free forward each, so the
        forward's blocks stay within compute.BUDGET whatever the set's
        size.  One forward of the whole set runs products of other shapes,
        which BLAS may round differently, so it agrees only up to
        rounding."""
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
    channel that marks one position in each half of the sequence, and the
    target is the sum of the two marked values.  The values are drawn
    straight into one channel-first (2, n, T) array that X views, with the
    doubles and generator state of rng.uniform(0, 1); the marks come next
    from rng, unless marks gives them."""
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
    """Predict the sum of two marked sequence entries from the final step.
    The task holds no arrays: held_out rebuilds gen_addition's set of
    eval_size rows from default_rng(eval_seed) at each call, one chunk at a
    time, with the bits of the whole set (rows lo to hi of the values are
    draws lo T to hi T - 1 of that stream, and the marks come from a second
    generator advanced past all the values)."""

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
    """Classify a pixel-sequence image from the final step's logits.  The
    images are noisy copies of per-class binary templates, read one pixel
    per step in row-major order, and split per class so both sides see
    every class."""

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


def load_char_corpus(path=None, text: str | None = None) -> CharCorpus:
    """Split a text corpus, read from path as UTF-8 or given as text, into
    train ids (the first 80%) and test ids (the last 10%) over its
    alphabet, sorted(set(text)).  The text is mapped in NumPy with no
    Python step per character, to ids of the smallest unsigned dtype that
    holds the alphabet."""
    if text is None:
        if path is None:
            raise GraphError("load_char_corpus: need a path or a text")
        text = Path(path).read_text(encoding="utf-8")
    # one uint32 code point per character, lone surrogates too
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    present = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
    present[codes] = True  # unlike np.bincount, no intp copy of codes
    symbols = np.flatnonzero(present)
    table = np.zeros(len(present), dtype=np.min_scalar_type(len(symbols)))
    table[symbols] = np.arange(len(symbols))
    ids = table[codes]
    n = len(ids)
    a = int(n * 0.8)
    b = a + int(n * 0.1)
    return CharCorpus("".join(map(chr, symbols.tolist())), ids[:a], ids[b:])


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "corpus.txt"


class CharLmTask(Task):
    """Next-character prediction with one-hot inputs and a per-step
    readout."""

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

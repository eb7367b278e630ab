"""Desk-scale sequence tasks: data generators, losses, and metrics.

Each task object knows how to draw a training batch from a supplied RNG, how
to compute the batch loss / gradient / training metric at given parameters
(the gradient only when asked: loss_and_grad(..., grad=False) runs the
forward alone and returns g = None), and how to score a fixed held-out set.
The model is an RnnLayout, run through the vectorized forward and backward
of ``compute``.  The many-to-one tasks (addition, seqclass) read only the
last step's output, so they run the forward with first_output = T - 1 in
training and evaluation alike; charlm reads every step.  Each evaluate is
one trace-free forward over the whole held-out set and its metric: compute
alone sizes the chunks that forward runs in, from compute.BUDGET.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compute
from .graph import GraphError, RnnLayout

_WORDS = (
    "the of and to in is was for on with as his that it at from by this had "
    "not are but they you were her she all would there been one their when "
    "who will more no if out so said what up its about into than them can "
    "only other new some could time these two may then do first any my now "
    "such like our over man me even most made after also did many before "
    "must through back years where much your way well down should because "
    "each just those people how too little state good very make world still "
    "own see men work long get here between both life being under never day "
    "same another know while last might us great old year off come since "
    "against go came right used take three house whole again round small "
    "found every water place thought hand light side part early morning "
    "river stone green quiet paper letter window garden winter summer "
    "mountain valley road bridge silver cloud evening answer question "
    "moment silence").split()


# ---------------------------------------------------------------------------
# metrics

def metric_mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(np.mean((pred - target) ** 2))


def metric_error_rate(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax is not the label."""
    return float(np.mean(np.argmax(logits, axis=-1) != np.asarray(labels)))


def metric_bpc(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean bits per character, -log2 p(target), under softmax(logits).

    logits: (n, k); targets: (n,) integer classes.
    """
    loss, _ = softmax_xent_grad(logits, targets)
    return loss / logits.shape[0] / math.log(2.0)


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

@dataclass(frozen=True)
class AdditionSet:
    values: np.ndarray   # (n, T) uniform values
    masks: np.ndarray    # (n, T) exactly two ones
    targets: np.ndarray  # (n,) sum of the two marked values

    def __len__(self) -> int:
        return self.values.shape[0]

    def inputs(self) -> np.ndarray:
        """(n, T, 2) with the value channel first, the mask channel second."""
        return np.stack([self.values, self.masks], axis=2)


def gen_addition(length: int, n: int, rng: np.random.Generator) -> AdditionSet:
    """Mark two positions, one in each half of the sequence; the target is
    the sum of the values at the marked positions."""
    if length < 2:
        raise GraphError("gen_addition: length must be >= 2")
    values = rng.uniform(0.0, 1.0, size=(n, length))
    masks = np.zeros((n, length))
    first = rng.integers(0, length // 2, size=n)
    second = rng.integers(length // 2, length, size=n)
    rows = np.arange(n)
    masks[rows, first] = 1.0
    masks[rows, second] = 1.0
    targets = values[rows, first] + values[rows, second]
    return AdditionSet(values, masks, targets)


class AdditionTask:
    """Predict the sum of two marked sequence entries from the final step,
    the only output the forward projects (first_output = T - 1)."""

    name = "addition"
    input_dim = 2
    output_dim = 1
    metric_name = "mse"

    def __init__(self, length: int, eval_size: int = 512, eval_seed: int = 1):
        self.length = length
        self.eval_set = gen_addition(length, eval_size,
                                     np.random.default_rng(eval_seed))

    def train_batch(self, rng: np.random.Generator, size: int) -> AdditionSet:
        return gen_addition(self.length, size, rng)

    def loss_and_grad(self, layout: RnnLayout, p, batch: AdditionSet, grad: bool = True):
        tr = compute.rnn_forward(layout, p, batch.inputs(), keep_trace=grad,
                                 first_output=self.length - 1)
        err = tr.y[:, -1, 0] - batch.targets
        loss = float(np.mean(err ** 2))
        g = None
        if grad:
            dY = (2.0 * err / len(batch)).reshape(tr.y.shape)
            g = compute.rnn_backward(layout, p, tr, dY)
        return loss, g, loss

    def evaluate(self, layout: RnnLayout, p) -> float:
        tr = compute.rnn_forward(layout, p, self.eval_set.inputs(), keep_trace=False,
                                 first_output=self.length - 1)
        return metric_mse(tr.y[:, -1, 0], self.eval_set.targets)


# ---------------------------------------------------------------------------
# sequential classification of tiny glyph images

@dataclass(frozen=True)
class SeqClassSet:
    pixels: np.ndarray   # (n, size*size) row-major flattened images
    labels: np.ndarray   # (n,) integer classes

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def inputs(self) -> np.ndarray:
        return self.pixels[:, :, None]


def synthetic_glyphs(n: int, size: int, num_classes: int,
                     rng: np.random.Generator) -> SeqClassSet:
    """Noisy copies of per-class binary templates, flattened row-major so the
    image is consumed one pixel per time step."""
    templates = (rng.uniform(size=(num_classes, size, size)) > 0.5).astype(float)
    labels = rng.integers(0, num_classes, size=n)
    images = templates[labels] + 0.3 * rng.standard_normal((n, size, size))
    return SeqClassSet(images.reshape(n, size * size), labels)


def split_stratified(ds: SeqClassSet, test_frac: float,
                     rng: np.random.Generator) -> tuple[SeqClassSet, SeqClassSet]:
    """Per-class shuffled split so both sides see every class."""
    train_idx, test_idx = [], []
    for k in np.unique(ds.labels):
        idx = np.flatnonzero(ds.labels == k)
        idx = rng.permutation(idx)
        cut = int(round(len(idx) * test_frac))
        test_idx.extend(idx[:cut])
        train_idx.extend(idx[cut:])
    tr = np.sort(np.asarray(train_idx, dtype=int))
    te = np.sort(np.asarray(test_idx, dtype=int))
    return (SeqClassSet(ds.pixels[tr], ds.labels[tr]),
            SeqClassSet(ds.pixels[te], ds.labels[te]))


class SeqClassTask:
    """Classify a pixel-sequence image from the final step's logits, the
    only output the forward projects (first_output = T - 1)."""

    name = "seqclass"
    input_dim = 1
    metric_name = "error_rate"

    def __init__(self, size: int = 8, num_classes: int = 4, n: int = 1024,
                 test_frac: float = 0.25, data_seed: int = 1):
        rng = np.random.default_rng(data_seed)
        self.num_classes = num_classes
        self.output_dim = num_classes
        self.length = size * size
        full = synthetic_glyphs(n, size, num_classes, rng)
        self.train_set, self.test_set = split_stratified(full, test_frac, rng)
        if not len(self.train_set) or not len(self.test_set):
            raise GraphError(f"seqclass: {n} examples with test_frac = {test_frac} "
                             "leave a split empty")

    def train_batch(self, rng: np.random.Generator, size: int) -> SeqClassSet:
        idx = rng.integers(0, len(self.train_set), size=size)
        return SeqClassSet(self.train_set.pixels[idx], self.train_set.labels[idx])

    def loss_and_grad(self, layout: RnnLayout, p, batch: SeqClassSet, grad: bool = True):
        tr = compute.rnn_forward(layout, p, batch.inputs(), keep_trace=grad,
                                 first_output=self.length - 1)
        logits = tr.y[:, -1, :]
        total, dlogits = softmax_xent_grad(logits, batch.labels)
        loss = total / len(batch)
        g = None
        if grad:
            dY = (dlogits / len(batch)).reshape(tr.y.shape)
            g = compute.rnn_backward(layout, p, tr, dY)
        return loss, g, metric_error_rate(logits, batch.labels)

    def evaluate(self, layout: RnnLayout, p) -> float:
        tr = compute.rnn_forward(layout, p, self.test_set.inputs(), keep_trace=False,
                                 first_output=self.length - 1)
        return metric_error_rate(tr.y[:, -1, :], self.test_set.labels)


# ---------------------------------------------------------------------------
# character-level language modelling

def make_synthetic_corpus(n_chars: int, seed: int = 7) -> str:
    """Deterministic word-salad text: lowercase words, sentences of 4 to 12
    words, paragraphs of 5 to 9 sentences.  Small, fixed alphabet."""
    rng = np.random.default_rng(seed)
    out: list[str] = []
    total = 0
    sentences_left = int(rng.integers(5, 10))
    while total < n_chars:
        k = int(rng.integers(4, 13))
        words = [_WORDS[int(rng.integers(0, len(_WORDS)))] for _ in range(k)]
        sentence = " ".join(words) + "."
        sentences_left -= 1
        if sentences_left == 0:
            sentence += "\n"
            sentences_left = int(rng.integers(5, 10))
        else:
            sentence += " "
        out.append(sentence)
        total += len(sentence)
    return "".join(out)[:n_chars]


@dataclass(frozen=True)
class CharCorpus:
    alphabet: str
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)


def encode_text(text: str, alphabet: str) -> np.ndarray:
    lut = {c: i for i, c in enumerate(alphabet)}
    try:
        return np.asarray([lut[c] for c in text], dtype=np.int64)
    except KeyError as exc:
        raise GraphError(f"character {exc.args[0]!r} not in alphabet") from exc


def load_char_corpus(path=None, text: str | None = None,
                     fractions=(0.8, 0.1, 0.1)) -> CharCorpus:
    """Split a text corpus into contiguous train/valid/test id arrays over its
    sorted character alphabet."""
    if text is None:
        if path is None:
            raise GraphError("load_char_corpus: need a path or a text")
        text = Path(path).read_text()
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f <= 0 for f in fractions):
        raise GraphError("load_char_corpus: fractions must be positive and sum to 1")
    alphabet = "".join(sorted(set(text)))
    ids = encode_text(text, alphabet)
    n = len(ids)
    a = int(n * fractions[0])
    b = a + int(n * fractions[1])
    return CharCorpus(alphabet, ids[:a], ids[a:b], ids[b:])


def bundled_corpus_path() -> Path:
    return Path(__file__).parent / "data" / "corpus.txt"


class CharLmTask:
    """Next-character prediction with one-hot inputs and a per-step readout,
    so the forward projects every step (first_output = 0)."""

    name = "charlm"
    metric_name = "bpc"

    def __init__(self, corpus: CharCorpus, unroll: int = 50, eval_windows: int = 64):
        if unroll < 1:
            raise GraphError("CharLmTask: unroll must be >= 1")
        shortest = min(len(corpus.train), len(corpus.test))
        if shortest <= unroll:
            raise GraphError("CharLmTask: corpus splits shorter than the unroll")
        self.corpus = corpus
        self.unroll = unroll
        self.length = unroll
        self.input_dim = corpus.num_symbols
        self.output_dim = corpus.num_symbols
        self.eye = np.eye(corpus.num_symbols)
        self.eval_starts = np.arange(0, len(corpus.test) - unroll, unroll)[:eval_windows]

    def _window_batch(self, ids: np.ndarray, starts: np.ndarray):
        offs = np.arange(self.unroll)
        xs = ids[starts[:, None] + offs[None, :]]
        ys = ids[starts[:, None] + offs[None, :] + 1]
        return self.eye[xs], ys

    def train_batch(self, rng: np.random.Generator, size: int):
        starts = rng.integers(0, len(self.corpus.train) - self.unroll, size=size)
        return self._window_batch(self.corpus.train, starts)

    def loss_and_grad(self, layout: RnnLayout, p, batch, grad: bool = True):
        X, targets = batch
        B, T, A = X.shape
        tr = compute.rnn_forward(layout, p, X, keep_trace=grad)
        total, dflat = softmax_xent_grad(tr.y.reshape(B * T, A), targets.reshape(-1))
        loss = total / (B * T)
        g = None
        if grad:
            dY = dflat.reshape(B, T, A) / (B * T)
            g = compute.rnn_backward(layout, p, tr, dY)
        return loss, g, loss / math.log(2.0)

    def evaluate(self, layout: RnnLayout, p) -> float:
        X, targets = self._window_batch(self.corpus.test, self.eval_starts)
        tr = compute.rnn_forward(layout, p, X, keep_trace=False)
        return metric_bpc(tr.y.reshape(-1, self.output_dim), targets.reshape(-1))


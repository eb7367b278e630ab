"""Per-unit scalar reference for compute.rnn_forward / rnn_backward.

One example at a time, one (layer, unit, time) coordinate at a time, in
plain Python: every weight is read through RnnLayout.param_index, so the
reference shares no code with the vectorized route it checks.  Each unit
sums its in{i} sources, then rec{i} from the previous step, then the bias.

gen_addition draws the addition problem with rng.uniform into a temporary
and copies it into a channel-last X; tasks.gen_addition, which draws into
its final array, must give the same arrays and leave the generator in the
same state.

kappa2 is the closed matrix form of pathnorm.kappa2 over step-major
blocks: the steps are zero-padded into (nb, L, H) arrays, from which each
lag's step pairs are copied out.  pathnorm.kappa2 reads position-major
blocks and sums the same pairs in another order, so it must agree with
this form up to rounding.

make_synthetic_corpus wrote the bundled char-LM corpus, which must stay
its output byte for byte; encode_text maps a text to its ids over an
alphabet through the lookup of tasks.load_char_corpus.
"""

import math

import numpy as np

from pathsgd import pathnorm, tasks


def forward(layout, p, x, activation="relu"):
    """Outputs y[t][o] for the input x[t][k], plus the states h[t][i][j]
    (h[t][0] is x[t]) and pre-activations pre[t][i][j] of hidden layer i."""
    pi = layout.param_index
    p = [float(v) for v in p]
    dims, top = layout.dims, layout.depth - 1
    y, h, pre = [], [], []
    for t in range(layout.length):
        hs, zs = [[float(v) for v in x[t]]], [None]
        for i in range(1, top + 1):
            zi = []
            for j in range(dims[i]):
                z = 0.0
                for k in range(dims[i - 1]):
                    z += p[pi(f"in{i}", j, k)] * hs[i - 1][k]
                if t:
                    for k in range(dims[i]):
                        z += p[pi(f"rec{i}", j, k)] * h[t - 1][i][k]
                if layout.bias:
                    z += p[pi(f"b{i}", j, 0)]
                zi.append(z)
            zs.append(zi)
            hs.append(zi if activation == "identity" else [z if z > 0.0 else 0.0 for z in zi])
        yt = []
        for o in range(layout.output_dim):
            z = 0.0
            for k in range(dims[top]):
                z += p[pi("out", o, k)] * hs[top][k]
            if layout.bias:
                z += p[pi("bout", o, 0)]
            yt.append(z)
        y.append(yt)
        h.append(hs)
        pre.append(zs)
    return y, h, pre


def backward(layout, p, x, dy, activation="relu"):
    """d(sum over t, o of dy[t][o] y[t][o]) / dp by reverse mode, step by
    step from the last, layers top-down.  The ReLU derivative is 0 at a
    pre-activation of exactly 0."""
    pi = layout.param_index
    _, h, pre = forward(layout, p, x, activation)
    p = [float(v) for v in p]
    dims, top, T = layout.dims, layout.depth - 1, layout.length
    dp = [0.0] * layout.m
    later = [[0.0] * n for n in dims]  # dpre of each layer at step t + 1
    for t in reversed(range(T)):
        for o in range(layout.output_dim):
            for k in range(dims[top]):
                dp[pi("out", o, k)] += dy[t][o] * h[t][top][k]
            if layout.bias:
                dp[pi("bout", o, 0)] += dy[t][o]
        above = None  # dpre of layer i + 1 at step t
        for i in range(top, 0, -1):
            di = []
            for j in range(dims[i]):
                d = 0.0
                if i == top:
                    for o in range(layout.output_dim):
                        d += dy[t][o] * p[pi("out", o, j)]
                else:
                    for q in range(dims[i + 1]):
                        d += above[q] * p[pi(f"in{i + 1}", q, j)]
                if t + 1 < T:
                    for q in range(dims[i]):
                        d += later[i][q] * p[pi(f"rec{i}", q, j)]
                di.append(d if activation == "identity" or pre[t][i][j] > 0.0 else 0.0)
            for j in range(dims[i]):
                for k in range(dims[i - 1]):
                    dp[pi(f"in{i}", j, k)] += di[j] * h[t][i - 1][k]
                if t:
                    for k in range(dims[i]):
                        dp[pi(f"rec{i}", j, k)] += di[j] * h[t - 1][i][k]
                if layout.bias:
                    dp[pi(f"b{i}", j, 0)] += di[j]
            later[i] = above = di
    return dp


def gen_addition(length, n, rng):
    """(X, targets) of the addition problem, X of shape (n, T, 2)."""
    values = rng.uniform(0.0, 1.0, size=(n, length))
    first = rng.integers(0, length // 2, size=n)
    second = rng.integers(length // 2, length, size=n)
    rows = np.arange(n)
    X = np.zeros((n, length, 2))
    X[:, :, 0] = values
    X[rows, first, 1] = 1.0
    X[rows, second, 1] = 1.0
    return X, values[rows, first] + values[rows, second]


def kappa2(layout, p, states=None):
    """kappa2 in closed matrix form over step-major blocks hb[b, q] =
    h_(bL+q), db[b, r] = delta_(bL+r+2); states as in pathnorm.kappa2."""
    n = layout.length - 2
    out = np.zeros(layout.m)
    if n < 1:
        return out
    if states is None:
        k1, states = pathnorm._squared_pass(layout, p)
        if states is None:
            return k1
    h, delta = states
    pt = np.square(np.asarray(p, dtype=float))
    for i in range(1, layout.depth):
        A = layout.view(pt, f"rec{i}")
        H = A.shape[0]
        L = min(n, math.isqrt(2 * H))
        nb = -(-n // L)
        hb = np.zeros((nb * L, H))
        db = np.zeros((nb * L, H))
        hb[:n] = h[i][:n, 0]
        db[:n] = delta[i][2:, 0]
        hb = hb.reshape(nb, L, H)
        db = db.reshape(nb, L, H)
        P = np.empty((L + 1, H, H))
        P[0] = np.eye(H)
        for r in range(L):
            np.matmul(P[r], A, out=P[r + 1])
        accT = np.zeros((H, H))
        for d in range(L):
            accT += P[d] * (hb[:, :L - d].reshape(-1, H).T @ db[:, d:].reshape(-1, H))
        V = np.matmul(hb.transpose(2, 0, 1), P[L - 1::-1].transpose(1, 0, 2))
        M = np.matmul(db.transpose(2, 0, 1), P[1:].transpose(2, 0, 1))
        Z = V[:, 0]
        for b in range(1, nb):
            accT += Z @ M[:, b].T
            if b < nb - 1:
                Z = Z @ P[L] + V[:, b]
        sl, _ = layout.slices[f"rec{i}"]
        out[sl] = (pathnorm.CHRONO_PAIR_COEFF * A * accT.T).reshape(-1)
    return out


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


def make_synthetic_corpus(n_chars, seed=7):
    """Deterministic word-salad text: lowercase words, sentences of 4 to 12
    words, paragraphs of 5 to 9 sentences.  Small, fixed alphabet."""
    rng = np.random.default_rng(seed)
    out = []
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


def encode_text(text, alphabet):
    """The index in alphabet of each character of text, in the smallest
    unsigned dtype that holds len(alphabet); a character missing from the
    alphabet raises GraphError naming the first one."""
    return tasks._lookup(tasks._code_points(text), tasks._code_points(alphabet))

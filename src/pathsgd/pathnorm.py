"""Path-regularizer gamma^2 and the kappa that preconditions path-normalized
updates.

gamma^2 sums, over all paths from an input (or bias) to an output of the
unrolled net, the product of the squared weights along the path, and
kappa_i is half its second derivative in p_i.  It splits as kappa =
kappa1 + kappa2: kappa1 over single edges that carry p_i, kappa2 over pairs
of them on one path, so kappa2 is zero when no path reuses a parameter.

gamma, kappa1 and kappa2 read one pass of the squared net (_squared_pass).
The oracles share none of that code: they walk the unrolled net one
(layer, unit, time) coordinate at a time through RnnLayout.param_index.
"""

from __future__ import annotations

import math

import numpy as np

from . import compute
from .graph import RnnLayout

# Enumeration oracles refuse beyond this many paths; path counts grow
# exponentially in depth, so brute force is for desk-scale verification only.
PATH_GUARD = 10**6

# A path on which parameter i occurs k times contributes k(2k-1) * (product
# of the other squared weights) to half the second derivative.  The
# per-occurrence sum (kappa1) accounts for k of that; ordered pairs of
# distinct occurrences number k(k-1), so the pair sum enters with
# coefficient 2.  In the chronological matrix form only the time-ordered
# half of each pair survives (the reverse direction has no connecting path),
# hence coefficient 4 there.  Both constants are pinned by tests against
# the finite-difference oracle.
ORDERED_PAIR_COEFF = 2.0
CHRONO_PAIR_COEFF = 4.0

KAPPA_MODES = ("k1", "k1_plus_k2")


class EnumerationError(RuntimeError):
    """Path enumeration would exceed PATH_GUARD."""


def gamma_recursive(layout: RnnLayout, p: np.ndarray) -> float:
    """gamma^2 by the per-unit recursion: 1 at each input and at the bias,
    and at every hidden unit and output the sum over its sources (in{i},
    then rec{i} from the previous step, then the bias) of the source's
    value times the squared weight.  The net value sums every step's
    outputs."""
    pi = layout.param_index
    p = np.asarray(p, dtype=float).tolist()
    dims, top = layout.dims, layout.depth - 1
    prev: list = [None] * (top + 1)  # each layer's values at the previous step
    total = 0.0
    for t in range(layout.length):
        below = [1.0] * layout.input_dim
        for i in range(1, top + 1):
            cur = []
            for j in range(dims[i]):
                z = 0.0
                for k in range(dims[i - 1]):
                    w = p[pi(f"in{i}", j, k)]
                    z += w * w * below[k]
                if t:
                    for k in range(dims[i]):
                        w = p[pi(f"rec{i}", j, k)]
                        z += w * w * prev[i][k]
                if layout.bias:
                    w = p[pi(f"b{i}", j, 0)]
                    z += w * w
                cur.append(z)
            prev[i] = below = cur
        for j in range(layout.output_dim):
            z = 0.0
            for k in range(dims[top]):
                w = p[pi("out", j, k)]
                z += w * w * below[k]
            if layout.bias:
                w = p[pi("bout", j, 0)]
                z += w * w
            total += z
    return total


def gamma(layout: RnnLayout, p: np.ndarray) -> float:
    """gamma^2 of an unrolled RNN: the summed output of compute.rnn_forward
    on the squared parameters at the all-ones input, identity activation."""
    X = np.ones((1, layout.length, layout.input_dim))
    tr = compute.rnn_forward(layout, np.square(p), X, "identity", keep_trace=False)
    return float(tr.y.sum())


def count_paths(layout: RnnLayout) -> int:
    """Number of paths from an input or bias to an output of the unrolled
    net.  All units of one layer at one step reach the outputs by equally
    many paths, so the count runs over (layer, time) alone."""
    dims, top, T = layout.dims, layout.depth - 1, layout.length
    # ahead[i]: paths from one unit of layer i at step t to an output
    ahead = [0] * (top + 1)
    total = 0
    for t in reversed(range(T)):
        nxt = list(ahead)  # the counts at step t + 1
        for i in range(top, -1, -1):
            ahead[i] = layout.output_dim if i == top else dims[i + 1] * ahead[i + 1]
            if i and t + 1 < T:
                ahead[i] += dims[i] * nxt[i]
        total += dims[0] * ahead[0]
        if layout.bias:
            total += sum(dims[i] * ahead[i] for i in range(1, top + 1)) + layout.output_dim
    return total


def iter_paths(layout: RnnLayout):
    """Yield every input/bias -> output path of the unrolled net as a list
    of parameter indices, one per edge in path order.  Raises
    EnumerationError over PATH_GUARD.

    A path starts at input unit k of step t (the move in1), or at the bias
    of a hidden layer or of the outputs; from hidden unit k of layer i at
    step t it moves up to layer i + 1 (in{i+1}) or from the top layer to an
    output (out), or forward to step t + 1 of its own layer (rec{i}).
    """
    n = count_paths(layout)
    if n > PATH_GUARD:
        raise EnumerationError(f"{n} paths exceed the enumeration guard of {PATH_GUARD}")
    pi = layout.param_index
    dims, top, T = layout.dims, layout.depth - 1, layout.length

    def walk(i: int, k: int, t: int, acc: list[int]):
        if i == top:
            for j in range(layout.output_dim):
                yield acc + [pi("out", j, k)]
        else:
            for j in range(dims[i + 1]):
                yield from walk(i + 1, j, t, acc + [pi(f"in{i + 1}", j, k)])
        if i and t + 1 < T:
            for j in range(dims[i]):
                yield from walk(i, j, t + 1, acc + [pi(f"rec{i}", j, k)])

    for t in range(T):
        for k in range(layout.input_dim):
            yield from walk(0, k, t, [])
    if layout.bias:
        for t in range(T):
            for i in range(1, top + 1):
                for j in range(dims[i]):
                    yield from walk(i, j, t, [pi(f"b{i}", j, 0)])
            for j in range(layout.output_dim):
                yield [pi("bout", j, 0)]


def gamma_bruteforce(layout: RnnLayout, p: np.ndarray) -> float:
    """gamma^2 by explicit path enumeration; the oracle for the recursion."""
    p = np.asarray(p, dtype=float)
    total = 0.0
    for path in iter_paths(layout):
        prod = 1.0
        for pi in path:
            prod *= p[pi] * p[pi]
        total += prod
    return total


def kappa_fd(layout: RnnLayout, p: np.ndarray) -> np.ndarray:
    """Half the second derivative of gamma^2 per parameter, by
    compute.half_second_diff of the recursion: the authoritative kappa
    oracle.  gamma^2 is a polynomial, so second differences at that step
    are well conditioned in 64-bit."""
    p = np.asarray(p, dtype=float)
    g0 = gamma_recursive(layout, p)
    return np.array([compute.half_second_diff(lambda q: gamma_recursive(layout, q), p, i, g0)
                     for i in range(len(p))])


# --- kappa1 ------------------------------------------------------------------

def _squared_pass(layout: RnnLayout, p: np.ndarray):
    """One compute.rnn_forward / rnn_backward of the squared net: parameters
    p^2, the all-ones input, identity activation (ReLU would be inert on
    its nonnegative values) and a unit seed at every output.  Its summed
    output is gamma^2 and its parameter gradient kappa1.  Returns (kappa1,
    (h, delta)): h[i] the layer-i states and delta[i] = d(sum of outputs)
    / d h[i], each (T, 1, H_i).  An overflowed p^2 gives an all-inf kappa1
    and no states."""
    pt = np.square(np.asarray(p, dtype=float))
    if not np.all(np.isfinite(pt)):
        return np.full(layout.m, np.inf), None
    tr = compute.rnn_forward(layout, pt, np.ones((1, layout.length, layout.input_dim)),
                             "identity")
    k1, delta, h = compute.rnn_backward(tr, np.ones_like(tr.y), return_dpre=True)
    return k1, (h, delta)


def kappa1(layout: RnnLayout, p: np.ndarray) -> np.ndarray:
    """kappa1, the gradient of the squared-net pass (_squared_pass)."""
    return _squared_pass(layout, p)[0]


def kappa1_bruteforce(layout: RnnLayout, p: np.ndarray) -> np.ndarray:
    """kappa1 by per-edge path enumeration: for every path and every edge on
    it, the squared-weight product of the other edges.  Oracle for kappa1."""
    p = np.asarray(p, dtype=float)
    sq = p * p
    out = np.zeros(layout.m)
    for path in iter_paths(layout):
        w2 = [sq[pi] for pi in path]
        for j, pi in enumerate(path):
            prod = 1.0
            for k, w in enumerate(w2):
                if k != j:
                    prod *= w
            out[pi] += prod
    return out


# --- kappa2 ------------------------------------------------------------------

def kappa2_bruteforce(layout: RnnLayout, p: np.ndarray) -> np.ndarray:
    """kappa2 by enumerating ordered pairs of distinct same-parameter edges
    on each path: p_i^2 times the squared-weight product excluding the pair,
    scaled by ORDERED_PAIR_COEFF.  Oracle for the matrix form."""
    p = np.asarray(p, dtype=float)
    sq = p * p
    out = np.zeros(layout.m)
    for path in iter_paths(layout):
        occ: dict[int, list[int]] = {}
        for j, pi in enumerate(path):
            occ.setdefault(pi, []).append(j)
        w2 = [sq[pi] for pi in path]
        for pi, positions in occ.items():
            if len(positions) < 2:
                continue
            for j1 in positions:
                for j2 in positions:
                    if j1 == j2:
                        continue
                    prod = 1.0
                    for k, w in enumerate(w2):
                        if k != j1 and k != j2:
                            prod *= w
                    out[pi] += sq[pi] * prod
    return ORDERED_PAIR_COEFF * out


def _position_major(x: np.ndarray, L: int, nb: int) -> np.ndarray:
    """The (n, H) steps x as an (L, nb, H) array of nb blocks of L steps,
    position-major and zero-padded: out[q, b] = x[bL+q], 0 past step n."""
    n, H = x.shape
    out = np.zeros((L, nb, H))
    whole = n // L
    out[:, :whole] = x[:whole * L].reshape(whole, L, H).transpose(1, 0, 2)
    if whole < nb:
        out[:n - whole * L, whole] = x[whole * L:]
    return out


def _chunk_blocks(H: int) -> int:
    """Blocks per chunk of kappa2's V and M at width H, at least 2: V and
    M of one block would be one-row products, which BLAS may round
    differently."""
    return max(2, compute.BUDGET // (64 * H * H))


def _across_blocks(accT, Z, V, M, PL, c0: int, nb: int):
    """Add to accT the pairs that end in the chunk of blocks from c0 and
    start in an earlier block, through the state Z carried in (None at
    block 0), and return the Z carried out; V and M are the chunk's."""
    for b in range(c0, c0 + V.shape[1]):
        if b:
            accT += Z @ M[:, b - c0].T
        if b < nb - 1:
            Z = V[:, 0] if b == 0 else Z @ PL + V[:, b - c0]
    return Z


def kappa2(layout: RnnLayout, p: np.ndarray, states=None) -> np.ndarray:
    """kappa2 in closed matrix form.

    Only recurrent parameters can repeat on a path, so all other entries
    are zero.  With A the squared recurrent matrix of layer i and (h,
    delta) the squared pass's states, the time-ordered pairs sum to

        kappa2[j, k] = CHRONO_PAIR_COEFF * A[j, k] * accT[k, j],
        accT = sum_(s<=u) diag(h_s) A^(u-s) diag(delta_(u+2)),

    s, u from 0 to n - 1, n = T - 2.  accT is summed exactly in blocks of
    L = min(n, isqrt(2 H)) steps with the powers P_r = A^r, r <= L: the
    pairs d steps apart inside every block are one product of the
    position-major slabs hq[:L-d] and dq[d:], and pairs across blocks go
    through the state Z <- Z P_L + V_b, which adds Z M_b (_across_blocks).
    V and M are formed for _chunk_blocks(H) blocks at a time, with the bits
    of one chunk of all blocks.  A layer costs O(T H^2.5) time and,
    beside hq, dq and P, O(BUDGET) memory.

    states may carry _squared_pass's (h, delta), else the pass runs here.
    kappa2 takes them over and sets h[i] and delta[i] to None once copied,
    so a caller that needs them again hands kappa2 its own lists.
    """
    n = layout.length - 2
    out = np.zeros(layout.m)
    if n < 1:
        return out
    if states is None:
        k1, states = _squared_pass(layout, p)
        if states is None:  # p^2 overflowed
            return k1
    h, delta = states
    pt = np.square(np.asarray(p, dtype=float))
    for i in range(1, layout.depth):
        A = layout.view(pt, f"rec{i}")
        H = A.shape[0]
        L = min(n, math.isqrt(2 * H))
        nb = -(-n // L)
        hq = _position_major(h[i][:n, 0], L, nb)
        dq = _position_major(delta[i][2:, 0], L, nb)
        h[i] = delta[i] = None  # the copies are all that is read from here on
        P = np.empty((L + 1, H, H))
        P[0] = np.eye(H)
        for r in range(L):
            np.matmul(P[r], A, out=P[r + 1])
        accT = np.zeros((H, H))
        for d in range(L):
            accT += P[d] * (hq[:L - d].reshape(-1, H).T @ dq[d:].reshape(-1, H))
        # V and M of c blocks at a time:
        # V[k, b, j] = sum_q hq[q, b, k] P_(L-1-q)[k, j] and
        # M[j, b, m] = sum_r P_(r+1)[m, j] dq[r, b, j].
        # A last chunk of one block joins the chunk before it.
        c, Z = _chunk_blocks(H), None
        for c0 in range(0, max(nb - 1, 1), c):
            c1 = c0 + c if c0 + c < nb - 1 else nb
            V = np.matmul(hq[:, c0:c1].transpose(2, 1, 0), P[L - 1::-1].transpose(1, 0, 2))
            M = np.matmul(dq[:, c0:c1].transpose(2, 1, 0), P[1:].transpose(2, 0, 1))
            Z = _across_blocks(accT, Z, V, M, P[L], c0, nb)
        sl, _ = layout.slices[f"rec{i}"]
        out[sl] = (CHRONO_PAIR_COEFF * A * accT.T).reshape(-1)
    return out


# Overflow in the squared net shows up as a non-finite kappa, which the
# caller checks, and a kappa1 that is identically zero as a NaN
# kappa_ratio; numpy is kept from warning about either.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _kappa1_and_2(layout: RnnLayout, p: np.ndarray):
    """kappa1 and kappa2 from one squared pass; kappa2 is None, and not
    run, once kappa1 has overflowed."""
    k1, states = _squared_pass(layout, p)
    if not np.all(np.isfinite(k1)):
        return k1, None
    return k1, kappa2(layout, p, states)


@_quiet
def preconditioner(layout: RnnLayout, p: np.ndarray, mode: str = "k1") -> np.ndarray:
    """The kappa vector that path-normalized updates divide by: kappa1, or
    kappa1 + kappa2 in mode k1_plus_k2."""
    if mode not in KAPPA_MODES:
        raise ValueError(f"unknown kappa mode {mode!r}")
    if mode == "k1":
        return kappa1(layout, p)
    k1, k2 = _kappa1_and_2(layout, p)
    return k1 if k2 is None else k1 + k2


@_quiet
def kappa_ratio(layout: RnnLayout, p: np.ndarray) -> float:
    """||kappa2|| / ||kappa1||, the relative weight of the interaction term;
    NaN when kappa1 has overflowed or is identically zero.  Each vector is
    scaled, exactly, by the power of two that brings its largest entry into
    [0.5, 1), so its norm neither overflows nor loses digits to underflow,
    and the quotient is scaled back."""
    k1, k2 = _kappa1_and_2(layout, p)
    if k2 is None:
        return float("nan")
    e1, e2 = (-np.frexp(np.max(np.abs(k)))[1] for k in (k1, k2))
    q = np.linalg.norm(np.ldexp(k2, e2)) / np.linalg.norm(np.ldexp(k1, e1))
    return float(np.ldexp(q, e1 - e2))

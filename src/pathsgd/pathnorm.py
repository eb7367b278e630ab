"""Path-regularizer and the per-parameter curvature terms that precondition
path-normalized updates.

The path-regularizer gamma^2 of a net is the sum, over all directed paths
from input (or bias) nodes to output nodes, of the product of squared edge
weights along the path.  The preconditioner kappa_i is half the second
derivative of gamma^2 with respect to parameter p_i.  It splits as
kappa = kappa1 + kappa2:

* kappa1_i sums, over every edge e carrying parameter i and every path
  through e, the squared-weight product of the path excluding e;
* kappa2_i collects the interaction of two distinct edges carrying the same
  parameter on one path, and is therefore exactly zero when no path reuses
  a parameter (any net with a one-to-one parameter map).

gamma, kappa1, kappa2 and the preconditioner take the RnnLayout and read one
pass of the squared net: compute.rnn_forward / rnn_backward, the routines
training uses, run on the squared parameters at the all-ones input with
identity activation.  Its summed output is gamma^2; its parameter gradient
is kappa1, and the per-step hidden values h and backward deltas that the
backward hands back are what kappa2 reads.  kappa2 sums the pairs of
applications of a recurrent matrix in closed form, in blocks of
L = floor(sqrt(2 H)) steps, so a layer costs O(T H^2.5) time and, beside
position-major copies of h and delta and the L + 1 powers of the matrix,
O(BUDGET) memory; it drops h and delta themselves once they are copied.

The oracles these are checked against share none of that code: they walk
the unrolled net one (layer, unit, time) coordinate at a time in plain
Python, reading each weight through RnnLayout.param_index.  They are the
gamma recursion, the finite-difference kappa_fd built on it (the ground
truth for every closed form) and the path enumerators, which iter_paths
feeds and PATH_GUARD bounds.
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
    """gamma^2 of an unrolled RNN by the per-unit recursion, in scalar loops
    over (layer, unit, time) coordinates.

    gamma^2 is 1 at each input and at the bias and, at every hidden unit
    and output, accumulates over its sources the source's gamma^2 times the
    squared weight: the in{i} sources first, then rec{i} from the previous
    step, then the bias.  The net value sums the outputs of every step.
    """
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


def kappa_fd(layout: RnnLayout, p: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Half the second derivative of gamma^2 per parameter, by central second
    differences of the recursion.  The authoritative kappa oracle.

    The step is relative: h_i = step * max(|p_i|, 1); gamma^2 is a
    polynomial, so second differences at this scale are well conditioned in
    64-bit.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    g0 = gamma_recursive(layout, p)
    for i in range(p.shape[0]):
        h = step * max(abs(p[i]), 1.0)
        pp = p.copy()
        pp[i] = p[i] + h
        gp = gamma_recursive(layout, pp)
        pp[i] = p[i] - h
        gm = gamma_recursive(layout, pp)
        out[i] = 0.5 * (gp - 2.0 * g0 + gm) / (h * h)
    return out


# --- kappa1 ------------------------------------------------------------------

def _squared_pass(layout: RnnLayout, p: np.ndarray):
    """kappa1 and the squared-net states from one compute.rnn_forward /
    rnn_backward of the squared net: parameters p^2, the all-ones input,
    identity activation and a unit seed at every output.

    Every value of the squared net is nonnegative, so ReLU would be inert
    and its summed output is gamma^2; the gradient of that sum with respect
    to the squared parameters is kappa1.  Returns (kappa1, (h, delta)),
    where h holds the states the backward walked (h[i] of shape (T, 1, H_i))
    and delta[i] = d(sum of outputs)/d h^i, of the same shape, is the
    backward's dpre, which equals dh under the identity activation.
    rnn_forward rejects a non-finite parameter vector, so an overflowed p^2
    gives an all-inf kappa1 and no states instead.
    """
    pt = np.square(np.asarray(p, dtype=float))
    if not np.all(np.isfinite(pt)):
        return np.full(layout.m, np.inf), None
    tr = compute.rnn_forward(layout, pt, np.ones((1, layout.length, layout.input_dim)),
                             "identity")
    k1, delta, h = compute.rnn_backward(layout, pt, tr, np.ones_like(tr.y), "identity",
                                        return_dpre=True)
    return k1, (h, delta)


def kappa1(layout: RnnLayout, p: np.ndarray) -> np.ndarray:
    """kappa1 for unrolled RNNs: one forward/backward of the squared net
    (see _squared_pass)."""
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
    """kappa2 for unrolled RNNs in closed matrix form.

    Only recurrent parameters can repeat along an input-output path (inputs,
    biases and outputs touch a path at most once), so all other entries are
    zero.  For recurrent entry [j, k] of layer i, two applications at steps
    s < s' connect through (A^(s'-1-s))[k, j] where A is the squared
    recurrent matrix; summing the time-ordered pairs gives, with h_s the
    squared net's layer-i values and delta_s = d(sum of outputs)/d h_s,

        kappa2[j, k] = C * A[j, k] * accT[k, j],
        accT = sum_(s<=u) diag(h_s) A^(u-s) diag(delta_(u+2)),

    with s, u from 0 to n-1, n = T-2 (0-based steps), and
    C = CHRONO_PAIR_COEFF.  accT is computed exactly in blocks of
    L = min(n, floor(sqrt(2 H))) steps, with the powers P_r = A^r for
    r <= L.  h and delta are copied once into zero-padded position-major
    blocks hq[q, b] = h_(bL+q) and dq[r, b] = delta_(bL+r+2), (L, nb, H)
    each, so the pairs d steps apart inside every block are one product
    P_d * (hq[:L-d]^T dq[d:]) of contiguous slabs.  Pairs across blocks go
    through the state Z carried from block to block, Z <- Z P_L + V_b, and
    add Z M_b, where V_b collects block b's sources and M_b its sinks.  V
    and M are formed for a chunk of _chunk_blocks(H) blocks at a time, and
    Z is carried from chunk to chunk; every chunk holds at least 2 blocks,
    and the result is bit-identical to that of one chunk of all blocks.
    Cost per layer O(T H^3 / L + T L H^2) = O(T H^2.5); V and M take
    O(BUDGET) memory.
    h and delta come from the squared pass that also gives kappa1 (each
    (T, 1, H_i), read as (T, H_i)); ``states`` may carry that pass's
    (h, delta), otherwise the pass runs here.  kappa2 takes over the states
    it is handed: it sets h[i] and delta[i] to None once they are copied,
    so the copies do not sit beside them, and a caller that needs them
    again hands kappa2 its own lists.
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
        # Position-major blocks, zero-padded: hq[q, b] = h_(bL+q) and
        # dq[r, b] = delta_(bL+r+2), so the pairs d steps apart in every
        # block are the contiguous slabs hq[:L-d] and dq[d:].
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
    """kappa1 and kappa2 from one squared pass, whose states kappa2 takes
    over and frees layer by layer.  kappa2 is not run, and comes back as
    None, once kappa1 has overflowed."""
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
    NaN when kappa1 has overflowed or is identically zero (0 / 0: kappa2 is
    then zero too).  Both vectors are first scaled, exactly, by the power
    of two that brings the larger entry into [0.5, 1), so no square the
    norms sum overflows; only entries below 1e-154 of it square to 0."""
    k1, k2 = _kappa1_and_2(layout, p)
    if k2 is None:
        return float("nan")
    e = -np.frexp(max(np.max(np.abs(k1)), np.max(np.abs(k2))))[1]
    return float(np.linalg.norm(np.ldexp(k2, e)) / np.linalg.norm(np.ldexp(k1, e)))

"""Shared linear-algebra and combinatorial kernels.

All logarithms here (and everywhere else in the package) are natural, so
entropies and log-determinants live on the same additive scale.  A single
symmetric eigendecomposition backend (LAPACK, through ``numpy.linalg``)
serves whitening, the rank-floor check and the single-matrix log-dets
`logdet_shifted` and `det_floor`.  `subset_logdet` is the one batched
kernel behind every per-state quantity: the converse sums, the Landau
statistics and the sampled capacities.  It makes no LAPACK call.  Given
a `SubsetPlan`, the trie of the shared top columns of a range of colex
ranks, which `colex_plan` computes from the ranks alone (the
combinatorial number system) and the caller builds once, it eliminates
along the plan, so that states sharing columns share their elimination;
the plan's gather maps are native integers, so a walk along it converts
no index.  Given an index block (a sparse sample, for which a plan does
not pay), it gathers each state's Gram from the panel's n x n Gram, and
factors all of them in one vectorized elimination.  Weights that belong
to the columns (one gain per subband and grid point, as in `capacity`
and `discrete`) scale the n x n Gram once per grid point, on either
path; weights that belong to the states (states with gains of their own)
scale each gathered Gram.  Both paths run many short numpy gathers and
elementwise loops whose Python steps hold the interpreter lock, so the
callers spread the kernel over forked worker processes
(`parallel.map_ordered`), each with a run of states or of trials, never
over threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericalError",
    "SingularityError",
    "SpectralDecomp",
    "SubsetPlan",
    "binary_entropy",
    "colex_indices",
    "colex_plan",
    "det_floor",
    "full_rank_gram",
    "log_binomial",
    "logdet_shifted",
    "minimax_limit",
    "real_matrix",
    "rect_logdet_limit",
    "spectral_decomp",
    "subset_logdet",
    "whiten",
]

# Relative tolerance under which an input must equal its transpose.
SYMMETRY_RTOL = 1e-10
# lambda_min(Q Q^T) <= RANK_FLOOR_FACTOR * trace / m flags rank deficiency.
RANK_FLOOR_FACTOR = 1e-12
# Exact integer binomials up to this n; log-gamma beyond.
EXACT_BINOMIAL_MAX_N = 64
# float64 entries per block of stacked subset matrices, fixed so that the
# blocking (and with it every output bit) depends on the problem sizes only
_BLOCK_ELEMENTS = 1 << 18
# float64 entries of the panels' n x n Grams B^T B up to which `subset_logdet`
# gathers its k x k Grams from them; fixed, so that the path (and with it
# every output bit) depends on the problem sizes only, never on the blocking
_GRAM_ELEMENTS = 1 << 17


class SingularityError(ArithmeticError):
    """A matrix is rank deficient beyond the configured eigenvalue floor."""


class NumericalError(ArithmeticError):
    """A computation that cannot deliver its result: a non-finite capacity
    or water level, a water-filling power residual beyond its tolerance, a
    degenerate random draw twice in a row, a log-determinant whose sign is
    not positive, or a state sample that stops growing."""


def _as_symmetric(mat: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate symmetry within `rtol` (relative) and return the symmetrized copy."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    if float(np.max(np.abs(mat - mat.T))) > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def spectral_decomp(mat: np.ndarray) -> SpectralDecomp:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""
    sym = _as_symmetric(mat)
    lam, vec = np.linalg.eigh(sym)
    order = np.argsort(lam)[::-1]
    return SpectralDecomp(eigenvalues=lam[order], eigenvectors=vec[:, order])


def full_rank_gram(q: np.ndarray, what: str = "matrix") -> SpectralDecomp:
    """Eigendecomposition of Q Q^T for an m x n matrix Q of full row rank.

    Raises:
        SingularityError: if the smallest eigenvalue of Q Q^T falls below
            the floor ``max(RANK_FLOOR_FACTOR * trace(Q Q^T) / m, tiny)``;
            `what` names the matrix in the message.
    """
    gram = q @ q.T
    dec = spectral_decomp(gram)
    lam_min = dec.eigenvalues[-1]
    floor = max(RANK_FLOOR_FACTOR * float(np.trace(gram)) / q.shape[0], np.finfo(float).tiny)
    if lam_min < floor:
        raise SingularityError(
            f"rank-deficient {what}: min eigenvalue {lam_min:.3e} below floor {floor:.3e}"
        )
    return dec


def _inv_sqrt(dec: SpectralDecomp) -> np.ndarray:
    v = dec.eigenvectors
    return (v * dec.eigenvalues ** -0.5) @ v.T


def real_matrix(q, what: str = "matrix") -> np.ndarray:
    """q as a float array; complex q, whose cast keeps only the real part, raises ValueError."""
    if np.iscomplexobj(q):
        raise ValueError(f"{what} is complex; only real coefficients are supported")
    return np.asarray(q, dtype=float)


def whiten(q: np.ndarray) -> np.ndarray:
    """Row-orthonormalize an m x n matrix: (Q Q^T)^{-1/2} Q.

    The output satisfies ``w @ w.T == I_m`` to within 1e-10 per entry and
    spans the same row space as the input.  Scaling and left-multiplication
    by an orthogonal matrix therefore leave downstream capacities unchanged.

    Raises:
        SingularityError: if Q fails the rank floor of `full_rank_gram`.
    """
    q = real_matrix(q)
    if q.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={q.ndim}")
    # Two passes: the first absorbs the conditioning of Q (and applies the
    # rank floor); the second runs on a nearly orthonormal matrix, where the
    # inverse square root is perfectly conditioned, restoring Q^w (Q^w)^T = I
    # to machine precision even when Q Q^T has condition number ~1e8.
    out = _inv_sqrt(full_rank_gram(q)) @ q
    return _inv_sqrt(spectral_decomp(out @ out.T)) @ out


def _subset_block_rows(m: int, k: int, q: int = 1) -> int:
    """States per block of `subset_logdet` for m x k subsets on q grid points."""
    return max(1, _BLOCK_ELEMENTS // (q * (m * k + min(m, k) ** 2)))


def _pivot_logdet(mats: np.ndarray) -> np.ndarray:
    """log det of every matrix in a (d, d, N) stack, overwriting the stack.

    Gaussian elimination without pivoting, vectorized over the last axis:
    d - 1 Schur-complement updates, and the log-determinant is the sum of
    the logs of the d pivots.  It is backward stable on symmetric positive
    (semi)definite matrices, which is all `subset_logdet` passes here.  A
    pivot that is not positive gives -inf.
    """
    d = mats.shape[0]
    # a zero or tiny pivot turns the trailing entries inf or nan, and the
    # state ends -inf, so the floating-point warnings are only noise
    with np.errstate(all="ignore"):
        for i in range(d - 1):
            ratio = mats[i + 1 :, i] / mats[i, i]
            mats[i + 1 :, i + 1 :] -= ratio[:, None] * mats[i, i + 1 :]
        # the eliminated diagonal holds the pivots
        pivots = mats.reshape(d * d, -1)[:: d + 1]
        logdets = np.log(pivots).sum(axis=0)
    logdets[~np.all(pivots > 0, axis=0)] = -np.inf
    return logdets


class _Level(NamedTuple):
    """Level j of a `SubsetPlan`: one node per run of states sharing their top j columns.

    Rows are the (node, column) pairs still to be eliminated below each
    node's prefix, node by node in ascending column order; entries are the
    stored Schur-complement entries, one per row at the last level, else the
    upper triangle of each node's rows, column by column.  Every map is an
    index into the previous level (the Gram itself at the first level).
    """

    parent: np.ndarray  # (nodes,) parent node
    pivot: np.ndarray  # (nodes,) previous-level entry (c, c) of the pivot column c
    width: np.ndarray  # (nodes,) rows per node
    column: np.ndarray  # (rows,) previous-level entry (a, c) of the row's column a
    ab: np.ndarray  # (entries,) previous-level entry (a, b)
    ra: np.ndarray | None  # (entries,) row of a; None at the last level, where b = a
    reps: np.ndarray | None  # (rows,) entries in which the row's column plays b


@dataclass(frozen=True, eq=False)
class SubsetPlan:
    """Read-only elimination plan of `subset_logdet` for the states of colex
    ranks lo .. hi - 1 of colex(n, k), as `colex_plan` builds it.

    It holds no matrix values, so one plan serves every matrix, shift and
    thread.  Its maps are native integers (``np.intp``), gathered with as
    stored.
    """

    n: int
    k: int
    lo: int  # the colex rank of the first state
    hi: int  # one more than the colex rank of the last state
    ncols: int  # one more than the largest column index
    levels: tuple[_Level, ...]  # k - 1 levels, largest columns first
    leaf: np.ndarray | None  # last-level entry of each state; None for the identity


def colex_indices(n: int, k: int) -> np.ndarray:
    """All k-subsets of {0..n-1} as a read-only (C(n, k), k) block, colex order.

    Colex order has the prefix property: the first C(c, r) rows of any
    colex(n', r) block with n' >= c are colex(c, r).  So colex(c', r) is
    colex(c, r - 1) with column c appended, for c = r - 1 .. c' - 1 in turn,
    and the block grows one column at a time without a sort.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    block = np.arange(n - k + 1, dtype=np.intp)[:, None]  # colex(n - k + 1, 1)
    for r in range(2, k + 1):  # colex(n - k + r, r) from colex(n - k + r - 1, r - 1)
        grown = np.empty((math.comb(n - k + r, r), r), dtype=np.intp)
        start = 0
        for c in range(r - 1, n - k + r):
            count = math.comb(c, r - 1)
            grown[start : start + count, :-1] = block[:count]
            grown[start : start + count, -1] = c
            start += count
        block = grown
    block.flags.writeable = False
    return block


def _places(counts: np.ndarray) -> np.ndarray:
    """Each element's place in its run, for runs of the given lengths laid
    end to end."""
    places = np.arange(counts.sum())
    places -= np.repeat(np.cumsum(counts) - counts, counts)
    return places


def colex_plan(n: int, k: int, lo: int = 0, hi: int | None = None) -> SubsetPlan:
    """The elimination plan of `subset_logdet` for the states of colex ranks
    lo .. hi - 1 of colex(n, k) (all of them by default).

    Each state eliminates its columns from the largest down.  States that
    share their top j columns share the Schur complement left after those j
    steps, so the plan is a trie of shared prefixes: one level per step,
    each storing, per node, the upper triangle of the complement over the
    columns its states still hold, with gather maps into the level above.
    A state's arithmetic is the same whatever it shares, so its value never
    depends on the range it is planned in.

    In colex order the maps follow from the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3), with no sort: the state c_0 < ... < c_{k-1}
    has rank sum_i C(c_i, i + 1), so a level-j node, the prefix
    c_{k-1} > ... > c_{k-j} with pivot c = c_{k-j}, holds the ranks from
    sum_{i >= k-j} C(c_i, i + 1) on, C(c, k - j) of them, and its states hold
    exactly the columns 0 .. c - 1 below it.  Its children are the new
    pivots a = k - j - 1 .. c - 1, and it stores the triangle over rows
    0 .. c - 1, entry (a, b) at b (b + 1) / 2 + a; the last level stores the
    diagonal, one entry per state.  A node is kept when its ranks meet
    [lo, hi), so a range stores the whole nodes it cuts at either end.

    Every map is a native integer (``np.intp``) array, which a walk gathers
    with as stored: numpy widens a narrower index on every gather, and a
    plan serves every trial, grid point and shift of its caller.  The maps
    of all of C(28, 7) take 67 MiB, and its build peaks 37 MiB above them.

    Raises:
        ValueError: unless 1 <= k <= n and 0 <= lo < hi <= C(n, k) < 2^63.
    """
    n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = math.comb(n, k)
    lo, hi = int(lo), total if hi is None else int(hi)
    if not 0 <= lo < hi <= total:
        raise ValueError(f"need 0 <= lo < hi <= C({n},{k}) = {total}, got lo={lo}, hi={hi}")
    if total > np.iinfo(np.intp).max:
        raise ValueError(f"C({n},{k}) = {total} exceeds the native integer range")
    # binom[r, c] = C(c, r); a rank or run length the build uses never
    # exceeds C(n, k), so the clipped entries are never read
    binom = np.array([[min(math.comb(c, r), total) for c in range(n)] for r in range(k + 1)],
                     dtype=np.intp)
    c = np.arange(k - 1, n)  # the level-1 nodes: the top column
    first = binom[k, c]  # the rank of each node's first state
    keep = (first < hi) & (first + binom[k - 1, c] > lo)
    c, first = c[keep], first[keep]
    ncols = int(c[-1]) + 1
    pbase = None  # per node, its parent's first entry; None at level 1, which reads the Gram
    parent = np.zeros(len(c), dtype=np.intp)
    levels = []
    for j in range(1, k):
        last = j == k - 1

        def entry(node, x, y):  # entry (x, y), x <= y, of node's parent
            if pbase is None:
                return x * ncols + y
            return pbase[node] + y * (y + 1) // 2 + x

        rnode = np.repeat(np.arange(len(c)), c)  # each row's node
        a = _places(c)  # each row's column, 0 .. c - 1
        column = entry(rnode, a, c[rnode])
        if last:
            ab, ra, reps = entry(rnode, a, a), None, None
        else:
            reps = a + 1  # the entries in which the row's column plays b
            size = c * (c + 1) // 2
            rb = np.repeat(np.arange(len(a)), reps)  # each entry's row of b
            ra = _places(reps)  # each entry's column a
            bcol = a[rb]  # each entry's column b
            if pbase is None:
                ab = ra * ncols + bcol
            else:  # entry (a, b) has the same place b (b + 1) / 2 + a in the parent's triangle
                ab = _places(size)
                ab += np.repeat(pbase, size)
            # the row of a, in place, since this runs over the level's entries
            ra += rb
            ra -= bcol
            del rb, bcol
        pivot = entry(np.arange(len(c)), c, c)
        levels.append(_Level(parent, pivot, c, column, ab, ra, reps))
        if not last:
            r = k - j  # the columns left to choose below each node
            kids = c - r + 1  # the children: new pivots r - 1 .. c - 1
            node = np.repeat(np.arange(len(c)), kids)
            a = _places(kids) + (r - 1)
            kid = first[node] + binom[r, a]
            keep = (kid < hi) & (kid + binom[r - 1, a] > lo)
            parent, c, first = node[keep], a[keep], kid[keep]
            pbase = (np.cumsum(size) - size)[parent]
    if k == 1:  # the single pivot is the Gram's diagonal entry
        leaf = c * (ncols + 1)
    elif lo == first[0] and hi == first[-1] + c[-1]:
        leaf = None  # one last-level entry per state, in order
    else:  # the last level holds the ranks first[0] .. on, one entry each
        leaf = np.arange(lo - first[0], hi - first[0])
    for arr in [leaf, *(a for lev in levels for a in lev)]:
        if arr is not None:
            arr.flags.writeable = False
    return SubsetPlan(n=n, k=k, lo=lo, hi=hi, ncols=ncols, levels=tuple(levels), leaf=leaf)


def _plan_logdet(plan: SubsetPlan, gram: np.ndarray, shift: float) -> np.ndarray:
    """log det(shift I + G_s) of every state of plan, G a panel's n x n Gram.

    Per level: each node's pivot, its running log-determinant, one ratio per
    stored row, and the Schur update of every stored entry.  A pivot <= 0 or
    nan leaves -inf or nan, which `subset_logdet` maps to -inf.
    """
    d = plan.ncols
    e = np.array(gram[:d, :d]).reshape(-1)
    e[:: d + 1] += shift
    if not plan.levels:
        return np.log(e[plan.leaf])
    # in place where possible, which keeps the peak memory of a call low
    logs = np.zeros(1)
    for lev in plan.levels:
        piv = e[lev.pivot]
        logs = logs[lev.parent] + np.log(piv)
        col = e[lev.column]
        ratio = np.repeat(piv, lev.width)
        np.divide(col, ratio, out=ratio)
        if lev.ra is None:  # the last level: one diagonal entry per row
            ratio *= col
        else:
            ratio = ratio[lev.ra]
            ratio *= np.repeat(col, lev.reps)
        del col, piv
        e = e[lev.ab]
        e -= ratio
        del ratio
    out = np.repeat(logs, plan.levels[-1].width)
    out += np.log(e, out=e)
    return out if plan.leaf is None else out[plan.leaf]


def _scaled_gram(grams, weights, j) -> np.ndarray:
    """Grid point j's n x n Gram, entry (a, b) scaled as (g_ab w_a) w_b, the
    order in which `_subset_grams` scales a gathered entry."""
    gram = grams[j % len(grams)]
    return gram * weights[:, j, None] * weights[None, :, j]


def _subset_grams(panels, grams, rows, weights) -> np.ndarray:
    """The smaller weighted Gram of every state in rows, as a (d, d, q, S) stack.

    With grams, a (g, n, n) stack of Grams (B^T B of each panel, or one
    weighted Gram per grid point), each k x k Gram is gathered entry by
    entry from every one of them, and scaled by w_a w_b per grid point when
    weights are given; otherwise the Grams are formed from the columns.
    """
    p, m, n = panels.shape
    if grams is not None:
        cols = np.ascontiguousarray(rows.T)  # (k, S)
        offsets = np.arange(len(grams))[:, None] * (n * n)  # Gram j starts at j n^2
        flat = (cols * n)[:, None, None, :] + (cols[:, None, :] + offsets)[None]
        mats = np.take(grams, flat)  # (k, k, g, S)
        if weights is None:
            return mats
        w = np.ascontiguousarray(np.transpose(weights, (1, 2, 0)))  # (k, q, S)
        return mats * w[:, None] * w[None, :]
    a = np.moveaxis(panels[:, :, rows], 2, 0)  # (S, p, m, k)
    if weights is not None:
        a = a * np.swapaxes(weights, 1, 2)[:, :, None, :]
    at = np.swapaxes(a, 2, 3)
    small = at @ a if rows.shape[1] <= m else a @ at  # (S, q, d, d)
    return np.ascontiguousarray(np.transpose(small, (2, 3, 1, 0)))


def _blocked_logdet(panels, grams, idx, weights, q, shift) -> np.ndarray:
    """Summed log-determinants of the Grams of `_subset_grams` over its q
    grid points, per state, in blocks of a fixed element budget."""
    m, k = panels.shape[1], idx.shape[1]
    d = min(m, k)
    block = _subset_block_rows(m, k, q)
    out = np.empty(len(idx))
    for start in range(0, len(idx), block):
        rows = idx[start : start + block]
        w = None if weights is None else weights[start : start + block]
        # (d, d, q, S); contiguous, so that the reshapes below are views
        mats = np.ascontiguousarray(_subset_grams(panels, grams, rows, w))
        mats.reshape(d * d, -1)[:: d + 1] += shift
        logdets = _pivot_logdet(mats.reshape(d, d, -1)).reshape(q, len(rows))
        out[start : start + block] = logdets.sum(axis=0)
    if k > m:
        out += q * (k - m) * math.log(shift) if shift > 0 else -np.inf
    return out


def subset_logdet(b, idx, weights=None, shift: float = 1.0) -> np.ndarray:
    """log det(shift I_k + A_s^T A_s) per state s, with A_s = B[:, s] diag(w_s).

    b is an m x n matrix or a (p, m, n) stack of panels; idx is an (S, k)
    integer block of zero-based column indices, one state per row, of any
    integer dtype (it is cast to ``np.intp`` once), or the `SubsetPlan` of
    a range of colex ranks from `colex_plan`, whose states it takes in
    colex order.  weights, if given, holds the column scales at each of q
    grid points, where grid point j uses
    panel j (or the one panel when p = 1): an (n, q) array, one row per
    column and shared by every state, or an (S, k, q) array, each state's
    own.  The log-determinants of the q grid points are summed per state.

    Each determinant comes from the smaller Gram: A^T A (k x k) when
    k <= m, else A A^T (m x m) plus the Sylvester term (k - m) log(shift)
    per grid point.  For k <= m, as long as the panels' p n^2 entries of
    B^T B fit a fixed budget (n up to 362 for one panel), B^T B is formed
    once per call, whole, so that no entry depends on the states.  Then
    the path follows what the caller passes:

    * a `SubsetPlan`, unweighted or with per-column weights: the states are
      factored along the plan, which shares the elimination of common top
      columns.  Per-column weights make one weighted Gram D B^T B D per
      grid point, D = diag(w), whose principal minors are exactly the
      states' weighted Grams D_s B_s^T B_s D_s.  A plan pays when it
      serves many matrices, or a census, so only the caller can tell, and
      builds it;
    * an index block: each state's k x k Gram is gathered from B^T B and
      factored on its own.  Per-column weights scale each grid point's
      n x n Gram once (the scaled Grams are held whole while they fit the
      budget, else one grid point at a time), so every gathered entry has
      the bits of the per-state weights w[idx], and so has every value;
    * per-state weights, with an index block or a plan: each gathered
      k x k Gram is scaled by its state's weights.

    Off the plan path, a plan's states are gathered from their index block,
    `colex_indices(n, k)[lo:hi]`.

    Beyond the budget, and for k > m, the Grams come from the columns, with
    per-column weights taken per state.  Gathered and column Grams are
    factored in blocks of a fixed element budget by elimination without
    pivoting (`_pivot_logdet`).  The path depends on p, m, n, k, the kind
    of idx and the shape of the weights only.  A pivot <= 0 (shift = 0
    with a singular minor) gives -inf.  Weights as small as float64 allows
    are fine (their entries underflow toward the shift); a weighted Gram
    entry that overflows, for a weight beyond about 1e154 on unit-norm
    columns, gives a value that is not finite.  Every value depends on its
    own state only, never on S, the order of the states or the block split.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    panels = np.asarray(b, dtype=float)
    if panels.ndim == 2:
        panels = panels[None]
    plan = idx if isinstance(idx, SubsetPlan) else None
    p, m, n = panels.shape
    if plan is not None:
        k = plan.k
        if plan.ncols > n:
            raise ValueError(f"column indices must lie in [0, {n})")
    else:
        idx = np.asarray(idx)
        if idx.dtype.kind in "iu":  # gather offsets such as cols * n overflow a narrow dtype
            idx = idx.astype(np.intp, copy=False)
        k = idx.shape[1]
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"column indices must lie in [0, {n})")
        if np.any(idx[:, 1:] <= idx[:, :-1]) and np.any(np.diff(np.sort(idx, axis=1)) == 0):
            raise ValueError("the column indices of a state must be distinct")
    gathered = k <= m and p * n * n <= _GRAM_ELEMENTS
    columns = False  # per-column weights on gathered Grams
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 2:  # one row per column
            if weights.shape[0] != n or p not in (1, weights.shape[1]):
                raise ValueError(f"column weights must have shape ({n}, q), q = {p} or p = 1")
            columns = gathered
    if plan is not None and not (gathered and (weights is None or columns)):
        idx, plan = colex_indices(plan.n, k)[plan.lo : plan.hi], None  # off the plan
    if weights is not None and weights.ndim == 2 and not gathered:
        weights = weights[idx]  # (S, k, q): the column path takes each state's own
    q = p if weights is None else weights.shape[-1]
    if not gathered:
        return _blocked_logdet(panels, None, idx, weights, q, shift)
    grams = np.swapaxes(panels, 1, 2) @ panels  # (p, n, n)
    if plan is not None:
        out = None
        with np.errstate(all="ignore"):
            for j in range(q):
                gram = grams[j] if weights is None else _scaled_gram(grams, weights, j)
                vals = _plan_logdet(plan, gram, shift)
                out = vals if out is None else out + vals
        out[np.isnan(out)] = -np.inf
        return out
    if not columns:
        return _blocked_logdet(panels, grams, idx, weights, q, shift)
    step = q if q * n * n <= _GRAM_ELEMENTS else 1  # grid points per pass
    out = None
    for j0 in range(0, q, step):
        with np.errstate(over="ignore"):  # an overflow leaves a value that is not finite
            scaled = np.stack([_scaled_gram(grams, weights, j) for j in range(j0, j0 + step)])
        vals = _blocked_logdet(panels, scaled, idx, None, step, shift)
        out = vals if out is None else out + vals  # the order of a sum over grid points
    return out


def logdet_shifted(mat: np.ndarray, eps: float) -> float:
    """log det(eps*I + S) for symmetric positive semidefinite S, natural log.

    eps = 0 is allowed only when S is strictly positive definite.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sym = _as_symmetric(mat)
    lam = np.linalg.eigvalsh(sym)
    shifted = lam + eps
    if shifted[0] <= 0.0:
        raise ValueError(
            f"eps + lambda_min = {shifted[0]:.3e} <= 0; shifted determinant undefined"
        )
    return float(np.sum(np.log(shifted)))


def det_floor(mat: np.ndarray, eps: float) -> float:
    """log of the eigenvalue-floored determinant: sum_i log(max(lambda_i, eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    sym = _as_symmetric(mat)
    lam = np.linalg.eigvalsh(sym)
    return float(np.sum(np.log(np.maximum(lam, eps))))


def binary_entropy(beta: float) -> float:
    """Binary entropy -b log b - (1-b) log(1-b) in nats, 0 at both endpoints."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if beta == 0.0 or beta == 1.0:
        return 0.0
    return float(-beta * math.log(beta) - (1.0 - beta) * math.log(1.0 - beta))


def log_binomial(n: int, k: int) -> float:
    """log C(n, k); exact integer arithmetic up to n=64, beyond it
    `math.lgamma` (about 1e-13 relative, since the three terms cancel).

    Satisfies the entropy sandwich
    ``H(k/n) - log(n+1)/n <= log C(n,k) / n <= H(k/n)``.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n <= EXACT_BINOMIAL_MAX_N:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def rect_logdet_limit(alpha: float) -> float:
    """Large-matrix limit of (1/n) log det((1/n) A A^T) for an m x n i.i.d.
    unit-variance ensemble with aspect ratio alpha = m/n in (0, 1):
    (1-alpha) log(1/(1-alpha)) - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return float((1.0 - alpha) * math.log(1.0 / (1.0 - alpha)) - alpha)


def minimax_limit(alpha: float, beta: float) -> float:
    """Minimax capacity-loss limit per unit bandwidth, (1/2)[H(b) - a H(b/a)].

    Equals H(beta)/2 at alpha = beta and vanishes at alpha = 1.
    """
    if not 0.0 < beta <= alpha <= 1.0:
        raise ValueError(f"need 0 < beta <= alpha <= 1, got alpha={alpha}, beta={beta}")
    ratio = min(beta / alpha, 1.0)
    return 0.5 * (binary_entropy(beta) - alpha * binary_entropy(ratio))

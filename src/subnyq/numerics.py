"""Shared linear-algebra and combinatorial kernels.

All logarithms here (and everywhere else in the package) are natural, so
entropies and log-determinants live on the same additive scale.  A single
symmetric eigendecomposition backend (LAPACK, through ``numpy.linalg``)
serves whitening, the rank-floor check and the single-matrix log-dets
`logdet_shifted` and `det_floor`.  `subset_logdet` is the one batched
kernel behind every per-state quantity: the converse sums, the Landau
statistics and the sampled capacities.  It makes no LAPACK call.  Given
a `SubsetPlan`, the trie of the states' shared top columns that the
caller builds once from the index block, it eliminates along the plan,
so that states sharing columns share their elimination; the plan's gather
maps are native integers, so a walk along it converts no index.  Given an
index block (a sparse sample, for which a plan does not pay), it gathers
each state's Gram from the panel's n x n Gram, and factors all of them in
one vectorized elimination.  Weights that belong to the columns (one gain
per subband and grid point, as in `capacity` and `discrete`) scale the
n x n Gram once per grid point, on either path; weights that belong to
the states (states with gains of their own) scale each gathered Gram.
Both paths run many short numpy gathers and elementwise
loops whose Python steps hold the interpreter lock, so the callers spread
the kernel over forked worker processes (`parallel.map_ordered`), each
with a run of states or of trials, never over threads.
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
    "det_floor",
    "full_rank_gram",
    "log_binomial",
    "logdet_shifted",
    "minimax_limit",
    "rect_logdet_limit",
    "spectral_decomp",
    "subset_block_rows",
    "subset_logdet",
    "subset_plan",
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
    """An iterative routine failed to converge."""


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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


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


def whiten(q: np.ndarray) -> np.ndarray:
    """Row-orthonormalize an m x n matrix: (Q Q^T)^{-1/2} Q.

    The output satisfies ``w @ w.T == I_m`` to within 1e-10 per entry and
    spans the same row space as the input.  Scaling and left-multiplication
    by an orthogonal matrix therefore leave downstream capacities unchanged.

    Raises:
        SingularityError: if Q fails the rank floor of `full_rank_gram`.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={q.ndim}")
    # Two passes: the first absorbs the conditioning of Q (and applies the
    # rank floor); the second runs on a nearly orthonormal matrix, where the
    # inverse square root is perfectly conditioned, restoring Q^w (Q^w)^T = I
    # to machine precision even when Q Q^T has condition number ~1e8.
    out = _inv_sqrt(full_rank_gram(q)) @ q
    return _inv_sqrt(spectral_decomp(out @ out.T)) @ out


def subset_block_rows(m: int, k: int, q: int = 1) -> int:
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
    """Read-only elimination plan of `subset_logdet` for one block of states.

    Built by `subset_plan` from the index block alone; it holds no matrix
    values, so one plan serves every matrix, shift and thread.  Its maps
    are native integers (``np.intp``), gathered with as stored.
    """

    indices: np.ndarray  # the (S, k) block the plan was built from
    ncols: int  # one more than the largest column index
    levels: tuple[_Level, ...]  # k - 1 levels, largest columns first
    leaf: np.ndarray | None  # last-level entry of each state; None for the identity


def _concatenate(arrays: list[np.ndarray]) -> np.ndarray:
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.intp)


def _descending(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's columns in descending order, and per row the first
    position where it differs from the row before (k for a repeat, -1 for
    the first row)."""
    desc = rows[:, ::-1]
    diff = desc[1:] != desc[:-1]
    first = np.where(diff.any(axis=1), diff.argmax(axis=1), desc.shape[1])
    return desc, np.concatenate(([-1], first))


def _slice_levels(rows, ncols, offsets, limit):
    """The levels of one slice of states, each state's leaf entry and
    the nodes, rows and entries per level; None if it would store more than
    limit entries.

    rows holds the slice's states, each sorted ascending, and offsets[j]
    counts the nodes, rows and entries of level j in the slices before this
    one.
    """
    desc, new_at = _descending(rows)
    k = desc.shape[1]
    if k == 1:  # the single pivot is the Gram's diagonal entry
        return [], desc[:, 0] * (ncols + 1), [(0, 0, 0)]
    levels, counts = [], [(0, 0, 0)]
    stored = 0
    prev = None  # (node, flat pos, base, first node) of the previous level
    for j in range(1, k):
        first = new_at < j  # the level-j nodes: runs of states sharing their top j columns
        node = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        last = j == k - 1
        if last:
            # one row, and one entry, per distinct (node, smallest column)
            # pair, so no (nodes x ncols) mask is needed
            keys, leaf = np.unique(node * ncols + desc[:, -1], return_inverse=True)
            rnode, rcol = np.divmod(keys, ncols)
            width = size = np.bincount(rnode, minlength=len(starts))
        else:
            mark = np.zeros(len(starts) * ncols, dtype=bool)
            mark[(node[:, None] * ncols + desc[:, j:]).reshape(-1)] = True
            mark = mark.reshape(-1, ncols)  # the columns left below each node's prefix
            width = np.count_nonzero(mark, axis=1)
            size = width * (width + 1) // 2
        stored += int(size.sum())
        if stored > limit:
            return None
        c = desc[starts, j - 1]  # the pivot column, the smallest of the prefix
        if prev is None:  # the first level reads the Gram, row-major
            parent = parent_ids = np.zeros(len(starts), dtype=np.intp)

            def entry(p, a, b):
                return a * ncols + b

        else:
            pnode, ppos, pbase, pfirst = prev
            parent = pnode[starts]
            parent_ids = parent + pfirst

            def entry(p, a, b):  # (a, b), a <= b, of node p's upper triangle
                pb = ppos[p * ncols + b].astype(np.intp)
                return pbase[p] + pb * (pb + 1) // 2 + ppos[p * ncols + a]

        if not last:
            # each column's row in its node; int32, since this (nodes x ncols)
            # array is the build's largest and no walk reads it
            pos = np.cumsum(mark, axis=1, dtype=np.int32).reshape(-1)
            pos -= 1
            rnode, rcol = np.nonzero(mark)
            del mark
            rx = pos[rnode * ncols + rcol]
        rparent = parent[rnode]
        column = entry(rparent, rcol, c[rnode])
        if last:
            ab, ra, reps = entry(rparent, rcol, rcol), None, None
        else:
            reps = rx.astype(np.intp) + 1
            rb = np.repeat(np.arange(len(rnode)), reps)  # the row of b
            # the row of a: rb - rx[rb] plus the entry's place in its column,
            # in place, since this runs over the level's entries
            ra = np.arange(len(rb))
            ra -= np.repeat(np.cumsum(reps) - reps, reps)
            ra -= rx[rb]
            ra += rb
            ab = entry(rparent[rb], rcol[ra], rcol[rb])
            del rb
            ra += offsets[j][1]
        pivot = entry(parent, c, c)
        levels.append([parent_ids, pivot, width, column, ab, ra, reps])  # a `_Level`'s fields
        counts.append((len(starts), len(rnode), int(size.sum())))
        if not last:
            prev = (node, pos, np.cumsum(size) - size + offsets[j][2], offsets[j][0])
    leaf += offsets[k - 1][2]  # the last level holds one entry per row
    return levels, leaf, counts


def _ascending(idx: np.ndarray) -> np.ndarray:
    """The rows of an (S, k) index block each sorted ascending (the block
    itself when they are).

    Raises:
        ValueError: for a row with a repeated column index.
    """
    if not np.any(idx[:, 1:] <= idx[:, :-1]):
        return idx
    rows = np.sort(idx, axis=1)
    if np.any(rows[:, 1:] == rows[:, :-1]):
        raise ValueError("the column indices of a state must be distinct")
    return rows


def subset_plan(idx) -> SubsetPlan:
    """The elimination plan of `subset_logdet` for an (S, k) block of states.

    Each state eliminates its columns from the largest down.  States that
    share their top j columns share the Schur complement left after those j
    steps, so the plan is a trie of shared prefixes: one level per step,
    each storing, per node, the upper triangle of the complement over the
    columns its states still hold, with gather maps into the level above.
    The last step keeps one entry per distinct state.  The maps depend on
    the index block alone.  A state's arithmetic is the same whatever it
    shares, so its value never depends on the rest of the block, its order
    or its split.

    States keep their order: a node is a run of consecutive states with
    the same top columns, so a block in colex order (as `colex_indices` and
    `enumerate_states` give it) shares the most.  They are taken in slices
    whose bookkeeping fits the block budget, and a slice that would store
    more entries than its states factored one by one is halved, so the plan
    never stores more than (k - 1) k (k + 1) / 6 entries per state.

    Every map is a native integer (``np.intp``) array, which a walk gathers
    with as stored: numpy widens a narrower index on every gather, and a
    plan serves every trial, grid point and shift of its caller.  The maps
    take 8 bytes per entry: 2.5 MB for the first 36,864 states of C(22, 6)
    (1.3 MB as int32), 72 MB for all of C(28, 7).  The build's own
    temporaries stay narrower where no walk reads them.

    A plan pays when its states share columns and when it serves many
    matrices.  A sparse sample does neither: for the `discrete` command's
    5,000 of the C(40, 8) states, building the plan took 16-21 ms and
    stored 77% of the entries of its states factored alone, one pass along
    it 1.8-2.9 ms, and the gathered pass of the block with its column
    weights 2.1-2.3 ms (2 cores, Python 3.11.7, numpy 2.4.6).  So
    `subset_logdet` runs along a plan only when its caller passes one, and
    `capacity.batched_losses` builds one for a census only.

    Raises:
        ValueError: for a row with a negative or repeated column index.
    """
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] < 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(f"expected an (S, k) integer index block, got shape {idx.shape}")
    count, k = idx.shape
    rows = _ascending(idx)
    if count and rows[:, 0].min() < 0:
        raise ValueError("column indices must be nonnegative")
    rows = rows.astype(np.intp, copy=False)  # the maps are native integers
    ncols = int(rows[:, -1].max()) + 1 if count else 0
    rows_per_slice = max(1, _BLOCK_ELEMENTS // (k + ncols))
    alone = (k - 1) * k * (k + 1) // 6  # entries of one state factored alone
    todo = [(lo, min(lo + rows_per_slice, count)) for lo in range(0, count, rows_per_slice)][::-1]
    offsets = [(0, 0, 0)] * k
    parts, leaves = [], []
    while todo:
        lo, hi = todo.pop()
        limit = (hi - lo) * alone
        built = _slice_levels(rows[lo:hi], ncols, offsets, limit)
        if built is None:
            mid = (lo + hi) // 2
            todo += [(mid, hi), (lo, mid)]
            continue
        parts.append(built[0])
        leaves.append(built[1])
        offsets = [tuple(map(sum, zip(a, b))) for a, b in zip(offsets, built[2])]
    built = None  # free the last slice before joining the parts
    levels = []
    for j in range(k - 1):
        kept = len(_Level._fields) - (2 if j == k - 2 else 0)  # no ra, reps at the last
        fields = []
        for f in range(kept):
            arrays = [part[j][f] for part in parts]
            for part in parts:
                part[j][f] = None  # free each map once joined: the peak stays near the plan's size
            fields.append(_concatenate(arrays))
            del arrays
        levels.append(_Level(*fields, *[None] * (len(_Level._fields) - kept)))
    leaf = _concatenate(leaves)
    if k > 1 and np.array_equal(leaf, np.arange(count)):
        leaf = None  # one entry per state, in order, as for a colex block without repeats
    for arr in [leaf, *(a for lev in levels for a in lev)]:
        if arr is not None:
            arr.flags.writeable = False
    if idx.flags.writeable:
        idx = idx.copy()
        idx.flags.writeable = False
    return SubsetPlan(indices=idx, ncols=ncols, levels=tuple(levels), leaf=leaf)


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
    block = subset_block_rows(m, k, q)
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
    integer block of zero-based column indices, one state per row, or a
    `SubsetPlan` built from one by `subset_plan`.  weights, if given, holds
    the column scales at each of q grid points, where grid point j uses
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
      states' weighted Grams D_s B_s^T B_s D_s.  A plan pays when its
      states share columns and it serves many matrices (see
      `subset_plan`), so only the caller can tell, and builds it;
    * an index block: each state's k x k Gram is gathered from B^T B and
      factored on its own.  Per-column weights scale each grid point's
      n x n Gram once (the scaled Grams are held whole while they fit the
      budget, else one grid point at a time), so every gathered entry has
      the bits of the per-state weights w[idx], and so has every value;
    * per-state weights, with an index block or a plan: each gathered
      k x k Gram is scaled by its state's weights.

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
    idx = plan.indices if plan is not None else np.asarray(idx)
    p, m, n = panels.shape
    k = idx.shape[1]
    if plan is not None:
        if plan.ncols > n:
            raise ValueError(f"column indices must lie in [0, {n})")
    elif idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"column indices must lie in [0, {n})")
    else:
        _ascending(idx)
    gathered = k <= m and p * n * n <= _GRAM_ELEMENTS
    columns = False  # per-column weights on gathered Grams
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 2:  # one row per column
            if weights.shape[0] != n or p not in (1, weights.shape[1]):
                raise ValueError(f"column weights must have shape ({n}, q), q = {p} or p = 1")
            columns = gathered
            if not gathered:
                weights = weights[idx]  # (S, k, q): the column path takes each state's own
    q = p if weights is None else weights.shape[-1]
    if not gathered:
        return _blocked_logdet(panels, None, idx, weights, q, shift)
    grams = np.swapaxes(panels, 1, 2) @ panels  # (p, n, n)
    if plan is not None and (weights is None or columns):
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

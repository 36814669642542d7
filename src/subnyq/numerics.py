"""Shared linear-algebra and combinatorial kernels.

All logarithms here (and everywhere else in the package) are natural, so
entropies and log-determinants live on the same additive scale.  A single
symmetric eigendecomposition backend (LAPACK, through ``numpy.linalg``)
serves whitening, the rank-floor check and the single-matrix log-dets
`logdet_shifted` and `det_floor`.  `subset_logdet` is the one batched
kernel behind every per-state quantity: the converse sums, the Landau
statistics and the sampled capacities.  It makes no LAPACK call: it
gathers each state's Gram from the panel's n x n Gram and factors all of
them in one vectorized elimination, using only `take` and elementwise
ufuncs, which release the interpreter lock, so threads calling it overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SingularityError",
    "SpectralDecomp",
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


def _subset_grams(panels, grams, rows, weights) -> np.ndarray:
    """The smaller Gram of every state in rows, as a (d, d, q, S) stack.

    With grams (the flattened n x n Grams B^T B of the panels) each k x k
    Gram is gathered entry by entry, once per panel, and scaled by w_a w_b
    per grid point; otherwise the Grams are formed from the columns.
    """
    p, m, n = panels.shape
    if grams is not None:
        cols = np.ascontiguousarray(rows.T)  # (k, S)
        offsets = np.arange(p)[:, None] * (n * n)  # panel j starts at j n^2
        flat = (cols * n)[:, None, None, :] + (cols[:, None, :] + offsets)[None]
        mats = np.take(grams, flat)  # (k, k, p, S)
        if weights is not None:
            w = np.ascontiguousarray(np.transpose(weights, (1, 2, 0)))  # (k, q, S)
            mats = mats * w[:, None] * w[None, :]
        return mats
    a = np.moveaxis(panels[:, :, rows], 2, 0)  # (S, p, m, k)
    if weights is not None:
        a = a * np.swapaxes(weights, 1, 2)[:, :, None, :]
    at = np.swapaxes(a, 2, 3)
    small = at @ a if rows.shape[1] <= m else a @ at  # (S, q, d, d)
    return np.ascontiguousarray(np.transpose(small, (2, 3, 1, 0)))


def subset_logdet(b, idx, weights=None, shift: float = 1.0) -> np.ndarray:
    """log det(shift I_k + A_s^T A_s) per state s, with A_s = B[:, s] diag(w_s).

    b is an m x n matrix or a (p, m, n) stack of panels; idx is an (S, k)
    integer block of zero-based column indices, one state per row.  weights,
    if given, is an (S, k, q) array: the column scales at each of q grid
    points, where grid point j uses panel j (or the one panel when p = 1).
    The log-determinants of the q grid points are summed per state.

    Each determinant comes from the smaller Gram: A^T A (k x k) when
    k <= m, else A A^T (m x m) plus the Sylvester term (k - m) log(shift)
    per grid point.  For k <= m the k x k Grams are gathered from each
    panel's n x n Gram B^T B, formed once per call, as long as those p n^2
    entries fit a fixed budget (n up to 362 for one panel); beyond it they
    come from the columns, like the m x m ones.  The path depends on p, m,
    n and k only, so a call for a single state forms the whole B^T B too.  All
    Grams of a block are factored together by elimination without pivoting
    (`_pivot_logdet`); a pivot <= 0 (shift = 0 with a singular minor) gives
    -inf.  States run in blocks of a fixed element budget, so memory stays
    bounded, and every value depends on its own state only, never on S or
    on the block split.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    panels = np.asarray(b, dtype=float)
    if panels.ndim == 2:
        panels = panels[None]
    idx = np.asarray(idx)
    p, m, n = panels.shape
    k = idx.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"column indices must lie in [0, {n})")
    q = p if weights is None else weights.shape[2]
    d = min(m, k)
    block = subset_block_rows(m, k, q)
    grams = None
    if k <= m and p * n * n <= _GRAM_ELEMENTS:
        grams = (np.swapaxes(panels, 1, 2) @ panels).reshape(-1)
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

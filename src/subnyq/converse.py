"""Exact combinatorial identities behind the converse bound.

For any m x n matrix B with orthonormal rows (B B^T = I_m) and any
eps >= 0, the sum over all k-subsets s of column indices satisfies

    sum_s det(eps I_k + B_s^T B_s) = sum_{l=0..k} C(n-l, k-l) C(m, l) eps^{k-l},

a Cauchy-Binet consequence that is independent of B.  Averaging over the
C(n, k) states turns it into a deterministic upper bound on the smallest
normalized log-determinant, which is what caps how well any sampler can
treat its worst state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    CENSUS_CAP, census_stats, colex_plan, log_binomial, minimax_limit, subset_logdet
)

__all__ = [
    "ConverseCheck",
    "min_state_logdet_bound",
    "minimax_lower_bound",
    "per_instance_sandwich",
    "subset_det_sum",
    "subset_det_sum_closed",
    "subset_det_sums_unchecked",
]

ORTHONORMAL_ATOL = 1e-8


@dataclass(frozen=True)
class ConverseCheck:
    """One enumerated-vs-closed-form comparison of the subset determinant sum."""

    n: int
    k: int
    m: int
    eps: float
    lhs_sum: float
    rhs_closed: float

    @property
    def relative_error(self) -> float:
        return abs(self.lhs_sum - self.rhs_closed) / max(self.rhs_closed, 1e-300)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "eps": self.eps,
            "lhs_sum": self.lhs_sum,
            "rhs_closed": self.rhs_closed,
            "relative_error": self.relative_error,
        }


def _check_instance(b: np.ndarray, k: int, eps: float) -> np.ndarray:
    """B with orthonormal rows, 1 <= k <= m, eps >= 0 and C(n, k) <= CENSUS_CAP."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] > b.shape[1]:
        raise ValueError(f"expected an m x n matrix with m <= n, got {b.shape}")
    m, n = b.shape
    if float(np.max(np.abs(b @ b.T - np.eye(m)))) > ORTHONORMAL_ATOL:
        raise ValueError("matrix rows are not orthonormal within 1e-8")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if math.comb(n, k) > CENSUS_CAP:
        raise ValueError(f"C({n},{k}) = {math.comb(n, k)} exceeds the census cap {CENSUS_CAP}")
    return b


def subset_det_sums_unchecked(b: np.ndarray, k: int, eps_grid) -> list[float]:
    """The enumerated sums of `subset_det_sum` at each eps of eps_grid,
    without its preconditions.

    Any m x n matrix with 1 <= k <= n is accepted (rows need not be
    orthonormal), which lets a fault-injection run corrupt B on purpose.
    One plan, `numerics.colex_plan(n, k)`, serves the whole grid, in the
    calling process: two half plans on two forked workers were slower at
    every size measured, from C(12, 6) = 924 to C(26, 6) = 230,230 states
    (4 eps: 0.4 against 3.0 ms, 16.1 against 19.7 ms at C(22, 6), 48.8
    against 57.6 ms; 2-core VM, Python 3.11.7, numpy 2.4.6, where a forked
    worker mostly shared its parent's core).  Each sum is exactly rounded
    (math.fsum).
    """
    b = np.asarray(b, dtype=float)
    plan = colex_plan(b.shape[1], k)
    return [math.fsum(np.exp(subset_logdet(b, plan, shift=eps)).tolist()) for eps in eps_grid]


def subset_det_sum(b: np.ndarray, k: int, eps: float) -> float:
    """sum over all k-subsets s of det(eps I_k + B_s^T B_s), by enumeration.

    Requires orthonormal rows (within 1e-8), k <= m, eps >= 0 and
    C(n, k) <= CENSUS_CAP subsets.
    """
    return subset_det_sums_unchecked(_check_instance(b, k, eps), k, [eps])[0]


def subset_det_sum_closed(n: int, k: int, m: int, eps: float) -> float:
    """Closed form sum_{l=0..k} C(n-l, k-l) C(m, l) eps^{k-l}, exact binomials."""
    if not 1 <= k <= m <= n:
        raise ValueError(f"need 1 <= k <= m <= n, got ({n}, {k}, {m})")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    total = 0.0
    for l in range(k + 1):
        coeff = math.comb(n - l, k - l) * math.comb(m, l)
        total += float(coeff) * eps ** (k - l)
    return total


def min_state_logdet_bound(n: int, k: int, m: int, eps: float) -> dict[str, float]:
    """Deterministic caps on min_s (1/n) log det(eps I + B_s^T B_s).

    exact   = (1/n)[log C(m,k) - log C(n,k)] + 2 sqrt(eps)
    entropy = alpha H(beta/alpha) - H(beta) + 2 sqrt(eps) + log(n+1)/n

    exact <= entropy always; both hold for every orthonormal-rows B.
    """
    if not 1 <= k <= m <= n:
        raise ValueError(f"need 1 <= k <= m <= n, got ({n}, {k}, {m})")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    root = 2.0 * math.sqrt(eps)
    exact = (log_binomial(m, k) - log_binomial(n, k)) / n + root
    entropy = -2.0 * minimax_limit(m / n, k / n) + root + math.log(n + 1) / n
    return {"exact": exact, "entropy": entropy}


def minimax_lower_bound(n: int, k: int, m: int, snr_min: float, bandwidth: float) -> float:
    """Converse lower bound on the worst-case capacity loss, nats/s:

    (W/2)[H(beta) - alpha H(beta/alpha) - 2/sqrt(SNR_min) - log(n+1)/n].

    May be negative at low SNR or small n; returned as-is.
    """
    if not 1 <= k <= m <= n:
        raise ValueError(f"need 1 <= k <= m <= n, got ({n}, {k}, {m})")
    if snr_min <= 0:
        raise ValueError("snr_min must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return 0.5 * bandwidth * (
        2.0 * minimax_limit(m / n, k / n) - 2.0 / math.sqrt(snr_min) - math.log(n + 1) / n
    )


def per_instance_sandwich(b: np.ndarray, k: int, eps: float) -> dict[str, float]:
    """Enumerated min of (1/n) log det(eps I + B_s^T B_s) and its certified cap.

    Returns {"min_state_value", "deterministic_upper"}; the min can never
    exceed the cap for any orthonormal-rows B, so a violation here is an
    internal-consistency failure, not statistical noise.  The min is that
    of `numerics.census_stats`, in the calling process.
    """
    b = _check_instance(b, k, eps)
    m, n = b.shape
    return {
        "min_state_value": census_stats([b], k, eps)[0][0],
        "deterministic_upper": min_state_logdet_bound(n, k, m, eps)["exact"],
    }

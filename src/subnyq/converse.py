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

from .channel import colex_indices
from .numerics import SubsetPlan, binary_entropy, log_binomial, subset_logdet, subset_plan
from .parallel import map_ordered

__all__ = [
    "ConverseCheck",
    "ENUMERATION_CAP",
    "colex_plans",
    "min_state_logdet_bound",
    "minimax_lower_bound",
    "per_instance_sandwich",
    "subset_det_sum",
    "subset_det_sum_closed",
    "subset_det_sums_unchecked",
]

# Exhaustive identity checks refuse to run beyond this many subsets.
ENUMERATION_CAP = 10**6
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
    """B with orthonormal rows, 1 <= k <= m, eps >= 0 and C(n, k) <= ENUMERATION_CAP."""
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
    if math.comb(n, k) > ENUMERATION_CAP:
        raise ValueError(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    return b


def colex_plans(n: int, k: int, workers: int = 1) -> list[SubsetPlan]:
    """Elimination plans of all k-subsets of n columns in colex order.

    One run of states per worker.  Build them once per instance and pass
    them to `subset_det_sums_unchecked` and `per_instance_sandwich`, which
    build their own otherwise; each of them maps over the plans once, for
    its whole eps grid.  No value depends on the split.
    """
    idx = colex_indices(n, k)
    size = -(-len(idx) // max(1, workers))
    return [subset_plan(idx[start : start + size]) for start in range(0, len(idx), size)]


def _enumerated_logdets(b, k, eps_grid, workers, plans) -> list[np.ndarray]:
    """log det(eps I_k + B_s^T B_s) for all k-subsets s in colex order, per eps."""
    n = b.shape[1]
    if plans is None:
        plans = colex_plans(n, k, workers)
    elif sum(len(plan.indices) for plan in plans) != math.comb(n, k) or any(
        plan.indices.shape[1] != k or plan.ncols > n for plan in plans
    ):
        raise ValueError(f"the plans do not hold the C({n},{k}) states")
    per_plan = map_ordered(
        lambda plan: [subset_logdet(b, plan, shift=eps) for eps in eps_grid], plans, workers=workers
    )
    return [np.concatenate(vals) for vals in zip(*per_plan)]


def subset_det_sums_unchecked(
    b: np.ndarray, k: int, eps_grid, workers: int = 1, plans: list[SubsetPlan] | None = None
) -> list[float]:
    """The enumerated sums of `subset_det_sum` at each eps of eps_grid,
    without its preconditions.

    Any m x n matrix with 1 <= k <= n is accepted (rows need not be
    orthonormal), which lets a fault-injection run corrupt B on purpose.
    plans, if given, come from `colex_plans(n, k)`.  Each sum is exactly
    rounded (math.fsum), so it does not depend on workers.
    """
    b = np.asarray(b, dtype=float)
    logdets = _enumerated_logdets(b, k, eps_grid, workers, plans)
    return [math.fsum(np.exp(vals).tolist()) for vals in logdets]


def subset_det_sum(b: np.ndarray, k: int, eps: float, workers: int = 1) -> float:
    """sum over all k-subsets s of det(eps I_k + B_s^T B_s), by enumeration.

    Requires orthonormal rows (within 1e-8), k <= m, eps >= 0 and
    C(n, k) <= ENUMERATION_CAP subsets.
    """
    return subset_det_sums_unchecked(_check_instance(b, k, eps), k, [eps], workers)[0]


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
    alpha = m / n
    beta = k / n
    root = 2.0 * math.sqrt(eps)
    exact = (log_binomial(m, k) - log_binomial(n, k)) / n + root
    entropy = (
        alpha * binary_entropy(min(beta / alpha, 1.0))
        - binary_entropy(beta)
        + root
        + math.log(n + 1) / n
    )
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
    alpha = m / n
    beta = k / n
    return 0.5 * bandwidth * (
        binary_entropy(beta)
        - alpha * binary_entropy(min(beta / alpha, 1.0))
        - 2.0 / math.sqrt(snr_min)
        - math.log(n + 1) / n
    )


def per_instance_sandwich(
    b: np.ndarray, k: int, eps: float, workers: int = 1, plans: list[SubsetPlan] | None = None
) -> dict[str, float]:
    """Enumerated min of (1/n) log det(eps I + B_s^T B_s) and its certified cap.

    Returns {"min_state_value", "deterministic_upper"}; the min can never
    exceed the cap for any orthonormal-rows B, so a violation here is an
    internal-consistency failure, not statistical noise.  plans, if given,
    come from `colex_plans(n, k)`.
    """
    b = _check_instance(b, k, eps)
    m, n = b.shape
    logdets = _enumerated_logdets(b, k, [eps], workers, plans)[0]
    return {
        "min_state_value": float(np.min(logdets)) / n,
        "deterministic_upper": min_state_logdet_bound(n, k, m, eps)["exact"],
    }

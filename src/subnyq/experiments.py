"""Seeded Monte Carlo suites for the random-sampling and log-det results.

Two kinds of checks coexist here and must not be confused:

* deterministic per-instance bounds (the subset-determinant cap) hold for
  every draw; a single violation is a code bug, and the trials count them
  with a zero budget;
* high-probability brackets and trend checks carry explicit trial counts
  and failure budgets in the TrialConfig, so the pass criterion is part
  of the result itself.

Statistics are bit-reproducible given the master seed: trial t reads its
own Philox stream keyed by master_seed XOR t, and every reduction runs in
a fixed order regardless of worker count.

Workers are forked processes (`parallel.map_ordered`), used by the
achievability suites, whose trials run the subset kernel's many short
numpy calls.  Each worker takes a run of states, not of trials: before
the fork, the caller draws every trial's matrix in one pass
(`samplers.draw_matrices`, each trial on its own stream) and whitens it,
which checks the rank floor once per accepted draw; each worker builds the
elimination plan of its own run of whole STATE_CHUNK-state chunks, a range
of colex ranks, and evaluates every trial on it, so both the plan and the
kernel are spread.  No index block of the states is formed.  The suites
whose trial is one LAPACK call on a dense matrix (concentration, rect
log-det, small-eigenvalue count, Wishart minor) run their trials in the
calling process and take no `workers`: OpenBLAS already threads those
calls, and forked workers on top of its thread pools oversubscribe the
cores.  On 2 cores, 200 concentration trials at k = 100 took 0.11 s in
one process and 0.65-0.81 s on two.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .capacity import batched_losses
from .channel import CompoundChannel, enumerate_states
from .converse import min_state_logdet_bound
from .numerics import (
    NumericalError,
    SingularityError,
    binary_entropy,
    colex_plan,
    full_rank_gram,
    minimax_limit,
    rect_logdet_limit,
    subset_logdet,
    whiten,
)
from .parallel import map_ordered
from .samplers import (
    RESAMPLE_KEY_FLIP,
    EnsembleSpec,
    derive_trial_seed,
    draw_matrices,
    draw_matrix,
    gaussian_batches,
    make_flat_sampler,
)

__all__ = [
    "ExperimentResult",
    "TrialConfig",
    "inverse_wishart_trace_trial",
    "landau_achievability_trial",
    "logdet_concentration_trial",
    "loss_uniformity_report",
    "rect_logdet_trial",
    "small_eigenvalue_count_trial",
    "superlandau_achievability_trial",
    "wishart_det_expectation",
    "wishart_minor_limit",
    "wishart_minor_trial",
]

# States per chunk of an achievability suite.  Each chunk is summed with
# np.sum and the chunk sums with math.fsum; the size is fixed, so that the
# means (and with them every output bit) never depend on the worker count.
STATE_CHUNK = 1 << 12

@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one Monte Carlo suite."""

    n: int
    k: int
    m: int
    ensemble: str = "gaussian"
    eps: float = 0.05
    trials: int = 50
    master_seed: int = 0
    state_cap: int = 1_000_000
    tau: float = 0.02
    failure_budget: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if not 1 <= self.k <= self.m <= self.n:
            raise ValueError(
                f"need 1 <= k <= m <= n, got k={self.k}, m={self.m}, n={self.n}"
            )
        if self.failure_budget < 0:
            raise ValueError("failure budget must be nonnegative")


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of one suite: per-trial series, targets, violations, budget."""

    name: str
    trials: int
    reference: float
    bound: float | None
    bound_violations: int
    violation_budget: int
    summary: dict[str, float]
    per_trial: dict[str, tuple[float, ...]] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.bound_violations <= self.violation_budget

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "reference": self.reference,
            "bound": self.bound,
            "bound_violations": self.bound_violations,
            "violation_budget": self.violation_budget,
            "passed": self.passed,
            "summary": dict(sorted(self.summary.items())),
            "per_trial": {key: list(val) for key, val in sorted(self.per_trial.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        rows = [
            ("suite", self.name),
            ("trials", str(self.trials)),
            ("reference", f"{self.reference:+.6f}"),
            ("bound", "-" if self.bound is None else f"{self.bound:+.6f}"),
            ("violations", f"{self.bound_violations} / budget {self.violation_budget}"),
            ("verdict", "pass" if self.passed else "FAIL"),
            ("wall clock", f"{self.wall_clock_s:.2f} s"),
        ]
        rows += [(key, f"{val:+.6f}") for key, val in sorted(self.summary.items())]
        width = max(len(key) for key, _ in rows)
        return "\n".join(f"{key.ljust(width)}  {val}" for key, val in rows)


def _full_rank(mat: np.ndarray) -> np.ndarray:
    """mat, once it passes the rank floor of `full_rank_gram`."""
    full_rank_gram(mat)
    return mat


def _draw_full_rank(spec: EnsembleSpec, accept=_full_rank, first: np.ndarray | None = None):
    """accept(draw) of spec's matrix, resampling once (flipped key) if it
    fails the rank floor.

    accept applies the rank floor of `full_rank_gram`, which raises
    SingularityError, as `whiten` and `make_flat_sampler` do; passing one of
    them checks the floor once per accepted draw.  first, if given, is
    spec's own draw, already made.

    Raises:
        NumericalError: if the resampled matrix fails the floor too.
    """
    try:
        return accept(draw_matrix(spec) if first is None else first)
    except SingularityError:
        pass
    try:
        return accept(draw_matrix(spec.with_seed(spec.seed ^ RESAMPLE_KEY_FLIP)))
    except SingularityError:
        raise NumericalError(
            f"degenerate draw twice in a row for {spec}; check dimensions or the RNG"
        ) from None


def _achievability(cfg: TrialConfig, name: str, workers: int) -> ExperimentResult:
    start = time.perf_counter()
    if math.comb(cfg.n, cfg.k) > cfg.state_cap:
        raise ValueError(
            f"C({cfg.n},{cfg.k}) exceeds state_cap={cfg.state_cap}; full enumeration required"
        )
    count = math.comb(cfg.n, cfg.k)
    alpha = cfg.m / cfg.n
    beta = cfg.k / cfg.n
    target = -binary_entropy(beta) + alpha * binary_entropy(min(beta / alpha, 1.0))
    bound = min_state_logdet_bound(cfg.n, cfg.k, cfg.m, cfg.eps)["exact"]
    specs = [
        EnsembleSpec(cfg.ensemble, cfg.m, cfg.n, derive_trial_seed(cfg.master_seed, t))
        for t in range(cfg.trials)
    ]
    # every trial's matrix in one draw pass, whitened before the fork
    mats = [_draw_full_rank(spec, whiten, first) for spec, first in zip(specs, draw_matrices(specs))]
    # whole chunks per worker, so that the chunk sums never depend on workers
    chunks = range(0, count, STATE_CHUNK)
    runs = max(1, min(workers, len(chunks)))
    cuts = [chunks[len(chunks) * r // runs] for r in range(runs)] + [count]

    def one_run(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per trial: min, max and chunk sums over the states of run r."""
        lo, hi = cuts[r], cuts[r + 1]
        plan = colex_plan(cfg.n, cfg.k, lo, hi)  # one elimination plan for every trial
        mins, maxs, sums = [], [], []
        for b in mats:
            vals = subset_logdet(b, plan, shift=cfg.eps) / cfg.n
            mins.append(np.min(vals))
            maxs.append(np.max(vals))
            sums.append([np.sum(vals[a : a + STATE_CHUNK]) for a in range(0, hi - lo, STATE_CHUNK)])
        return np.array(mins), np.array(maxs), np.array(sums)

    stats = map_ordered(one_run, range(runs), workers=workers)
    mins = tuple(np.min([s[0] for s in stats], axis=0).tolist())
    maxs = tuple(np.max([s[1] for s in stats], axis=0).tolist())
    sums = np.concatenate([s[2] for s in stats], axis=1)
    means = tuple(math.fsum(row) / count for row in sums.tolist())
    violations = sum(1 for v in mins if v > bound)
    max_violations = sum(1 for v in maxs if v > bound)
    return ExperimentResult(
        name=name,
        trials=cfg.trials,
        reference=target,
        bound=bound,
        bound_violations=violations,
        violation_budget=0,
        summary={
            "mean_min": float(np.mean(mins)),
            "mean_max": float(np.mean(maxs)),
            "mean_mean": float(np.mean(means)),
            "std_min": float(np.std(mins)),
            "max_over_bound_count": float(max_violations),
        },
        per_trial={"min": mins, "max": maxs, "mean": means},
        wall_clock_s=time.perf_counter() - start,
    )


def landau_achievability_trial(cfg: TrialConfig, workers: int = 1) -> ExperimentResult:
    """Landau-rate statistic (1/n) log det(eps I + (M M^T)^{-1} M_s M_s^T), k = m.

    The min over states is compared against the target -H(beta) and the
    deterministic cap (1/n)[log C(m,k) - log C(n,k)] + 2 sqrt(eps), which
    no draw may ever exceed (budget 0).  Per trial, min and max run over
    all S = C(n, k) states.  The mean is math.fsum of the np.sum of each
    consecutive chunk of STATE_CHUNK states in colex order, divided by S:
    it is the same for every worker count and within a few ulps of the
    exactly rounded mean.
    """
    if cfg.k != cfg.m:
        raise ValueError(f"Landau-rate trials need k = m, got k={cfg.k}, m={cfg.m}")
    return _achievability(cfg, name="landau_achievability", workers=workers)


def superlandau_achievability_trial(
    cfg: TrialConfig, workers: int = 1, require_margin: bool = True
) -> ExperimentResult:
    """Super-Landau statistic (1/n) log det(eps I + M_s^T (M M^T)^{-1} M_s), k < m.

    Gaussian draws only.  With require_margin the oversampling regime must
    satisfy alpha + beta <= 0.95; the m = n sanity mode waives it.
    """
    if cfg.ensemble != "gaussian":
        raise ValueError("super-Landau trials are defined for the gaussian ensemble only")
    if cfg.k >= cfg.m:
        raise ValueError(f"super-Landau trials need k < m, got k={cfg.k}, m={cfg.m}")
    alpha = cfg.m / cfg.n
    beta = cfg.k / cfg.n
    if require_margin and 1.0 - alpha - beta < 0.05:
        raise ValueError(
            f"need 1 - alpha - beta >= 0.05, got alpha={alpha:.3f}, beta={beta:.3f}"
        )
    return _achievability(cfg, name="superlandau_achievability", workers=workers)


def logdet_concentration_trial(cfg: TrialConfig) -> ExperimentResult:
    """Concentration of (1/k) log det(eps I + (1/k) A A^T) for square k x k draws.

    The empirical mean must land in the expectation bracket
    [-1 + log(k)/(2k) - 2/(k eps),  -1 + 1.5 log(ek)/k + 2 sqrt(eps) log(1/eps)]
    widened by 3 empirical-std / sqrt(trials).
    """
    if not 0.0 < cfg.eps <= 0.8:
        raise ValueError(f"eps must lie in (0, 0.8], got {cfg.eps}")
    k = cfg.k
    start = time.perf_counter()

    def one_trial(t: int) -> float:
        spec = EnsembleSpec(cfg.ensemble, k, k, derive_trial_seed(cfg.master_seed, t))
        a = draw_matrix(spec)
        sign, val = np.linalg.slogdet(cfg.eps * np.eye(k) + (a @ a.T) / k)
        if sign <= 0:  # eps I + PSD is positive definite; anything else is numerical
            raise NumericalError(f"log-determinant sign {sign} in concentration trial {t}")
        return float(val) / k

    vals = np.asarray([one_trial(t) for t in range(cfg.trials)])
    mean = float(np.mean(vals))
    std = float(np.std(vals))
    slack = 3.0 * std / math.sqrt(cfg.trials)
    lower = -1.0 + math.log(k) / (2.0 * k) - 2.0 / (k * cfg.eps)
    upper = -1.0 + 1.5 * math.log(math.e * k) / k + 2.0 * math.sqrt(cfg.eps) * math.log(1.0 / cfg.eps)
    inside = (lower - slack) <= mean <= (upper + slack)
    return ExperimentResult(
        name="logdet_concentration",
        trials=cfg.trials,
        reference=-1.0,
        bound=upper,
        bound_violations=0 if inside else 1,
        violation_budget=cfg.failure_budget,
        summary={
            "mean": mean,
            "spread": std,
            "bracket_lower": lower,
            "bracket_upper": upper,
            "slack": slack,
        },
        per_trial={"stat": tuple(vals.tolist())},
        wall_clock_s=time.perf_counter() - start,
    )


def wishart_det_expectation(k: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of E det(A A^T) for k x k gaussian A, divided by k!.

    The expectation is exactly k! (expand det(A)^2 with the Leibniz formula;
    only matching permutations survive independence).  Variance explodes in
    k, hence the k <= 6 guard.
    """
    if not 1 <= k <= 6:
        raise ValueError(f"k must lie in 1..6 (determinant variance explodes), got {k}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    partials = []
    for batch in gaussian_batches(trials, (k, k), seed):
        grams = batch @ np.swapaxes(batch, 1, 2)
        partials.append(math.fsum(np.linalg.det(grams).tolist()))
    return math.fsum(partials) / trials / math.factorial(k)


def rect_logdet_trial(cfg: TrialConfig) -> ExperimentResult:
    """How often (1/n) log det((1/n) A A^T) lands within 1/sqrt(n) of its limit.

    A is m x n from the configured ensemble, alpha = m/n in [0.1, 0.9]; the
    limit is (1-alpha) log(1/(1-alpha)) - alpha.
    """
    alpha = cfg.m / cfg.n
    if not 0.1 <= alpha <= 0.9:
        raise ValueError(f"alpha must lie in [0.1, 0.9], got {alpha:.3f}")
    start = time.perf_counter()
    limit = rect_logdet_limit(alpha)
    radius = 1.0 / math.sqrt(cfg.n)

    def one_trial(t: int) -> float:
        spec = EnsembleSpec(cfg.ensemble, cfg.m, cfg.n, derive_trial_seed(cfg.master_seed, t))
        a = draw_matrix(spec)
        sign, val = np.linalg.slogdet((a @ a.T) / cfg.n)
        return float(val) / cfg.n if sign > 0 else -np.inf

    vals = np.asarray([one_trial(t) for t in range(cfg.trials)])
    devs = np.abs(vals - limit)
    outside = int(np.sum(devs > radius))
    return ExperimentResult(
        name="rect_logdet",
        trials=cfg.trials,
        reference=limit,
        bound=radius,
        bound_violations=outside,
        violation_budget=cfg.failure_budget,
        summary={
            "fraction_within": 1.0 - outside / cfg.trials,
            "median_abs_dev": float(np.median(devs)),
            "mean_stat": float(np.mean(vals)),
        },
        per_trial={"stat": tuple(vals.tolist()), "abs_dev": tuple(devs.tolist())},
        wall_clock_s=time.perf_counter() - start,
    )


def small_eigenvalue_count_trial(cfg: TrialConfig) -> ExperimentResult:
    """Counting bound on eigenvalues of (1/n) A A^T below eps, gaussian only:

    card{lambda_i < eps}/n < alpha eps / (1 - alpha - 1/n) + 4 sqrt(alpha tau) / sqrt(n eps),

    an event of probability >= 1 - 2 exp(-tau n); violations should be ~0.
    """
    if cfg.ensemble != "gaussian":
        raise ValueError("the eigenvalue counting bound is stated for gaussian draws")
    alpha = cfg.m / cfg.n
    if not 0.1 <= alpha <= 0.9:
        raise ValueError(f"alpha must lie in [0.1, 0.9], got {alpha:.3f}")
    if cfg.eps <= 0 or cfg.tau <= 0:
        raise ValueError("eps and tau must be positive")
    start = time.perf_counter()
    bound = alpha * cfg.eps / (1.0 - alpha - 1.0 / cfg.n) + 4.0 * math.sqrt(
        alpha * cfg.tau
    ) / math.sqrt(cfg.n * cfg.eps)

    def one_trial(t: int) -> float:
        spec = EnsembleSpec("gaussian", cfg.m, cfg.n, derive_trial_seed(cfg.master_seed, t))
        a = draw_matrix(spec)
        lam = np.linalg.eigvalsh((a @ a.T) / cfg.n)
        return float(np.sum(lam < cfg.eps)) / cfg.n

    fracs = np.asarray([one_trial(t) for t in range(cfg.trials)])
    violations = int(np.sum(fracs >= bound))
    return ExperimentResult(
        name="small_eigenvalue_count",
        trials=cfg.trials,
        reference=0.0,
        bound=bound,
        bound_violations=violations,
        violation_budget=cfg.failure_budget,
        summary={"max_fraction": float(np.max(fracs)), "mean_fraction": float(np.mean(fracs))},
        per_trial={"fraction": tuple(fracs.tolist())},
        wall_clock_s=time.perf_counter() - start,
    )


def wishart_minor_limit(alpha: float, beta: float) -> float:
    """Closed-form limit of (1/n) log det(eps I + A^T B^{-1} A) for gaussian A
    (m x k) independent of B ~ W_m(n-k, I):

    -(a-b) log(a-b) + a log a + (1-a-b) log(1 - b/(1-a)) - b log(1-a).
    """
    if not (alpha - beta > 0 and 1.0 - alpha - beta > 0):
        raise ValueError("need alpha > beta and alpha + beta < 1")
    return float(
        -(alpha - beta) * math.log(alpha - beta)
        + alpha * math.log(alpha)
        + (1.0 - alpha - beta) * math.log(1.0 - beta / (1.0 - alpha))
        - beta * math.log(1.0 - alpha)
    )


def wishart_minor_trial(cfg: TrialConfig) -> ExperimentResult:
    """Empirical (1/n) log det(eps I_k + A^T B^{-1} A) against its closed form.

    A is m x k gaussian, B ~ W_m(n-k, I) drawn independently; requires
    alpha - beta >= 0.1 and 1 - alpha - beta >= 0.1 so B is comfortably
    invertible.  Reports the deviation distribution around the limit.
    """
    alpha = cfg.m / cfg.n
    beta = cfg.k / cfg.n
    if alpha - beta < 0.1 or 1.0 - alpha - beta < 0.1:
        raise ValueError(
            f"need alpha - beta >= 0.1 and 1 - alpha - beta >= 0.1, got {alpha:.2f}, {beta:.2f}"
        )
    start = time.perf_counter()
    limit = wishart_minor_limit(alpha, beta)

    def one_trial(t: int) -> float:
        seed = derive_trial_seed(cfg.master_seed, t)
        for attempt_seed in (seed, seed ^ RESAMPLE_KEY_FLIP):
            # one (m, n) draw: the first k columns form A, the rest build B
            draw = draw_matrix(EnsembleSpec("gaussian", cfg.m, cfg.n, attempt_seed))
            a = draw[:, : cfg.k]
            g = draw[:, cfg.k :]
            bwish = g @ g.T
            lam_min = float(np.linalg.eigvalsh(bwish)[0])
            if lam_min <= 0.0:
                continue
            x = np.linalg.solve(bwish, a)
            gram = a.T @ x
            sign, val = np.linalg.slogdet(cfg.eps * np.eye(cfg.k) + 0.5 * (gram + gram.T))
            return float(val) / cfg.n
        raise NumericalError("singular Wishart draw twice in a row")

    vals = np.asarray([one_trial(t) for t in range(cfg.trials)])
    devs = vals - limit
    return ExperimentResult(
        name="wishart_minor",
        trials=cfg.trials,
        reference=limit,
        bound=None,
        bound_violations=0,
        violation_budget=cfg.failure_budget,
        summary={
            "median_stat": float(np.median(vals)),
            "mean_stat": float(np.mean(vals)),
            "median_dev": float(np.median(devs)),
            "min_dev": float(np.min(devs)),
        },
        per_trial={"stat": tuple(vals.tolist())},
        wall_clock_s=time.perf_counter() - start,
    )


def inverse_wishart_trace_trial(m: int, n: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of E tr(W^{-1}) * (n - m - 1) / m for W ~ W_m(n, I).

    The inverse-Wishart mean makes the exact ratio 1.
    """
    if n < m + 2:
        raise ValueError(f"need n >= m + 2 for a finite mean, got m={m}, n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    partials = []
    for batch in gaussian_batches(trials, (m, n), seed):
        wis = batch @ np.swapaxes(batch, 1, 2)
        lam = np.linalg.eigvalsh(wis)
        partials.append(math.fsum(np.sum(1.0 / lam, axis=1).tolist()))
    mean_trace = math.fsum(partials) / trials
    return mean_trace * (n - m - 1) / m


def loss_uniformity_report(channel: CompoundChannel, cfg: TrialConfig) -> ExperimentResult:
    """Per-state equal-power losses of one drawn sampler and their spread.

    spread = (max - min) / mean over all states (0 when every loss is 0);
    under random sampling the spread should shrink as n grows, which the
    tests check by running two channel sizes.
    """
    start = time.perf_counter()
    n, k = channel.n_subbands, channel.k_active
    if math.comb(n, k) > cfg.state_cap:
        raise ValueError("full state enumeration required; raise state_cap or shrink n")
    idx = enumerate_states(n, k, cfg.state_cap).indices
    spec = EnsembleSpec(cfg.ensemble, cfg.m, n, cfg.master_seed)
    sampler = _draw_full_rank(spec, make_flat_sampler)
    c_sampled, c_eq, _, _ = batched_losses(channel, sampler, idx, tol=None)
    losses = c_eq - c_sampled
    mean = float(np.mean(losses))
    spread = float((np.max(losses) - np.min(losses)) / mean) if mean > 1e-12 else 0.0
    alpha = cfg.m / n
    beta = k / n
    reference = channel.bandwidth * minimax_limit(alpha, beta) if beta <= alpha else 0.0
    return ExperimentResult(
        name="loss_uniformity",
        trials=1,
        reference=reference,
        bound=None,
        bound_violations=0,
        violation_budget=0,
        summary={
            "spread": spread,
            "mean_loss": mean,
            "max_loss": float(np.max(losses)),
            "min_loss": float(np.min(losses)),
        },
        per_trial={"loss": tuple(np.asarray(losses).tolist())},
        wall_clock_s=time.perf_counter() - start,
    )

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
kernel are spread.  No index block of the states is formed.

The dense log-det laws (square concentration, rect log-det,
small-eigenvalue count, Wishart minor) are one table, `LAWS`, run by one
runner, `law_trial`.  A trial is one LAPACK call on a dense matrix, so
the runner works in the calling process and takes no `workers`: OpenBLAS
already threads those calls, and forked workers on top of its thread
pools oversubscribe the cores.  On 2 cores, 200 concentration trials at
k = 100 took 0.11 s in one process and 0.65-0.81 s on two.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
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
    ENSEMBLE_KINDS,
    RESAMPLE_KEY_FLIP,
    EnsembleSpec,
    derive_trial_seed,
    draw_matrices,
    draw_matrix,
    gaussian_batches,
    make_flat_sampler,
)

__all__ = [
    "LAWS",
    "ExperimentResult",
    "Law",
    "TrialConfig",
    "inverse_wishart_trace_trial",
    "landau_achievability_trial",
    "law_trial",
    "loss_uniformity_report",
    "superlandau_achievability_trial",
    "wishart_det_expectation",
    "wishart_minor_limit",
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


def _draw_full_rank(spec: EnsembleSpec, accept, first: np.ndarray | None = None):
    """accept(draw) of spec's matrix, resampling once (flipped key) if it
    fails the rank floor.

    accept may apply the rank floor of `full_rank_gram`, which raises
    SingularityError, as `whiten`, `make_flat_sampler` and the Wishart-minor
    statistic do; so the floor is checked once per accepted draw.  first,
    if given, is spec's own draw, already made.

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


def _check_square(cfg: TrialConfig) -> None:
    if not 0.0 < cfg.eps <= 0.8:
        raise ValueError(f"eps must lie in (0, 0.8], got {cfg.eps}")


def _check_alpha(cfg: TrialConfig) -> None:
    alpha = cfg.m / cfg.n
    if not 0.1 <= alpha <= 0.9:
        raise ValueError(f"alpha must lie in [0.1, 0.9], got {alpha:.3f}")


def _check_small_eig(cfg: TrialConfig) -> None:
    _check_alpha(cfg)
    if cfg.eps <= 0 or cfg.tau <= 0:
        raise ValueError("eps and tau must be positive")


def _check_wishart_minor(cfg: TrialConfig) -> None:
    alpha, beta = cfg.m / cfg.n, cfg.k / cfg.n  # B must be comfortably invertible
    if alpha - beta < 0.1 or 1.0 - alpha - beta < 0.1:
        raise ValueError(
            f"need alpha - beta >= 0.1 and 1 - alpha - beta >= 0.1, got {alpha:.2f}, {beta:.2f}"
        )


def _square_stat(a: np.ndarray, cfg: TrialConfig) -> float:
    """(1/k) log det(eps I + (1/k) A A^T) of a k x k draw."""
    sign, val = np.linalg.slogdet(cfg.eps * np.eye(cfg.k) + (a @ a.T) / cfg.k)
    if sign <= 0:  # eps I + PSD is positive definite; anything else is numerical
        raise NumericalError(f"log-determinant sign {sign} in a concentration trial")
    return float(val) / cfg.k


def _square_criterion(vals: np.ndarray, cfg: TrialConfig) -> dict:
    """The mean must land in the expectation bracket
    [-1 + log(k)/(2k) - 2/(k eps),  -1 + 1.5 log(ek)/k + 2 sqrt(eps) log(1/eps)]
    widened by 3 empirical-std / sqrt(trials)."""
    k, eps = cfg.k, cfg.eps
    mean, std = float(np.mean(vals)), float(np.std(vals))
    slack = 3.0 * std / math.sqrt(cfg.trials)
    lower = -1.0 + math.log(k) / (2.0 * k) - 2.0 / (k * eps)
    upper = -1.0 + 1.5 * math.log(math.e * k) / k + 2.0 * math.sqrt(eps) * math.log(1.0 / eps)
    inside = (lower - slack) <= mean <= (upper + slack)
    return dict(reference=-1.0, bound=upper, bound_violations=0 if inside else 1,
                summary={"mean": mean, "spread": std, "bracket_lower": lower,
                         "bracket_upper": upper, "slack": slack},
                per_trial={"stat": tuple(vals.tolist())})


def _rect_stat(a: np.ndarray, cfg: TrialConfig) -> float:
    """(1/n) log det((1/n) A A^T) of an m x n draw."""
    sign, val = np.linalg.slogdet((a @ a.T) / cfg.n)
    return float(val) / cfg.n if sign > 0 else -np.inf


def _rect_criterion(vals: np.ndarray, cfg: TrialConfig) -> dict:
    """A trial is outside if farther than 1/sqrt(n) from the limit
    (1-alpha) log(1/(1-alpha)) - alpha."""
    limit = rect_logdet_limit(cfg.m / cfg.n)
    devs = np.abs(vals - limit)
    outside = int(np.sum(devs > 1.0 / math.sqrt(cfg.n)))
    return dict(reference=limit, bound=1.0 / math.sqrt(cfg.n), bound_violations=outside,
                summary={"fraction_within": 1.0 - outside / cfg.trials,
                         "median_abs_dev": float(np.median(devs)),
                         "mean_stat": float(np.mean(vals))},
                per_trial={"stat": tuple(vals.tolist()), "abs_dev": tuple(devs.tolist())})


def _small_eig_stat(a: np.ndarray, cfg: TrialConfig) -> float:
    """card{lambda_i < eps}/n over the eigenvalues of (1/n) A A^T."""
    return float(np.sum(np.linalg.eigvalsh((a @ a.T) / cfg.n) < cfg.eps)) / cfg.n


def _small_eig_criterion(fracs: np.ndarray, cfg: TrialConfig) -> dict:
    """A trial violates the counting bound, an event of probability
    >= 1 - 2 exp(-tau n), when it reaches
    alpha eps / (1 - alpha - 1/n) + 4 sqrt(alpha tau) / sqrt(n eps)."""
    alpha = cfg.m / cfg.n
    bound = alpha * cfg.eps / (1.0 - alpha - 1.0 / cfg.n) + 4.0 * math.sqrt(
        alpha * cfg.tau
    ) / math.sqrt(cfg.n * cfg.eps)
    return dict(reference=0.0, bound=bound, bound_violations=int(np.sum(fracs >= bound)),
                summary={"max_fraction": float(np.max(fracs)),
                         "mean_fraction": float(np.mean(fracs))},
                per_trial={"fraction": tuple(fracs.tolist())})


def _wishart_minor_stat(draw: np.ndarray, cfg: TrialConfig) -> float:
    """(1/n) log det(eps I_k + A^T B^{-1} A), where the first k columns of the
    m x n draw form A and the rest G, with B = G G^T ~ W_m(n-k, I).

    Raises:
        SingularityError: if G fails the rank floor of `full_rank_gram`.
    """
    a, g = draw[:, : cfg.k], draw[:, cfg.k :]
    full_rank_gram(g, "Wishart factor")
    gram = a.T @ np.linalg.solve(g @ g.T, a)
    _, val = np.linalg.slogdet(cfg.eps * np.eye(cfg.k) + 0.5 * (gram + gram.T))
    return float(val) / cfg.n


def _wishart_minor_criterion(vals: np.ndarray, cfg: TrialConfig) -> dict:
    """A trial is outside if farther than 1/sqrt(n), the rect law's radius,
    from `wishart_minor_limit`."""
    limit = wishart_minor_limit(cfg.m / cfg.n, cfg.k / cfg.n)
    devs = vals - limit
    outside = int(np.sum(np.abs(devs) > 1.0 / math.sqrt(cfg.n)))
    return dict(reference=limit, bound=1.0 / math.sqrt(cfg.n), bound_violations=outside,
                summary={"median_stat": float(np.median(vals)), "mean_stat": float(np.mean(vals)),
                         "median_dev": float(np.median(devs)), "min_dev": float(np.min(devs))},
                per_trial={"stat": tuple(vals.tolist())})


@dataclass(frozen=True)
class Law:
    """A dense log-det law: result name, draw shape, allowed ensembles,
    preconditions (check raises ValueError), per-draw statistic, and the
    criterion giving the result's reference, bound, violations, summary
    and per_trial."""

    name: str
    shape: Callable[[TrialConfig], tuple[int, int]]
    ensembles: tuple[str, ...]
    check: Callable[[TrialConfig], None]
    stat: Callable[[np.ndarray, TrialConfig], float]
    criterion: Callable[[np.ndarray, TrialConfig], dict]


LAWS = {
    "square": Law("logdet_concentration", lambda cfg: (cfg.k, cfg.k), ENSEMBLE_KINDS,
                  _check_square, _square_stat, _square_criterion),
    "rect": Law("rect_logdet", lambda cfg: (cfg.m, cfg.n), ENSEMBLE_KINDS,
                _check_alpha, _rect_stat, _rect_criterion),
    "small-eig": Law("small_eigenvalue_count", lambda cfg: (cfg.m, cfg.n), ("gaussian",),
                     _check_small_eig, _small_eig_stat, _small_eig_criterion),
    "wishart-minor": Law("wishart_minor", lambda cfg: (cfg.m, cfg.n), ("gaussian",),
                         _check_wishart_minor, _wishart_minor_stat, _wishart_minor_criterion),
}


def law_trial(law: str, cfg: TrialConfig) -> ExperimentResult:
    """Run LAWS[law] on cfg, with the budget cfg.failure_budget.

    Trial t is the statistic of the `draw_matrix` draw on the stream
    derive_trial_seed(master_seed, t), under `_draw_full_rank`'s resample
    rule.  (One `draw_matrices` pass measured slower at these sizes.)
    An unknown law, ensemble or precondition raises ValueError.
    """
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}; use one of {tuple(LAWS)}")
    entry = LAWS[law]
    if cfg.ensemble not in entry.ensembles:
        raise ValueError(f"the {law} law is stated for {', '.join(entry.ensembles)} draws only, "
                         f"got {cfg.ensemble!r}")
    entry.check(cfg)
    start = time.perf_counter()
    rows, cols = entry.shape(cfg)

    def one_trial(t: int) -> float:
        spec = EnsembleSpec(cfg.ensemble, rows, cols, derive_trial_seed(cfg.master_seed, t))
        return _draw_full_rank(spec, lambda mat: entry.stat(mat, cfg))

    stats = np.asarray([one_trial(t) for t in range(cfg.trials)])
    return ExperimentResult(name=entry.name, trials=cfg.trials, violation_budget=cfg.failure_budget,
                            wall_clock_s=time.perf_counter() - start, **entry.criterion(stats, cfg))


def _gram_mean(total: int, shape: tuple[int, int], seed: int, reduce) -> float:
    """Mean of reduce(G G^T), a value per draw, over gaussian_batches(total,
    shape, seed): math.fsum within and over the batches."""
    partials = [
        math.fsum(reduce(batch @ np.swapaxes(batch, 1, 2)).tolist())
        for batch in gaussian_batches(total, shape, seed)
    ]
    return math.fsum(partials) / total


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
    return _gram_mean(trials, (k, k), seed, np.linalg.det) / math.factorial(k)


def inverse_wishart_trace_trial(m: int, n: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of E tr(W^{-1}) * (n - m - 1) / m for W ~ W_m(n, I).

    The inverse-Wishart mean makes the exact ratio 1.
    """
    if n < m + 2:
        raise ValueError(f"need n >= m + 2 for a finite mean, got m={m}, n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mean_trace = _gram_mean(
        trials, (m, n), seed, lambda wis: np.sum(1.0 / np.linalg.eigvalsh(wis), axis=1)
    )
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

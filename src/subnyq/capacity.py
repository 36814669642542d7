"""Capacities and capacity losses, continuous and discrete.

Sampled capacity of a periodic sampler with coefficient function Q on the
fundamental cell [0, W/n]:

    C_s = (1/2) * integral log det(I_m + (P / beta W) Qw_s(f) Hs^2(f) Qw_s(f)^T) df

with Qw = (Q Q^T)^{-1/2} Q the row-whitened coefficient matrix and Hs(f)
the k x k diagonal of active-subband gains at in-cell offset f.  All
integrals are midpoint quadrature on the channel's q-point grid, which is
exact for frequency-flat samplers and flat gains.  Equal power allocation
P/(beta W) per active Hz is the default; water-filling variants carry the
power constraint explicitly through the water level nu.

Every per-state quantity comes from one batched path (`batched_losses`,
and `discrete_losses` for the discrete channel): the sampler is whitened
once per call, the states go through the shared kernel
`numerics.subset_logdet`, and the water levels of a block of states come
from one exact sort-and-threshold pass.  For a census, all C(n, k)
states in colex order, c_sampled of every state comes from one pass along
their `SubsetPlan`; any other block, such as a sparse sample of the
states, gathers each state's Gram, which is faster there.  On both paths
the channel's gains scale each grid point's Gram once, column by column,
and only the states with their own gains (state_gains) are gathered with
weights of their own.  The single-state functions wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, CompoundChannel, snr_summary
from .numerics import (
    NumericalError, colex_indices, colex_plan, subset_block_rows, subset_logdet, whiten
)
from .samplers import SamplerSpec

__all__ = [
    "LOSS_CSV_HEADER",
    "LossReport",
    "batched_losses",
    "capacity_loss",
    "discrete_loss",
    "discrete_losses",
    "equal_power_losses",
    "loss_csv_lines",
    "loss_csv_rows",
    "nyquist_capacity_equal",
    "nyquist_capacity_waterfill",
    "sampled_capacity",
    "waterfill_gap_bound",
    "waterfill_level",
    "worst_case_loss",
]

WATERFILL_DEFAULT_TOL = 1e-11


@dataclass(frozen=True)
class LossReport:
    """Per-state capacities (nats/s) and losses for one sampler.

    loss_eq  = c_nyquist_eq  - c_sampled   (no power control)
    loss_opt = c_nyquist_opt - c_sampled   (optimal power control)
    """

    state: ChannelState
    c_sampled: float
    c_nyquist_eq: float
    c_nyquist_opt: float
    loss_eq: float
    loss_opt: float
    water_level: float

    @classmethod
    def from_capacities(
        cls, state: ChannelState, c_sampled: float, c_eq: float, c_opt: float, nu: float
    ) -> "LossReport":
        """Report whose losses are the Nyquist-rate capacities less c_sampled."""
        return cls(
            state=state,
            c_sampled=c_sampled,
            c_nyquist_eq=c_eq,
            c_nyquist_opt=c_opt,
            loss_eq=c_eq - c_sampled,
            loss_opt=c_opt - c_sampled,
            water_level=nu,
        )


LOSS_CSV_HEADER = "state;c_sampled;c_eq;c_opt;loss_eq;loss_opt;nu"


def loss_csv_rows(reports, bits: bool = False) -> list[str]:
    """Semicolon-delimited CSV lines for LossReports (header first).

    With bits=True a trailing loss_eq_bits column (loss_eq / log 2) is added.
    """
    reports = list(reports)
    return loss_csv_lines(
        [rep.state.indices for rep in reports],
        c_sampled=[rep.c_sampled for rep in reports],
        c_eq=[rep.c_nyquist_eq for rep in reports],
        c_opt=[rep.c_nyquist_opt for rep in reports],
        loss_eq=[rep.loss_eq for rep in reports],
        loss_opt=[rep.loss_opt for rep in reports],
        nu=[rep.water_level for rep in reports],
        bits=bits,
    )


def loss_csv_lines(
    labels, c_sampled, c_eq, c_opt, loss_eq, loss_opt, nu, bits: bool = False
) -> list[str]:
    """The lines of `loss_csv_rows` from columns, one entry per state.

    labels holds each state's 1-based active-subband indices and the other
    columns (sequences or arrays) its values, so a caller holding an index
    block and the batched capacities need not build a LossReport per state.
    Each row is one `%`-format of a template built per label width:
    ``"%d|...|%d"`` for the label, then ``";%.12g"`` per value, which gives
    the bytes of ``"|".join(map(str, label))`` and ``format(float(x), ".12g")``.
    """
    labels = list(labels)  # iterated twice
    columns = (c_sampled, c_eq, c_opt, loss_eq, loss_opt, nu)
    values = [np.asarray(col, dtype=float) for col in columns]
    if bits:
        values.append(values[3] / np.log(2.0))
    cells = ";%.12g" * len(values)
    templates = {w: "|".join(["%d"] * w) + cells for w in set(map(len, labels))}
    rows = zip(*(col.tolist() for col in values))
    return [LOSS_CSV_HEADER + (";loss_eq_bits" if bits else "")] + [
        templates[len(label)] % (*label, *row) for label, row in zip(labels, rows)
    ]


def _check_state(channel: CompoundChannel, state: ChannelState) -> np.ndarray:
    if state.k != channel.k_active:
        raise ValueError(f"state has {state.k} indices, channel expects {channel.k_active}")
    if state.indices[-1] > channel.n_subbands:
        raise ValueError(f"state {state.indices} exceeds n={channel.n_subbands}")
    return state.zero_based()


def _check_index_block(idx, n: int) -> np.ndarray:
    """Validate an (S, k) block of zero-based states: rows increasing within 0..n-1."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[0] == 0 or idx.shape[1] == 0:
        raise ValueError(f"index block must have shape (S, k) with S, k >= 1, got {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"index block must hold integers, got dtype {idx.dtype}")
    if np.any(idx[:, 0] < 0) or np.any(idx[:, -1] >= n) or np.any(np.diff(idx, axis=1) <= 0):
        raise ValueError(f"every row must be a strictly increasing subset of 0..{n - 1}")
    return idx


def _whitened_panels(channel: CompoundChannel, sampler: SamplerSpec) -> np.ndarray:
    if sampler.n != channel.n_subbands:
        raise ValueError(
            f"sampler has {sampler.n} columns, channel has {channel.n_subbands} subbands"
        )
    if sampler.p not in (1, channel.q):
        raise ValueError(
            f"sampler grid ({sampler.p} panels) must be flat or match q={channel.q}"
        )
    return np.stack([whiten(panel) for panel in sampler.panels])  # (p, m, n)


def _equal_power_scale(channel: CompoundChannel) -> float:
    """Transmit power spectral density P/(beta W) under equal allocation."""
    return channel.power / (channel.beta * channel.bandwidth)


def _water_levels(inv_snr: np.ndarray, power: float, df: float, tol: float | None) -> np.ndarray:
    """Exact water level nu of each row: df * sum_i (nu - inv_snr_i)^+ = power.

    Sort each row ascending.  With the c smallest cells under water the level
    is (power/df + their sum) / c, and the cells under water are exactly
    those lying below their own candidate level (Palomar & Fonollosa,
    "Practical algorithms for a family of waterfilling solutions", IEEE TSP
    2005).  tol, unless None, bounds the allocated-power residual relative
    to power; NumericalError beyond it.
    """
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    ordered = np.sort(inv_snr, axis=1)
    levels = (power / df + np.cumsum(ordered, axis=1)) / np.arange(1, ordered.shape[1] + 1)
    wet = np.maximum(np.count_nonzero(ordered < levels, axis=1), 1)
    nu = levels[np.arange(len(levels)), wet - 1]
    if tol is not None:
        allocated = df * np.maximum(nu[:, None] - inv_snr, 0.0).sum(axis=1)
        residual = float(np.max(np.abs(allocated - power)))
        if residual > tol * power:
            raise NumericalError(
                f"water-filling power residual {residual:.3e} exceeds tol={tol} x P"
            )
    return nu


def _nyquist_block(h2: np.ndarray, scale: float, power: float, df: float, tol: float | None):
    """Nyquist-rate (c_eq, c_opt, nu) per row of active-cell squared gains h2."""
    with np.errstate(over="ignore"):  # a gain below about 1e-154: its cell stays dry
        inv_snr = 1.0 / h2
    nu = _water_levels(inv_snr, power, df, tol)
    c_eq = 0.5 * df * np.log1p(scale * h2).sum(axis=1)
    # log+ (x) = log max(x, 1)
    c_opt = 0.5 * df * np.log(np.maximum(nu[:, None] * h2, 1.0)).sum(axis=1)
    return c_eq, c_opt, nu


def _nyquist_at(channel: CompoundChannel, state: ChannelState, tol: float | None):
    idx = _check_state(channel, state)
    h2 = channel.gains_for(state)[idx, :].reshape(1, -1) ** 2
    c_eq, c_opt, nu = _nyquist_block(
        h2, _equal_power_scale(channel), channel.power, channel.grid_df, tol
    )
    return float(c_eq[0]), float(c_opt[0]), float(nu[0])


def _blocked_losses(whitened, idx, gain_grid, state_gains, scale, power, df, tol, plan=None):
    """(c_sampled, c_eq, c_opt, nu) for the states of an (S, k) index block,
    in fixed-size blocks.

    Row s takes its (k, q) gains from state_gains when that map holds its
    1-based index tuple, else from gain_grid.  One `subset_logdet` call with
    the (n, q) column weights gives c_sampled of every state, along plan
    (the `SubsetPlan` of idx) if one is given; only the rows with their own
    gains are gathered again, with their own weights, and patched in.

    Raises:
        NumericalError: if a value is not finite.  That happens for a gain
            above about 1e154, whose square times scale overflows float64,
            and for a state whose active gains all lie below about 1e-154,
            whose inverse squares, and with them its water level and
            c_opt, overflow.
    """
    m, k, q = whitened.shape[1], idx.shape[1], gain_grid.shape[1]
    block = subset_block_rows(m, k, q)
    out = np.empty((4, len(idx)))
    states = idx if plan is None else plan
    out[0] = 0.5 * df * subset_logdet(whitened, states, np.sqrt(scale) * gain_grid)
    for start in range(0, len(idx), block):
        rows = idx[start : start + block]
        gains = gain_grid[rows]  # (S, k, q)
        own = []  # the rows with their own gains
        if state_gains:
            for r, key in enumerate((rows + 1).tolist()):
                grid = state_gains.get(tuple(key))
                if grid is not None:
                    gains[r] = grid[rows[r]]
                    own.append(r)
        h2 = (gains**2).reshape(len(rows), -1)  # subband-major, as gains[idx, :]
        out[1:, start : start + block] = _nyquist_block(h2, scale, power, df, tol)
        if own:
            logdets = subset_logdet(whitened, rows[own], np.sqrt(scale) * gains[own])
            out[0, start : start + block][own] = 0.5 * df * logdets
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            "non-finite capacity or water level: a gain above about 1e154, "
            "or a state whose active gains all lie below about 1e-154"
        )
    return out[0], out[1], out[2], out[3]


def batched_losses(
    channel: CompoundChannel,
    sampler: SamplerSpec,
    idx,
    tol: float | None = WATERFILL_DEFAULT_TOL,
):
    """Capacities of many states under one sampler, as arrays.

    idx is an (S, k) integer block of zero-based active-subband indices, one
    state per row.  Returns (c_sampled, c_eq, c_opt, nu), each of length S:
    the sampled capacity, the Nyquist-rate capacities with equal power and
    with water-filling (nats/s), and the water level.  Per-state gains
    (channel.state_gains) and gridded samplers are honoured.  The sampler is
    whitened once, and states are processed in blocks sized by a fixed
    element budget, so memory stays bounded for any S.

    The channel's gains weigh the columns, so `numerics.subset_logdet`
    scales each grid point's Gram once.  A census, idx equal to
    `numerics.colex_indices(n, k)` as the `capacity` command passes it,
    shares its elimination along one `numerics.colex_plan(n, k)`, built here
    once per call.  Any other block, a sparse sample or the census in
    another order, gathers each state's Gram and factors it on its own.
    The two paths agree to rounding: c_sampled of one state differs
    between them by about 4e-16 relative.

    tol bounds the water-filling power residual relative to P
    (NumericalError beyond it); None skips that check, for callers that use
    equal power only.
    """
    n, k = channel.n_subbands, channel.k_active
    idx = _check_index_block(idx, n)
    if idx.shape[1] != k:
        raise ValueError(f"states have {idx.shape[1]} indices, channel expects {k}")
    whitened = _whitened_panels(channel, sampler)
    census = len(idx) == math.comb(n, k) and np.array_equal(idx, colex_indices(n, k))
    return _blocked_losses(
        whitened, idx, channel.gain_grid, channel.state_gains, _equal_power_scale(channel),
        channel.power, channel.grid_df, tol, plan=colex_plan(n, k) if census else None,
    )


def sampled_capacity(
    channel: CompoundChannel, sampler: SamplerSpec, state: ChannelState
) -> float:
    """Sampled channel capacity at `state` under equal power allocation, nats/s."""
    idx = _check_state(channel, state)
    return float(batched_losses(channel, sampler, idx[None], tol=None)[0][0])


def nyquist_capacity_equal(channel: CompoundChannel, state: ChannelState) -> float:
    """Nyquist-rate capacity with equal power allocation, nats/s."""
    return _nyquist_at(channel, state, None)[0]


def waterfill_level(
    channel: CompoundChannel,
    state: ChannelState,
    tol: float = WATERFILL_DEFAULT_TOL,
) -> float:
    """Water level nu with integral sum (nu - 1/H^2)^+ df = P within tol*P.

    Exact, not iterative: sort the k*q active quadrature cells by 1/H^2.
    With the c cells of smallest 1/H^2 under water the level is
    (P/df + the sum of their 1/H^2) / c, and the cells under water are
    exactly those lying below their own candidate level, so one sort and
    one cumulative sum give nu.  tol is a post-check on the allocated-power
    residual; NumericalError if float64 cannot meet it (e.g. when P/df is
    negligible against 1/H^2).
    """
    return _nyquist_at(channel, state, tol)[2]


def nyquist_capacity_waterfill(
    channel: CompoundChannel,
    state: ChannelState,
    tol: float = WATERFILL_DEFAULT_TOL,
) -> float:
    """Nyquist-rate capacity with optimal power control, nats/s."""
    return _nyquist_at(channel, state, tol)[1]


def waterfill_gap_bound(channel: CompoundChannel) -> float:
    """Upper bound on the power-control gain C_opt - C_eq of every state, nats/s.

    W * beta * (A - 1) / (1 + SNR_min) with A the truncated
    average-to-minimum SNR constant; 0 for flat gains, O(1/SNR_min) at
    high SNR with A fixed.
    """
    summary = snr_summary(channel)
    a_const = summary.snr_avg_max
    return (
        channel.bandwidth
        * channel.beta
        * (a_const - 1.0)
        / (1.0 + summary.snr_min)
    )


def capacity_loss(
    channel: CompoundChannel,
    sampler: SamplerSpec,
    state: ChannelState,
    tol: float = WATERFILL_DEFAULT_TOL,
) -> LossReport:
    """Full per-state loss report for one sampler."""
    idx = _check_state(channel, state)
    values = batched_losses(channel, sampler, idx[None], tol=tol)
    return LossReport.from_capacities(state, *(float(v[0]) for v in values))


def equal_power_losses(
    channel: CompoundChannel, sampler: SamplerSpec, states
) -> np.ndarray:
    """loss_eq for many states at once (one whitening, one batched kernel call)."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    idx = np.stack([_check_state(channel, s) for s in states])  # (S, k)
    c_sampled, c_eq, _, _ = batched_losses(channel, sampler, idx, tol=None)
    return c_eq - c_sampled


def worst_case_loss(
    channel: CompoundChannel, sampler: SamplerSpec, states
) -> dict:
    """Maximum equal-power loss over `states` and the achieving state.

    Ties are broken toward the colexicographically smallest state.
    Returns {"max_loss", "argmax_state", "per_state"}.
    """
    states = list(states)
    losses = equal_power_losses(channel, sampler, states)
    best = 0
    for i in range(1, len(states)):
        if losses[i] > losses[best] or (
            losses[i] == losses[best]
            and states[i].colex_key() < states[best].colex_key()
        ):
            best = i
    return {
        "max_loss": float(losses[best]),
        "argmax_state": states[best],
        "per_state": losses,
    }


def discrete_losses(
    gains_diag: np.ndarray,
    q: np.ndarray,
    idx,
    power: float,
    tol: float | None = WATERFILL_DEFAULT_TOL,
):
    """Discrete-time sparse vector channel, many states at once, nats per use.

    The continuous formulas with W = n and q = 1, so df = 1 and every active
    coordinate gets power P/k: the same batched path as `batched_losses`,
    returning (c_sampled, c_eq, c_opt, nu) for the (S, k) zero-based index
    block idx.
    """
    gains = np.asarray(gains_diag, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains_diag must be a vector")
    if np.min(gains) <= 0:
        raise ValueError("every channel gain must be strictly positive")
    if power <= 0:
        raise ValueError("power must be positive")
    n = gains.size
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != n:
        raise ValueError(f"sensing matrix must be m x {n}, got {q.shape}")
    idx = _check_index_block(idx, n)
    return _blocked_losses(
        whiten(q)[None], idx, gains[:, None], None, power / idx.shape[1], power, 1.0, tol
    )


def discrete_loss(
    gains_diag: np.ndarray,
    q: np.ndarray,
    state: ChannelState,
    power: float,
    tol: float = WATERFILL_DEFAULT_TOL,
) -> LossReport:
    """Capacity loss for the discrete-time sparse vector channel, nats per use.

    Same log-det formulas as the continuous channel with the integral
    replaced by a single matrix evaluation and power P/k per active
    coordinate.
    """
    values = discrete_losses(gains_diag, q, state.zero_based()[None], power, tol=tol)
    return LossReport.from_capacities(state, *(float(v[0]) for v in values))

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
and `discrete_losses` for the discrete channel) in two passes over a
set of states.

* The sampled pass: the sampler's panels, whitened once when it was built
  (`SamplerSpec.whitened`), and the states go through the shared kernel
  `numerics.subset_logdet`, in the form the caller passes: along a
  `SubsetPlan`, or gathered state by state from an index block.
  On both paths the channel's gains scale each grid point's Gram once,
  column by column, and only the states with their own gains
  (state_gains) are gathered with weights of their own.
* The Nyquist pass (c_eq, c_opt and the water level nu), which does not
  depend on the sampler: h^2, 1/h^2 and log1p(scale h^2) are tabled once
  per call on the (n, q) grid, followed by the grids of the states with
  gains of their own.  Each block of states gathers its cells from these
  tables, and a sort, a cumulative sum and row sums give the exact water
  levels and the capacities.  On a flat channel (a constant gain grid
  and no state with gains of its own, as the discrete channel's unit
  gains) every state has the same values, so one state is solved and
  copied to the others.

The four single-state functions `sampled_capacity`, `waterfill_level`,
`capacity_loss` and `discrete_loss` are one-row calls of the same passes.
No command calls them, nor `loss_csv_rows`, the CSV writer of their
`LossReport`s (`output.loss_csv_lines`); they stay only as the benchmark's
reference and traced entry points (bench/).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, CompoundChannel, snr_summary
from .numerics import NumericalError, SubsetPlan, colex_indices, real_matrix, subset_logdet, whiten
from .output import loss_csv_lines
from .samplers import SamplerSpec

__all__ = [
    "LossReport",
    "batched_losses",
    "capacity_loss",
    "discrete_loss",
    "discrete_losses",
    "loss_csv_rows",
    "sampled_capacity",
    "waterfill_gap_bound",
    "waterfill_level",
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


def loss_csv_rows(reports, bits: bool = False) -> list[str]:
    """Semicolon-delimited CSV lines for LossReports of one k (header first).

    With bits=True a trailing loss_eq_bits column (loss_eq / log 2) is added.
    """
    reports = list(reports)
    text = loss_csv_lines(
        [rep.state.indices for rep in reports],
        c_sampled=[rep.c_sampled for rep in reports],
        c_eq=[rep.c_nyquist_eq for rep in reports],
        c_opt=[rep.c_nyquist_opt for rep in reports],
        loss_eq=[rep.loss_eq for rep in reports],
        loss_opt=[rep.loss_opt for rep in reports],
        nu=[rep.water_level for rep in reports],
        bits=bits,
    )
    return text.splitlines()


def _check_state(channel: CompoundChannel, state: ChannelState) -> np.ndarray:
    if state.k != channel.k_active:
        raise ValueError(f"state has {state.k} indices, channel expects {channel.k_active}")
    if state.indices[-1] > channel.n_subbands:
        raise ValueError(f"state {state.indices} exceeds n={channel.n_subbands}")
    return state.zero_based()


def _check_index_block(idx, n: int) -> np.ndarray:
    """Validate an (S, k) block of zero-based states, rows increasing within
    0..n-1, and return it as native integers (``np.intp``)."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[0] == 0 or idx.shape[1] == 0:
        raise ValueError(f"index block must have shape (S, k) with S, k >= 1, got {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"index block must hold integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
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
    return sampler.whitened  # (p, m, n)


def _equal_power_scale(channel: CompoundChannel) -> float:
    """Transmit power spectral density P/(beta W) under equal allocation."""
    return channel.power / (channel.beta * channel.bandwidth)


# Cells (states x k q) per block of the Nyquist pass: each of its float
# temporaries then takes about 128 KiB.
_NYQUIST_BLOCK_CELLS = 1 << 14


def _own_gains(idx, gain_grid, state_gains):
    """The rows of the (S, k) index block idx whose 1-based index tuple
    state_gains holds, ascending (a repeated state once per row), and their
    (k, q) active gains.

    Keys and rows are compared as whole rows of bytes: one sort of the keys
    and one binary search per row, so the cost grows with S log K, never
    with S times K, and no Python step is taken per state.
    """
    k, q = idx.shape[1], gain_grid.shape[1]
    if not state_gains:
        return np.empty(0, dtype=np.intp), np.empty((0, k, q))
    keys = np.array(list(state_gains), dtype=np.intp) - 1  # (K, k), zero-based
    as_row = np.dtype((np.void, k * keys.itemsize))  # a row of k integers as one item
    key_rows = keys.view(as_row).ravel()
    block_rows = np.ascontiguousarray(idx, dtype=np.intp).view(as_row).ravel()
    order = np.argsort(key_rows)
    at = np.searchsorted(key_rows, block_rows, sorter=order)
    nearest = order[np.minimum(at, len(keys) - 1)]
    own = np.flatnonzero(key_rows[nearest] == block_rows)
    grids = np.stack(list(state_gains.values()))  # (K, n, q)
    return own, grids[nearest[own, None], idx[own]]


def _nyquist_pass(idx, gain_grid, own, own_gains, scale, power, df, tol, out) -> None:
    """Nyquist-rate c_eq, c_opt and water level nu of every row of the (S, k)
    index block idx, written to out[0], out[1] and out[2].

    The per-cell values h^2, 1/h^2 and log1p(scale h^2) are tabled once per
    call on the (n, q) grid, followed by the (k, q) gains of the rows `own`,
    which have gains of their own (`_own_gains`): such a row reads its cells
    from the tail of the tables.  Each block of rows gathers its k q cells
    per row, subband-major, with one flat cell index.  The water level of a
    row is exact: sort its 1/h^2 ascending; with the c smallest cells under
    water the level is (power/df + their sum) / c, and the cells under
    water are exactly those lying below their own candidate level (Palomar
    & Fonollosa, "Practical algorithms for a family of waterfilling
    solutions", IEEE TSP 2005).  tol, unless None, bounds the
    allocated-power residual relative to power; NumericalError beyond it.
    Every row's values depend on that row only, never on S or the block
    split.

    On a flat channel, a constant gain grid and no row with gains of its
    own (the discrete channel's unit gains), every row gathers the same
    cells and so has the same values: the first row is solved, residual
    check included, and copied to the others.  The caller's non-finite
    check sees the copies.
    """
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    if len(idx) > 1 and not len(own) and np.all(gain_grid == gain_grid.flat[0]):
        _nyquist_pass(idx[:1], gain_grid, own, own_gains, scale, power, df, tol, out[:, :1])
        out[:, 1:] = out[:, :1]
        return
    (n, q), k = gain_grid.shape, idx.shape[1]
    cells = k * q
    if len(own):  # row own[j] reads the grid's rows n + j k .. n + j k + k - 1
        gain_grid = np.concatenate([gain_grid, own_gains.reshape(-1, q)])
        idx = idx.copy()
        idx[own] = n + np.arange(len(own) * k).reshape(-1, k)
    # Beyond about 1e+-154 a square or an inverse square overflows; the
    # value of every state that uses such a cell is then not finite, which
    # the caller reports, and a cell no state uses changes nothing.
    with np.errstate(over="ignore"):
        h2 = (gain_grid**2).ravel()
        inv = 1.0 / h2
        log_eq = np.log1p(scale * h2)
    rows_per_block = max(1, _NYQUIST_BLOCK_CELLS // cells)
    subbands = np.arange(q)
    counts = np.arange(1, cells + 1, dtype=float)
    for start in range(0, len(idx), rows_per_block):
        rows = idx[start : start + rows_per_block]
        s = len(rows)
        cell = (rows[:, :, None] * q + subbands).reshape(s, cells)
        h, inv_h = h2.take(cell, mode="clip"), inv.take(cell, mode="clip")
        ordered = np.sort(inv_h, axis=1)
        levels = (np.cumsum(ordered, axis=1) + power / df) / counts
        wet = np.maximum(np.count_nonzero(ordered < levels, axis=1), 1)
        nu = levels.take(wet + np.arange(s) * cells - 1, mode="clip")
        if tol is not None:
            residual = np.maximum(nu[:, None] - inv_h, 0.0).sum(axis=1) * df - power
            worst = float(np.max(np.abs(residual)))
            if worst > tol * power:
                raise NumericalError(
                    f"water-filling power residual {worst:.3e} exceeds tol={tol} x P"
                )
        block = out[:, start : start + s]
        block[0] = 0.5 * df * log_eq.take(cell, mode="clip").sum(axis=1)
        block[1] = 0.5 * df * np.log(np.maximum(h * nu[:, None], 1.0)).sum(axis=1)  # log+
        block[2] = nu


def _blocked_losses(whitened, states, gain_grid, state_gains, scale, power, df, tol):
    """(c_sampled, c_eq, c_opt, nu) for the states of a checked (S, k) index
    block, or of a `SubsetPlan`, in colex order.

    Row s takes its (k, q) gains from state_gains when that map holds its
    1-based index tuple, else from gain_grid.  One `subset_logdet` call with
    the (n, q) column weights gives c_sampled of every state, along the
    plan if one is given; only the rows with their own gains are gathered
    again, with their own weights, and patched in.  The Nyquist side is one
    `_nyquist_pass` over the index block and does not depend on the sampler.

    Raises:
        NumericalError: if a value is not finite.  That happens for a gain
            above about 1e154, whose square times scale overflows float64,
            and for a state whose active gains all lie below about 1e-154,
            whose inverse squares, and with them its water level and
            c_opt, overflow.
    """
    idx = states
    if isinstance(states, SubsetPlan):
        idx = colex_indices(states.n, states.k)[states.lo : states.hi]
    own, own_gains = _own_gains(idx, gain_grid, state_gains)
    out = np.empty((4, len(idx)))
    out[0] = 0.5 * df * subset_logdet(whitened, states, np.sqrt(scale) * gain_grid)
    if len(own):
        out[0, own] = 0.5 * df * subset_logdet(whitened, idx[own], np.sqrt(scale) * own_gains)
    _nyquist_pass(idx, gain_grid, own, own_gains, scale, power, df, tol, out[1:])
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            "non-finite capacity or water level: a gain above about 1e154, "
            "or a state whose active gains all lie below about 1e-154"
        )
    return out[0], out[1], out[2], out[3]


def batched_losses(
    channel: CompoundChannel,
    sampler: SamplerSpec,
    states,
    tol: float | None = WATERFILL_DEFAULT_TOL,
):
    """Capacities of many states under one sampler, as arrays.

    states is an (S, k) integer block of zero-based active-subband indices,
    one state per row, or `numerics.colex_plan(n, k, lo, hi)`, the states
    of colex ranks lo .. hi - 1: the two forms of `numerics.subset_logdet`.
    Returns (c_sampled, c_eq, c_opt, nu), each of length S: the sampled
    capacity, the Nyquist-rate capacities with equal power and with
    water-filling (nats/s), and the water level.  Per-state gains
    (channel.state_gains) and gridded samplers are honoured.  The sampler
    comes whitened (`SamplerSpec.whitened`), and states are processed in
    blocks sized by a fixed element budget, so memory stays bounded for any S.

    The channel's gains weigh the columns, so `numerics.subset_logdet`
    scales each grid point's Gram once.  A plan, as the `capacity` command
    passes a census, shares the elimination of common top columns; a block,
    such as a sparse sample, gathers each state's Gram and factors it on
    its own.  The two agree to rounding: c_sampled of one state differs
    between them by about 4e-16 relative.

    tol bounds the water-filling power residual relative to P
    (NumericalError beyond it); None skips that check, for callers that use
    equal power only.
    """
    n, k = channel.n_subbands, channel.k_active
    if isinstance(states, SubsetPlan):
        if (states.n, states.k) != (n, k):
            raise ValueError(f"the plan holds states of C({states.n},{states.k}), not C({n},{k})")
    else:
        states = _check_index_block(states, n)
        if states.shape[1] != k:
            raise ValueError(f"states have {states.shape[1]} indices, channel expects {k}")
    return _blocked_losses(
        _whitened_panels(channel, sampler), states, channel.gain_grid, channel.state_gains,
        _equal_power_scale(channel), channel.power, channel.grid_df, tol,
    )


def sampled_capacity(
    channel: CompoundChannel, sampler: SamplerSpec, state: ChannelState
) -> float:
    """Sampled channel capacity at `state` under equal power allocation, nats/s."""
    idx = _check_state(channel, state)
    return float(batched_losses(channel, sampler, idx[None], tol=None)[0][0])


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
    idx = _check_state(channel, state)[None]
    out = np.empty((3, 1))
    _nyquist_pass(
        idx, channel.gain_grid, *_own_gains(idx, channel.gain_grid, channel.state_gains),
        _equal_power_scale(channel), channel.power, channel.grid_df, tol, out,
    )
    return float(out[2, 0])


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
    q = real_matrix(q, "sensing matrix")
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

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
and `discrete_losses` for the discrete channel) in two passes over an
(S, k) index block of states.

* The sampled pass: the sampler is whitened once per call and the states
  go through the shared kernel `numerics.subset_logdet`.  For a census,
  all C(n, k) states in colex order, c_sampled of every state comes from
  one pass along their `SubsetPlan`; any other block, such as a sparse
  sample of the states, gathers each state's Gram, which is faster there.
  On both paths the channel's gains scale each grid point's Gram once,
  column by column, and only the states with their own gains
  (state_gains) are gathered with weights of their own.
* The Nyquist pass (c_eq, c_opt and the water level nu), which does not
  depend on the sampler: h^2, 1/h^2 and log1p(scale h^2) are tabled once
  per call on the (n, q) grid, and on the grids of the states with gains
  of their own.  Blocks of states gather their cells from these tables
  into buffers allocated once per call, where an in-place sort, a
  cumulative sum and row sums give the exact water levels and the
  capacities.  On a flat channel (a constant gain grid and no state with
  gains of its own, as the discrete channel's unit gains) every state
  has the same values, so one state is solved and copied to the others.

The four single-state functions `sampled_capacity`, `waterfill_level`,
`capacity_loss` and `discrete_loss` are one-row calls of the same passes.
No command calls them, nor `loss_csv_rows`, the CSV writer of their
`LossReport`s (`output.loss_csv_lines`); they stay only as the benchmark's
reference and traced entry points (bench/).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, CompoundChannel, snr_summary
from .numerics import NumericalError, colex_indices, colex_plan, real_matrix, subset_logdet, whiten
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
    return np.stack([whiten(panel) for panel in sampler.panels])  # (p, m, n)


def _equal_power_scale(channel: CompoundChannel) -> float:
    """Transmit power spectral density P/(beta W) under equal allocation."""
    return channel.power / (channel.beta * channel.bandwidth)


# Cells (states x k q) per block of the Nyquist pass: each of its float
# buffers then takes about 128 KiB.
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
    call on the (n, q) grid, and on the (k, q) gains of the rows `own`, which
    have gains of their own (`_own_gains`).  Each block of rows gathers its
    k q cells per row, subband-major, with one flat cell index, into buffers
    allocated once per call.  The water level of a row is exact: sort its
    1/h^2 ascending; with the c smallest cells under water the level is
    (power/df + their sum) / c, and the cells under water are exactly those
    lying below their own candidate level (Palomar & Fonollosa, "Practical
    algorithms for a family of waterfilling solutions", IEEE TSP 2005).
    tol, unless None, bounds the allocated-power residual relative to
    power; NumericalError beyond it.  Every row's values depend on that row
    only, never on S or the block split.

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
    k, q = idx.shape[1], gain_grid.shape[1]
    cells = k * q
    # Beyond about 1e+-154 a square or an inverse square overflows; the
    # value of every state that uses such a cell is then not finite, which
    # the caller reports, and a cell no state uses changes nothing.
    with np.errstate(over="ignore"):
        h2 = gain_grid**2
        inv = 1.0 / h2
        log_eq = np.log1p(scale * h2)
        own_h2 = (own_gains**2).reshape(len(own), cells)
        own_inv = 1.0 / own_h2
        own_log_eq = np.log1p(scale * own_h2)
    h2, inv, log_eq = h2.ravel(), inv.ravel(), log_eq.ravel()
    rows_per_block = min(len(idx), max(1, _NYQUIST_BLOCK_CELLS // cells))
    cell = np.empty((rows_per_block, k, q), dtype=np.intp)
    gathered, ordered, levels, work = np.empty((4, rows_per_block, cells))
    under = np.empty((rows_per_block, cells), dtype=bool)
    wet = np.empty(rows_per_block, dtype=np.intp)
    residual = np.empty(rows_per_block)
    subbands = np.arange(q, dtype=np.intp)
    counts = np.arange(1, cells + 1, dtype=float)
    row_ends = np.arange(rows_per_block, dtype=np.intp) * cells - 1
    half_df = 0.5 * df
    for start in range(0, len(idx), rows_per_block):
        rows = idx[start : start + rows_per_block]
        s, stop = len(rows), start + len(rows)
        flat = cell[:s].reshape(s, cells)
        np.multiply(rows[:, :, None], q, out=cell[:s])
        cell[:s] += subbands
        h, o, lv, w, u = gathered[:s], ordered[:s], levels[:s], work[:s], under[:s]
        np.take(h2, flat, out=h, mode="clip")
        np.take(inv, flat, out=o, mode="clip")
        np.take(log_eq, flat, out=w, mode="clip")
        if len(own):
            lo, hi = np.searchsorted(own, (start, stop))
            mine = own[lo:hi] - start
            h[mine], o[mine], w[mine] = own_h2[lo:hi], own_inv[lo:hi], own_log_eq[lo:hi]
        c_eq, c_opt, nu = out[0, start:stop], out[1, start:stop], out[2, start:stop]
        w.sum(axis=1, out=c_eq)
        c_eq *= half_df
        if tol is not None:
            np.negative(o, out=w)  # -1/h^2, unsorted, for the residual below
        o.sort(axis=1)
        np.cumsum(o, axis=1, out=lv)
        lv += power / df
        lv /= counts
        np.less(o, lv, out=u)
        np.sum(u, axis=1, out=wet[:s])
        np.maximum(wet[:s], 1, out=wet[:s])
        wet[:s] += row_ends[:s]
        np.take(lv, wet[:s], out=nu, mode="clip")
        if tol is not None:
            w += nu[:, None]
            np.maximum(w, 0.0, out=w)
            w.sum(axis=1, out=residual[:s])
            residual[:s] *= df
            residual[:s] -= power
            worst = float(np.max(np.abs(residual[:s], out=residual[:s])))
            if worst > tol * power:
                raise NumericalError(
                    f"water-filling power residual {worst:.3e} exceeds tol={tol} x P"
                )
        np.multiply(h, nu[:, None], out=w)
        np.maximum(w, 1.0, out=w)  # log+ (x) = log max(x, 1)
        np.log(w, out=w)
        w.sum(axis=1, out=c_opt)
        c_opt *= half_df


def _blocked_losses(whitened, idx, gain_grid, state_gains, scale, power, df, tol, plan=None):
    """(c_sampled, c_eq, c_opt, nu) for the states of an (S, k) index block.

    Row s takes its (k, q) gains from state_gains when that map holds its
    1-based index tuple, else from gain_grid.  One `subset_logdet` call with
    the (n, q) column weights gives c_sampled of every state, along plan
    (the `SubsetPlan` of idx) if one is given; only the rows with their own
    gains are gathered again, with their own weights, and patched in.  The
    Nyquist side is one `_nyquist_pass` and does not depend on the sampler.

    Raises:
        NumericalError: if a value is not finite.  That happens for a gain
            above about 1e154, whose square times scale overflows float64,
            and for a state whose active gains all lie below about 1e-154,
            whose inverse squares, and with them its water level and
            c_opt, overflow.
    """
    own, own_gains = _own_gains(idx, gain_grid, state_gains)
    out = np.empty((4, len(idx)))
    states = idx if plan is None else plan
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

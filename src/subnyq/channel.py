"""Compound multiband channel model.

A channel of total bandwidth W is split into n equal subbands of width
W/n, of which an unknown subset of k is active per transmission block.
Gain magnitudes are tabulated on a uniform q-point midpoint grid across
each subband, which is all the capacity integrals need.  Noise is fixed
at unit power spectral density (a whitening front end absorbs anything
else), so squared gains are directly SNR densities up to the P/(beta W)
power normalization.

A set of states is a bare index block: a read-only (S, k) ``np.intp``
array of zero-based subband indices, one state per row, in
colexicographic order (`enumerate_states`).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .numerics import NumericalError, colex_indices
from .samplers import PhiloxStream, philox_generator

__all__ = [
    "ChannelState",
    "CompoundChannel",
    "SnrSummary",
    "enumerate_states",
    "load_channel",
    "snr_summary",
]

NOISE_PSD = 1.0

# Fixed key for the dedicated state-sampling stream (Floyd's algorithm);
# partial enumerations must not depend on any user-facing seed.
_STATE_SAMPLING_KEY = 0x5EB4_51D0


@dataclass(frozen=True, order=True)
class ChannelState:
    """A sorted k-subset of subband indices (1-based)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("a state needs at least one active subband")
        if any(i < 1 for i in idx):
            raise ValueError(f"subband indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int) - 1

def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{shape_hint} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CompoundChannel:
    """Compound multiband Gaussian channel.

    Attributes:
        bandwidth: total bandwidth W in Hz.
        n_subbands: number n of equal-width subbands (>= 2).
        k_active: number k of simultaneously active subbands, 1 <= k < n.
        power: transmit power constraint P in watts.
        gain_grid: (n, q) array of gain magnitudes |H|, one row per subband,
            sampled at q midpoints across the subband; strictly positive.
        state_gains: optional map from state index tuples to (n, q) grids for
            channels whose gain profile depends on the realized state.
    """

    bandwidth: float
    n_subbands: int
    k_active: int
    power: float
    gain_grid: np.ndarray
    state_gains: Mapping[tuple[int, ...], np.ndarray] | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth <= sys.float_info.max:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if int(self.n_subbands) != self.n_subbands or self.n_subbands < 2:
            raise ValueError(f"n_subbands must be an integer >= 2, got {self.n_subbands}")
        n = int(self.n_subbands)
        k = int(self.k_active)
        if k != self.k_active or not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={self.k_active}, n={n}")
        if not 0 < self.power <= sys.float_info.max:
            raise ValueError(f"power must be positive and finite, got {self.power}")
        grid = _frozen_array(self.gain_grid, "gain grid")
        if grid.ndim != 2 or grid.shape[0] != n or grid.shape[1] < 1:
            raise ValueError(f"gain grid must have shape (n, q) with q >= 1, got {grid.shape}")
        if np.min(grid) <= 0:
            raise ValueError("every gain value must be strictly positive")
        object.__setattr__(self, "n_subbands", n)
        object.__setattr__(self, "k_active", k)
        object.__setattr__(self, "gain_grid", grid)
        if self.state_gains is not None:
            frozen: dict[tuple[int, ...], np.ndarray] = {}
            for key, value in self.state_gains.items():
                state = ChannelState(tuple(key))
                if state.k != k or state.indices[-1] > n:
                    raise ValueError(f"state {key} incompatible with (n={n}, k={k})")
                arr = _frozen_array(value, f"gain grid for state {key}")
                if arr.shape != grid.shape:
                    raise ValueError(
                        f"per-state grid for {key} has shape {arr.shape}, expected {grid.shape}"
                    )
                if np.min(arr) <= 0:
                    raise ValueError(f"per-state grid for {key} has nonpositive gains")
                frozen[state.indices] = arr
            object.__setattr__(self, "state_gains", frozen)

    @property
    def beta(self) -> float:
        """Sparsity ratio k/n."""
        return self.k_active / self.n_subbands

    @property
    def q(self) -> int:
        """Grid points per subband."""
        return self.gain_grid.shape[1]

    @property
    def grid_df(self) -> float:
        """Width of one quadrature cell, (W/n)/q."""
        return self.bandwidth / (self.n_subbands * self.q)

    def _all_grids(self) -> list[np.ndarray]:
        grids = [self.gain_grid]
        if self.state_gains is not None:
            grids.extend(self.state_gains.values())
        return grids

    def to_dict(self) -> dict:
        doc = {
            "W": self.bandwidth,
            "n": self.n_subbands,
            "k": self.k_active,
            "P": self.power,
            "q": self.q,
            "gains": self.gain_grid.tolist(),
        }
        if self.state_gains:
            doc["state_gains"] = {
                ",".join(map(str, key)): grid.tolist()
                for key, grid in sorted(self.state_gains.items())
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "CompoundChannel":
        if not isinstance(doc, Mapping):
            raise ValueError("channel document must be a JSON object")
        required = {"W", "n", "k", "P", "gains"}
        missing = required - set(doc)
        if missing:
            raise ValueError(f"channel document missing keys: {sorted(missing)}")
        for key in sorted({"W", "n", "k", "P", "q"} & set(doc)):
            value = doc[key]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"channel key {key!r} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, infinite or beyond a float
                raise ValueError(f"channel key {key!r} must be finite, got {value!r}")
            if key in {"n", "k", "q"} and value != int(value):
                raise ValueError(f"channel key {key!r} must be an integer, got {value!r}")
        gains = np.array(doc["gains"], dtype=float)
        if "q" in doc and gains.ndim == 2 and gains.shape[1] != int(doc["q"]):
            raise ValueError(
                f"declared q={doc['q']} does not match gains shape {gains.shape}"
            )
        state_gains = None
        if doc.get("state_gains"):
            if not isinstance(doc["state_gains"], Mapping):
                raise ValueError(
                    f"channel key 'state_gains' must be an object, got {doc['state_gains']!r}"
                )
            state_gains = {
                tuple(int(t) for t in key.split(",")): np.array(val, dtype=float)
                for key, val in doc["state_gains"].items()
            }
        return cls(
            bandwidth=float(doc["W"]),
            n_subbands=int(doc["n"]),
            k_active=int(doc["k"]),
            power=float(doc["P"]),
            gain_grid=gains,
            state_gains=state_gains,
        )


def load_channel(path: str | Path) -> CompoundChannel:
    """Load a channel description from a JSON document ({W, n, k, P, q, gains})."""
    with open(path, "r", encoding="utf-8") as handle:
        return CompoundChannel.from_dict(json.load(handle))


@dataclass(frozen=True)
class SnrSummary:
    """SNR extremes of a channel.

    snr_avg_max is the truncated average-to-minimum constant
    min{ max_s integral |H|^2 df / (beta W min|H|^2),  max|H|^2 / min|H|^2 },
    the constant entering the water-filling gap bound; it equals 1 for a
    flat gain profile.
    """

    snr_min: float
    snr_max: float
    snr_avg_max: float

    def __post_init__(self) -> None:
        if not 0 < self.snr_min <= self.snr_max:
            raise ValueError(
                f"need 0 < snr_min <= snr_max, got {self.snr_min}, {self.snr_max}"
            )


def snr_summary(channel: CompoundChannel) -> SnrSummary:
    """SNR extremes over the whole band and all supplied gain profiles."""
    grids = channel._all_grids()
    gmin = min(float(np.min(g)) for g in grids)
    gmax = max(float(np.max(g)) for g in grids)
    if gmin <= 0:
        raise ValueError("zero gain encountered; SNR summary undefined")
    scale = channel.power / (channel.beta * channel.bandwidth)
    snr_min = scale * gmin**2
    snr_max = scale * gmax**2
    # integral of |H|^2 over the full band, maximized over gain profiles
    int_max = max(float(np.sum(g**2)) * channel.grid_df for g in grids)
    form_avg = int_max / (channel.beta * channel.bandwidth * gmin**2)
    form_ratio = gmax**2 / gmin**2
    return SnrSummary(
        snr_min=snr_min,
        snr_max=snr_max,
        snr_avg_max=min(form_avg, form_ratio),
    )


def _colex_unique(block: np.ndarray, n: int) -> np.ndarray:
    """Row numbers of the distinct rows of an (S, k) block of increasing
    subsets of 1..n: the first occurrence of each, in the colexicographic
    order of the rows.

    Each row is packed into as few int64 words as hold it: b = bit_length(n)
    bits per index, floor(63 / b) indices per word, later indices in higher
    bits and in later words.  One stable `lexsort` over the words, the last
    word the primary key, then orders the rows exactly as a `lexsort` over
    their k columns would, and equal rows are equal words.
    """
    bits = n.bit_length()
    per_word = 63 // bits  # the sign bit stays clear, so words compare as unsigned
    shifts = np.arange(block.shape[1]) % per_word * bits
    words = np.add.reduceat(block << shifts, np.arange(0, block.shape[1], per_word), axis=1)
    order = np.lexsort(words.T)
    keys = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)  # equal rows are adjacent now
    return order[first]


def _floyd_samples(n: int, k: int, count: int, gen: PhiloxStream) -> np.ndarray:
    """count uniformly random k-subsets of {1..n}, one ascending row each.

    Floyd's algorithm (Bentley & Floyd, CACM 1987), run on all rows at
    once: row r takes t uniform on 1..j for j = n-k+1, ..., n and keeps t,
    or j when t is already taken.  The t come from one array draw, which
    yields the same numbers, in the same order, as drawing them one at a
    time, row by row.  Each row's picks so far are a bit mask of
    ceil((n+1)/64) uint64 words, bit v of the mask for index v, so every
    membership test is one gather and one AND, whatever n and the step.
    """
    highs = np.arange(n - k + 2, n + 2)  # exclusive upper bounds j + 1
    draws = gen.integers(1, np.tile(highs, count)).reshape(count, k)
    picks = np.ascontiguousarray(draws.T).view(np.uint64)  # one row per step
    words = n // 64 + 1  # ceil((n + 1) / 64): bits 0..n
    masks = np.zeros(count * words, dtype=np.uint64)
    row_words = np.arange(count, dtype=np.uint64) * np.uint64(words)
    for t, j in zip(picks, range(n - k + 1, n + 1)):
        taken = masks[row_words + (t >> 6)] & (1 << (t & 63)) != 0
        t[taken] = j
        masks[row_words + (t >> 6)] |= 1 << (t & 63)  # each row once: no update is lost
    return np.sort(picks.T.view(np.intp), axis=1)


def enumerate_states(n: int, k: int, cap: int) -> np.ndarray:
    """All states of a (n, k) compound channel, or a deterministic sample,
    as a read-only (S, k) ``np.intp`` block of zero-based subband indices,
    one state per row, in colexicographic order.

    If C(n, k) <= cap, returns every state: a census.  Otherwise returns the
    first `cap` distinct rows of Floyd's algorithm (`_floyd_samples`) on a
    dedicated fixed-seed stream (independent of any user seed): a sample,
    which a caller tells from a census by C(n, k) > cap.  The first round
    draws exactly cap rows; each later round draws the missing count times
    a factor that doubles every round, so that a cap close to C(n, k) takes
    a few rounds, not one per missing state, and keeps only the earliest
    new rows in stream order.  Rows are sorted and deduplicated as packed
    words (`_colex_unique`), so that no row is ranked and any n works.
    """
    if int(n) != n or int(k) != k or not 1 <= k < n:
        raise ValueError(f"need integers 1 <= k < n, got k={k}, n={n}")
    if int(cap) != cap or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    n, k, cap = int(n), int(k), int(cap)
    if math.comb(n, k) <= cap:
        return colex_indices(n, k)
    gen = philox_generator(_STATE_SAMPLING_KEY)
    picked = np.empty((0, k), dtype=np.intp)
    growth, attempts = 1, 0
    while len(picked) < cap:
        need = cap - len(picked)
        batch = growth * need  # round r draws 2^(r-1) times the missing count
        rows = np.concatenate([picked, _floyd_samples(n, k, batch, gen)])
        first = _colex_unique(rows, n)  # every picked row is the first of its run
        new = first[first >= len(picked)]
        if len(new) > need:  # the earliest need new rows; picked rows precede them all
            first = first[first <= np.partition(new, need - 1)[need - 1]]
        picked = rows[first]
        attempts += batch
        growth *= 2
        if attempts > 100 * cap:  # pragma: no cover - about cap ln C(n, k) draws suffice
            raise NumericalError("state sampling failed to collect distinct subsets")
    picked -= 1
    picked.flags.writeable = False
    return picked

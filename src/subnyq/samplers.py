"""Seeded random ensembles for sampling/sensing coefficient matrices.

Reproducibility contract: every matrix is a pure function of
(kind, rows, cols, seed).  Bits come from numpy's Philox counter-based
generator (version-pinned constants), uniforms from an explicit
uint64 -> (0, 1) mapping, and gaussians from the inverse normal CDF
(scipy.special.ndtri), so equal seeds give byte-identical matrices on
any platform.  Independent Monte Carlo streams are derived by XORing
the master seed with the trial index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .numerics import full_rank_gram

__all__ = [
    "ENSEMBLE_KINDS",
    "EnsembleSpec",
    "SamplerSpec",
    "derive_trial_seed",
    "draw_matrix",
    "gaussian_batches",
    "make_flat_sampler",
    "make_gridded_sampler",
    "moment_report",
    "philox_generator",
]

# Bounded ensembles and their single-entry magnitude bound D; the gaussian
# ensemble instead satisfies a log-Sobolev inequality with constant 1.
ENSEMBLE_BOUNDS = {"rademacher": 1.0, "uniform_sym": math.sqrt(3.0)}
GAUSSIAN_LSI_CONSTANT = 1.0
ENSEMBLE_KINDS = ("gaussian", "rademacher", "uniform_sym")

_SEED_MASK = (1 << 64) - 1
# XORed into a trial stream key when a degenerate draw must be repeated.
RESAMPLE_KEY_FLIP = 0x9E37_79B9_7F4A_7C15
# float64 entries per batch of `gaussian_batches`, fixed for determinism
_DRAW_CHUNK = 20_000


@dataclass(frozen=True)
class EnsembleSpec:
    """A named random matrix ensemble: i.i.d. zero-mean unit-variance entries."""

    kind: str
    rows: int
    cols: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; use one of {ENSEMBLE_KINDS}")
        if not 1 <= self.rows <= self.cols:
            raise ValueError(f"need 1 <= rows <= cols, got {self.rows} x {self.cols}")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ValueError("seed must fit in 64 unsigned bits")

    def with_seed(self, seed: int) -> "EnsembleSpec":
        return EnsembleSpec(self.kind, self.rows, self.cols, seed & _SEED_MASK)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "m": self.rows, "n": self.cols, "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "EnsembleSpec":
        return cls(kind=doc["kind"], rows=int(doc["m"]), cols=int(doc["n"]), seed=int(doc["seed"]))

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "EnsembleSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial stream key: master seed XOR trial index (64-bit)."""
    return (int(master_seed) ^ int(trial_index)) & _SEED_MASK


def philox_generator(seed: int) -> np.random.Generator:
    """The pinned Philox stream keyed by the low 64 bits of `seed`."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def _raw_uint64(gen: np.random.Generator, shape) -> np.ndarray:
    return gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def _uniform_open(gen: np.random.Generator, shape) -> np.ndarray:
    # 53 significant bits, offset by half an ulp so 0 and 1 are excluded
    raw = _raw_uint64(gen, shape)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _gaussian(gen: np.random.Generator, shape) -> np.ndarray:
    return ndtri(_uniform_open(gen, shape))


def draw_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Draw the (rows x cols) matrix determined by `spec`.

    gaussian: inverse-CDF transform of open-interval uniforms.
    rademacher: +-1 from the low bit of the raw stream.
    uniform_sym: uniform on [-sqrt(3), sqrt(3)] (unit variance).
    """
    gen = philox_generator(spec.seed)
    shape = (spec.rows, spec.cols)
    if spec.kind == "gaussian":
        return _gaussian(gen, shape)
    if spec.kind == "rademacher":
        bits = _raw_uint64(gen, shape) & np.uint64(1)
        return np.where(bits == 1, 1.0, -1.0)
    # uniform_sym
    return (2.0 * _uniform_open(gen, shape) - 1.0) * math.sqrt(3.0)


def gaussian_batches(total: int, shape_per_draw: tuple[int, ...], seed: int):
    """Yield `total` gaussian draws of shape_per_draw from the stream `seed`,
    as batches (c, *shape_per_draw) of a fixed size, so the values depend
    on the arguments only."""
    per_draw = int(np.prod(shape_per_draw))
    chunk = max(1, _DRAW_CHUNK // max(per_draw, 1))
    gen = philox_generator(seed)
    done = 0
    while done < total:
        c = min(chunk, total - done)
        yield _gaussian(gen, (c, *shape_per_draw))
        done += c


def moment_report(mat: np.ndarray) -> dict[str, float]:
    """Empirical entry moments: mean, raw second moment, max |entry|, skewness.

    'variance' is the second moment about zero (the ensembles are zero-mean
    by construction), so +-1 matrices report exactly 1.  Skewness is the
    usual centered third moment over the centered std cubed, 0 for a
    constant matrix.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.size == 0:
        raise ValueError("moment report needs a nonempty matrix")
    mean = float(np.mean(arr))
    second = float(np.mean(arr**2))
    centered = arr - mean
    var_centered = float(np.mean(centered**2))
    if var_centered > 0.0:
        skew = float(np.mean(centered**3) / var_centered**1.5)
    else:
        skew = 0.0
    return {
        "mean": mean,
        "variance": second,
        "max_abs": float(np.max(np.abs(arr))),
        "skewness": skew,
    }


@dataclass(frozen=True)
class SamplerSpec:
    """Sampling coefficient function on [0, W/n].

    Either flat (one m x n matrix, p = 1) or gridded (p matrices on a
    uniform frequency grid).  Every panel must have full row rank.
    """

    panels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.panels:
            raise ValueError("a sampler needs at least one coefficient matrix")
        frozen = []
        shape = None
        for j, panel in enumerate(self.panels):
            arr = np.array(panel, dtype=float)
            if arr.ndim != 2:
                raise ValueError(f"panel {j} is not a matrix")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"panel {j} has non-finite entries")
            if shape is None:
                shape = arr.shape
                if shape[0] > shape[1]:
                    raise ValueError(f"need m <= n, got {shape}")
            elif arr.shape != shape:
                raise ValueError(f"panel {j} shape {arr.shape} != {shape}")
            full_rank_gram(arr, f"sampler panel {j}")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "panels", tuple(frozen))

    @property
    def m(self) -> int:
        return self.panels[0].shape[0]

    @property
    def n(self) -> int:
        return self.panels[0].shape[1]

    @property
    def p(self) -> int:
        return len(self.panels)

    @property
    def flat(self) -> bool:
        return self.p == 1

    @property
    def matrix(self) -> np.ndarray:
        if not self.flat:
            raise ValueError("sampler is frequency-gridded; use .panels")
        return self.panels[0]


def make_flat_sampler(q: np.ndarray) -> SamplerSpec:
    """Frequency-flat sampler from one full-row-rank m x n coefficient matrix."""
    return SamplerSpec(panels=(np.asarray(q, dtype=float),))


def make_gridded_sampler(matrices) -> SamplerSpec:
    """Sampler whose coefficient matrix varies over a uniform frequency grid."""
    return SamplerSpec(panels=tuple(np.asarray(q, dtype=float) for q in matrices))

"""Seeded random ensembles for sampling/sensing coefficient matrices.

Reproducibility contract: every matrix is a pure function of
(kind, rows, cols, seed).  Bits come from numpy's Philox counter-based
generator (version-pinned constants), uniforms from an explicit
uint64 -> (0, 1) mapping, and gaussians from the inverse normal CDF
(Wichura's AS241 rational approximations, evaluated here in numpy), so
equal seeds give byte-identical matrices on any platform.  Independent
Monte Carlo streams are derived by XORing the master seed with the trial
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Every command draws from Philox; importing it here keeps numpy.random's
# lazy import inside the package import rather than inside the first draw.
from numpy.random import Generator, Philox

from .numerics import full_rank_gram, real_matrix

__all__ = [
    "ENSEMBLE_KINDS",
    "EnsembleSpec",
    "SamplerSpec",
    "derive_trial_seed",
    "draw_matrices",
    "draw_matrix",
    "gaussian_batches",
    "make_flat_sampler",
    "make_gridded_sampler",
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
# largest uniform: the largest double below 1
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial stream key: master seed XOR trial index (64-bit)."""
    return (int(master_seed) ^ int(trial_index)) & _SEED_MASK


def philox_generator(seed: int) -> Generator:
    """The pinned Philox stream keyed by the low 64 bits of `seed`."""
    return Generator(Philox(key=int(seed) & _SEED_MASK))


def _raw_uint64(gen: Generator, shape) -> np.ndarray:
    return gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def _uniform_open(gen: Generator, shape) -> np.ndarray:
    # 53 significant bits, offset by half an ulp so 0 and 1 are excluded.
    # The top value (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to
    # the largest double below 1; no other value moves.
    raw = _raw_uint64(gen, shape)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


# Wichura's AS241 (PPND16), Applied Statistics 37(3), 1988: numerator and
# denominator coefficients, constant term first, of the rational
# approximations on the central region |p - 1/2| <= 0.425 (in
# r = 0.180625 - (p - 1/2)^2), and on the tails in r = sqrt(-log min(p, 1 - p))
# for r <= 5 (shifted by 1.6) and beyond (shifted by 5).
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    """Horner evaluation of the ratio of the two polynomials in `coeffs`."""
    num, den = coeffs
    top = np.full_like(r, num[-1])
    bottom = np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top *= r
        top += a
        bottom *= r
        bottom += b
    return top / bottom


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of p in (0, 1), by AS241 (about 1e-16
    relative).  Antisymmetric: x(1 - p) = -x(p) exactly wherever p and
    1 - p are both doubles.  A p outside (0, 1) raises ValueError.

    The tails take their log from `math.log` (the C library's), not
    `np.log`, whose SIMD loops round differently on AVX-512 CPUs and would
    make the draws depend on the machine.
    """
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    pt = p[tail]
    logs = np.fromiter(map(math.log, np.minimum(pt, 1.0 - pt).tolist()), np.float64, pt.size)
    r = np.sqrt(-logs)
    near = r <= 5.0
    mag = np.empty_like(r)
    mag[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    mag[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    x[tail] = np.copysign(mag, q[tail])
    return x


def draw_matrices(specs) -> list[np.ndarray]:
    """Draw the (rows x cols) matrix determined by each spec, in order.

    gaussian: inverse normal CDF (AS241) of open-interval uniforms.
    rademacher: +-1 from the low bit of the raw stream.
    uniform_sym: uniform on [-sqrt(3), sqrt(3)] (unit variance).

    Each spec reads its own Philox stream.  The uniforms of all gaussian
    specs go through one quantile call, whose arithmetic is elementwise, so
    every matrix has the bits of its own `draw_matrix` call.
    """
    mats, uniforms = [], {}
    for i, spec in enumerate(specs):
        gen = philox_generator(spec.seed)
        shape = (spec.rows, spec.cols)
        if spec.kind == "gaussian":
            uniforms[i] = _uniform_open(gen, shape)
            mats.append(None)  # filled in below
        elif spec.kind == "rademacher":
            bits = _raw_uint64(gen, shape) & np.uint64(1)
            mats.append(np.where(bits == 1, 1.0, -1.0))
        else:  # uniform_sym
            mats.append((2.0 * _uniform_open(gen, shape) - 1.0) * math.sqrt(3.0))
    if uniforms:
        flat = _normal_quantile(np.concatenate([u.reshape(-1) for u in uniforms.values()]))
        cuts = np.cumsum([u.size for u in uniforms.values()])[:-1]
        for (i, u), x in zip(uniforms.items(), np.split(flat, cuts)):
            mats[i] = x.reshape(u.shape)
    return mats


def draw_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Draw the (rows x cols) matrix determined by `spec` (see `draw_matrices`)."""
    return draw_matrices([spec])[0]


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
        yield _normal_quantile(_uniform_open(gen, (c, *shape_per_draw)))
        done += c


@dataclass(frozen=True)
class SamplerSpec:
    """Sampling coefficient function on [0, W/n].

    Either flat (one m x n matrix, p = 1) or gridded (p matrices on a
    uniform frequency grid).  Every panel must be real, with full row rank.
    """

    panels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.panels:
            raise ValueError("a sampler needs at least one coefficient matrix")
        frozen = []
        shape = None
        for j, panel in enumerate(self.panels):
            arr = np.array(real_matrix(panel, f"panel {j}"))
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
    return SamplerSpec(panels=(q,))


def make_gridded_sampler(matrices) -> SamplerSpec:
    """Sampler whose coefficient matrix varies over a uniform frequency grid."""
    return SamplerSpec(panels=tuple(matrices))

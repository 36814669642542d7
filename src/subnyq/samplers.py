"""Seeded random ensembles for sampling/sensing coefficient matrices.

Reproducibility contract: every matrix is a pure function of
(kind, rows, cols, seed).  Bits come from the Philox4x64-10 counter-based
stream, and bounded integers from Lemire's 32-bit rule, both defined in
this module (`PhiloxStream`, evaluated in numpy; tests check them word for
word against numpy's `Philox` and `Generator.integers`, which the package
never imports).  Uniforms come from an explicit uint64 -> (0, 1) mapping,
and gaussians from the inverse normal CDF (Wichura's AS241 rational
approximations, evaluated here in numpy), so equal seeds give
byte-identical matrices on any platform.  Independent Monte Carlo streams
are derived by XORing the master seed with the trial index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import full_rank_gram, real_matrix

__all__ = [
    "ENSEMBLE_KINDS",
    "EnsembleSpec",
    "PhiloxStream",
    "SamplerSpec",
    "derive_trial_seed",
    "draw_matrices",
    "draw_matrix",
    "gaussian_batches",
    "make_flat_sampler",
    "make_gridded_sampler",
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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11) with the constants numpy's `Philox` uses: the
# multipliers of words 0 and 2, and the Weyl increments of the key words.
_PHILOX_M = (0xD2E7_470E_E14C_6C93, 0xCA5A_8263_9512_1157)
_PHILOX_W = (0x9E37_79B9_7F4A_7C15, 0xBB67_AE85_84CA_A73B)
_PHILOX_ROUNDS = 10
# blocks per kernel pass, so that the kernel's scratch stays in cache
_PHILOX_CHUNK = 8192
_LOW32 = np.uint64(0xFFFF_FFFF)
_SHIFT32 = np.uint64(32)
_TWO32 = np.uint64(1 << 32)


def _multipliers(*words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A column of 64-bit multipliers, with its low and high 32-bit halves."""
    m = np.array(words, dtype=np.uint64)[:, None]
    return m, m & _LOW32, m >> _SHIFT32


# The two rows of the multiplied pair swap places every round, (word 0,
# word 2) on even rounds and (word 2, word 0) on odd ones, so that no round
# copies data between rows.
_ROW_MULTIPLIERS = (_multipliers(*_PHILOX_M), _multipliers(*_PHILOX_M[::-1]))
_WORD0_MULTIPLIER = _multipliers(_PHILOX_M[0])


def _mulhilo(a, mult, hi, lo, a_lo, t) -> None:
    """hi, lo <- the high and low words of the 128-bit products a * m, for a
    column m of multipliers, from four 32 x 32-bit partial products.
    Overwrites a, a_lo and t."""
    m, m_lo, m_hi = mult
    np.multiply(a, m, out=lo)
    np.bitwise_and(a, _LOW32, out=a_lo)
    a >>= _SHIFT32
    np.multiply(a_lo, m_lo, out=hi)
    hi >>= _SHIFT32
    np.multiply(a, m_lo, out=t)
    hi += t  # below 2**64, as is the sum below
    a_lo *= m_hi
    np.bitwise_and(hi, _LOW32, out=t)
    a_lo += t
    hi >>= _SHIFT32
    a *= m_hi
    hi += a
    a_lo >>= _SHIFT32
    hi += a_lo


def _philox_fill(out: np.ndarray, counters: np.ndarray, keys: np.ndarray) -> None:
    """Write into the (N, 4) uint64 array `out` the Philox4x64-10 blocks of
    the counters (c, 0, 0, 0) under the keys (k, 0), for the N entries c
    and k of the uint64 arrays `counters` and `keys`.

    Works in place on scratch of at most `_PHILOX_CHUNK` blocks.  x holds
    the pair of words a round multiplies and y the pair it XORs in.  As the
    rows of both swap every round, a round sets x to hi ^ y[::-1] ^ key and
    y to lo, where (hi, lo) are the 128-bit products of x.
    """
    c = min(len(counters), _PHILOX_CHUNK)
    # rows padded to whole 64-byte lines, so that no row starts mid-line
    x, y, lo, hi, a_lo, t = np.empty((6, 2, -(-c // 8) * 8), dtype=np.uint64)[:, :, :c]
    key = np.empty(c, dtype=np.uint64)
    for s in range(0, len(counters), _PHILOX_CHUNK):
        e = min(s + c, len(counters))
        if e - s < c:
            x, y, lo, hi, a_lo, t = (b[:, : e - s] for b in (x, y, lo, hi, a_lo, t))
            key = key[: e - s]
        key[:] = keys[s:e]
        # round 0: words 1-3 of the counter and word 1 of the key are zero
        x[0] = counters[s:e]
        _mulhilo(x[:1], _WORD0_MULTIPLIER, hi[:1], lo[:1], a_lo[:1], t[:1])
        x[0], x[1] = hi[0], key  # words 2 and 0
        y[0], y[1] = lo[0], 0  # words 3 and 1
        for r in range(1, _PHILOX_ROUNDS):
            key += np.uint64(_PHILOX_W[0])
            swapped = r % 2
            _mulhilo(x, _ROW_MULTIPLIERS[swapped], hi, lo, a_lo, t)
            np.bitwise_xor(hi, y[::-1], out=x)
            x[1 - swapped] ^= key
            x[swapped] ^= np.uint64(r * _PHILOX_W[1] & _SEED_MASK)
            y, lo = lo, y
        out[s:e, 0::2] = x.T  # words 0 and 2
        out[s:e, 1::2] = y.T  # words 1 and 3


def _stream_heads(seeds, counts) -> list[np.ndarray]:
    """The first counts[i] words of the fresh stream keyed by seeds[i], for
    every i, from one kernel pass."""
    blocks = np.array([-(-int(n) // 4) for n in counts], dtype=np.int64)
    starts = np.cumsum(blocks) - blocks
    counters = (np.arange(1, blocks.sum() + 1) - np.repeat(starts, blocks)).astype(np.uint64)
    keys = np.repeat(np.array([int(s) & _SEED_MASK for s in seeds], dtype=np.uint64), blocks)
    words = np.empty((len(counters), 4), dtype=np.uint64)
    _philox_fill(words, counters, keys)
    words = words.reshape(-1)
    return [words[4 * s : 4 * s + int(n)] for s, n in zip(starts, counts)]


def _int64_bound(value, name: str) -> np.ndarray:
    """An integer bound of `integers` as int64; anything else raises ValueError."""
    arr = np.asarray(value)
    if arr.dtype.kind != "i":
        raise ValueError(f"{name} must be signed integers within int64")
    return arr.astype(np.int64, copy=False)


class PhiloxStream:
    """The stream of numpy's `Generator(Philox(key=seed))`, word for word, for
    the draws the package makes.  The stream and the bounded-integer rule
    are defined here; tests check both against numpy.

    Supported draws:

    - `random_raw(size)`: the next raw 64-bit words;
    - `integers(low, high, size=None)`, int64 results, with low and high
      signed integers or integer arrays (broadcast) and every width
      high - low in 1..2**32: numpy's 32-bit Lemire draw ("Fast random
      integer generation in an interval", ACM TOMACS 2019), entry by entry
      in C order.  A 32-bit draw takes the low half of a fresh word and
      keeps the high half for the next 32-bit draw, across calls; raw
      draws leave that half alone.  A width-1 range draws nothing.

    Any other range raises ValueError.
    """

    def __init__(self, seed: int) -> None:
        self._key = int(seed) & _SEED_MASK
        self._blocks = 0  # counter of the last block computed
        self._spare = np.empty(0, dtype=np.uint64)  # its words not drawn yet
        self._half: int | None = None  # high half kept by a 32-bit draw

    def random_raw(self, size) -> np.ndarray:
        """The next raw words, as a uint64 array of shape `size`."""
        count = int(np.prod(size))
        spare = self._spare
        if count > len(spare):
            blocks = -(-(count - len(spare)) // 4)
            words = np.empty(len(spare) + 4 * blocks, dtype=np.uint64)
            words[: len(spare)] = spare
            counters = np.arange(self._blocks + 1, self._blocks + blocks + 1, dtype=np.uint64)
            _philox_fill(words[len(spare) :].reshape(blocks, 4), counters, np.full(blocks, self._key, np.uint64))
            self._blocks += blocks
            spare = words
        self._spare = spare[count:].copy()
        return spare[:count].reshape(size)

    def integers(self, low, high, size=None):
        """Integers uniform on low..high-1 (see the class docstring)."""
        lo, hi = _int64_bound(low, "low"), _int64_bound(high, "high")
        shape = np.broadcast_shapes(lo.shape, hi.shape) if size is None else size
        lo_b, hi_b = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
        if not np.all(hi_b > lo_b):
            raise ValueError("integers needs low < high")
        # with high > low, the difference modulo 2**64 is the exact width
        width = (hi_b.view(np.uint64) - lo_b.view(np.uint64)).ravel()
        if width.size and width.max() > 1 << 32:
            raise ValueError("integers needs widths high - low of at most 2**32")
        drawn = width > 1
        if drawn.all():
            out = self._lemire32(width)
        else:
            out = np.zeros(len(width), dtype=np.uint64)
            out[drawn] = self._lemire32(width[drawn])
        out = out.view(np.int64).reshape(shape)
        out += lo
        return out[()]

    def _next32(self, count: int) -> np.ndarray:
        """The next `count` 32-bit draws, as uint64."""
        out = np.empty(count, dtype=np.uint64)
        start = 0
        if count and self._half is not None:
            out[0], self._half, start = self._half, None, 1
        words = self.random_raw((count - start + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first
        out[start:] = halves[: count - start]
        if (count - start) % 2:
            self._half = int(halves[-1])
        return out

    def _lemire32(self, width: np.ndarray) -> np.ndarray:
        """One draw uniform on 0..w-1 per entry w of the flat uint64 array
        `width` (2 <= w <= 2**32), in order: x * w >> 32 for the next 32-bit
        x whose product's low half is at least 2**32 mod w.

        Each entry takes the next draw; a rejection leaves the entries after
        it paired with the draws after it, one place further on.  The stream
        is never read beyond the draws consumed.
        """
        done, pool, parts = 0, self._next32(len(width)), []
        while done < len(width):
            if not len(pool):
                pool = self._next32(len(width) - done)
            w = width[done : done + len(pool)]
            m = pool * w
            low = np.bitwise_and(m, _LOW32, out=pool)  # the draws are used up
            # a low half of at least w is always accepted; the rare others
            # are compared with the threshold 2**32 mod w (Lemire's shortcut)
            near = np.flatnonzero(low < w)
            rejected = near[low[near] < _TWO32 % w[near]]
            take = rejected[0] if len(rejected) else len(m)
            # the draws after a rejected one, recovered from their exact products
            pool = m[take + 1 :] // w[take + 1 :]
            m >>= _SHIFT32
            parts.append(m[:take])
            done += take
        return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, dtype=np.uint64), *parts])


def _uniform_open(raw: np.ndarray) -> np.ndarray:
    # 53 significant bits, offset by half an ulp so 0 and 1 are excluded.
    # The top value (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to
    # the largest double below 1; no other value moves.
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

    Each spec reads the head of its own Philox stream; one kernel pass
    computes the words of all of them.  The uniforms of all gaussian specs
    go through one quantile call, whose arithmetic is elementwise, so every
    matrix has the bits of its own `draw_matrix` call.
    """
    specs = list(specs)
    heads = _stream_heads([s.seed for s in specs], [s.rows * s.cols for s in specs])
    mats, uniforms = [], {}
    for i, (spec, raw) in enumerate(zip(specs, heads)):
        raw = raw.reshape(spec.rows, spec.cols)
        if spec.kind == "gaussian":
            uniforms[i] = _uniform_open(raw)
            mats.append(None)  # filled in below
        elif spec.kind == "rademacher":
            mats.append(np.where(raw & np.uint64(1) == 1, 1.0, -1.0))
        else:  # uniform_sym
            mats.append((2.0 * _uniform_open(raw) - 1.0) * math.sqrt(3.0))
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
    gen = PhiloxStream(seed)
    done = 0
    while done < total:
        c = min(chunk, total - done)
        yield _normal_quantile(_uniform_open(gen.random_raw((c, *shape_per_draw))))
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

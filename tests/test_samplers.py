import hashlib
import math

import numpy as np
import pytest

from subnyq import channel, samplers
from subnyq.numerics import SingularityError
from subnyq.samplers import (
    ENSEMBLE_BOUNDS,
    EnsembleSpec,
    PhiloxStream,
    derive_trial_seed,
    draw_matrices,
    draw_matrix,
    gaussian_batches,
    make_flat_sampler,
    make_gridded_sampler,
)

# Smallest and largest values of the open-interval uniform map.
U_MIN, U_MAX = 2.0**-54, 1.0 - 2.0**-53


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec("cauchy", 2, 4, 0)
        with pytest.raises(ValueError):
            EnsembleSpec("gaussian", 5, 4, 0)

    def test_trial_seed_is_xor(self):
        assert derive_trial_seed(0b1100, 0b1010) == 0b0110
        assert derive_trial_seed(7, 0) == 7


class TestDrawMatrix:
    def test_deterministic(self):
        a = draw_matrix(EnsembleSpec("gaussian", 4, 8, 123))
        b = draw_matrix(EnsembleSpec("gaussian", 4, 8, 123))
        assert a.tobytes() == b.tobytes()

    def test_seeds_differ(self):
        a = draw_matrix(EnsembleSpec("gaussian", 4, 8, 123))
        b = draw_matrix(EnsembleSpec("gaussian", 4, 8, 124))
        assert a.tobytes() != b.tobytes()

    def test_rademacher_support(self):
        m = draw_matrix(EnsembleSpec("rademacher", 10, 50, 7))
        assert set(np.unique(m)) == {-1.0, 1.0}

    def test_gaussian_moments(self):
        m = draw_matrix(EnsembleSpec("gaussian", 200, 400, 2024))
        assert -0.02 <= float(np.mean(m)) <= 0.02
        assert 0.97 <= float(np.var(m)) <= 1.03

    def test_uniform_bounded_unit_variance(self):
        m = draw_matrix(EnsembleSpec("uniform_sym", 100, 200, 5))
        assert float(np.max(np.abs(m))) <= math.sqrt(3.0)
        assert abs(float(np.mean(m**2)) - 1.0) <= 0.03

    def test_bounded_ensembles_respect_declared_bound(self):
        for kind, bound in ENSEMBLE_BOUNDS.items():
            m = draw_matrix(EnsembleSpec(kind, 20, 40, 11))
            assert float(np.max(np.abs(m))) <= bound + 1e-12


class TestDrawMatrices:
    SEEDS = (0, 7, 2**64 - 1, derive_trial_seed(31337, 5), 123 ^ samplers.RESAMPLE_KEY_FLIP)

    @staticmethod
    def one_spec(spec):
        """The matrix of spec from its own stream alone, entry map by entry map."""
        raw = PhiloxStream(spec.seed).random_raw((spec.rows, spec.cols))
        if spec.kind == "gaussian":
            return samplers._normal_quantile(samplers._uniform_open(raw))
        if spec.kind == "rademacher":
            return np.where(raw & np.uint64(1) == 1, 1.0, -1.0)
        return (2.0 * samplers._uniform_open(raw) - 1.0) * math.sqrt(3.0)

    @pytest.mark.parametrize("kind", samplers.ENSEMBLE_KINDS)
    def test_equals_one_draw_per_spec(self, kind):
        specs = [EnsembleSpec(kind, 1 + s % 5, 9 + s % 4, s) for s in self.SEEDS]
        for spec, mat in zip(specs, draw_matrices(specs)):
            for want in (draw_matrix(spec), self.one_spec(spec)):
                assert mat.shape == want.shape and mat.dtype == want.dtype
                assert mat.tobytes() == want.tobytes()

    def test_mixed_kinds_keep_their_order(self):
        specs = [EnsembleSpec(kind, 3, 7, seed) for seed in self.SEEDS for kind in samplers.ENSEMBLE_KINDS]
        got = draw_matrices(specs)
        assert [m.tobytes() for m in got] == [draw_matrix(spec).tobytes() for spec in specs]
        assert draw_matrices([]) == []

    def test_one_quantile_call(self, monkeypatch):
        calls = []
        real = samplers._normal_quantile
        monkeypatch.setattr(samplers, "_normal_quantile", lambda p: calls.append(p.size) or real(p))
        draw_matrices([EnsembleSpec("gaussian", 2, 5, s) for s in range(4)])
        assert calls == [40]


class TestPhiloxStream:
    """The package's Philox stream against numpy's own `Philox` and
    `Generator`, which only the tests import."""

    KEYS = (0, 1, 2**64 - 1, derive_trial_seed(31337, 5), 123 ^ samplers.RESAMPLE_KEY_FLIP) + tuple(
        int(k) for k in np.random.default_rng(2024).integers(0, 2**64, 3, dtype=np.uint64)
    )
    # a width of 3 * 2**30 rejects a quarter of its 32-bit draws
    REJECTING = 3 * 2**30

    @staticmethod
    def pair(key):
        return np.random.Generator(np.random.Philox(key=key)), PhiloxStream(key)

    @staticmethod
    def raw(gen, size):
        """The next raw words of either stream of `pair`."""
        return (gen.bit_generator if isinstance(gen, np.random.Generator) else gen).random_raw(size)

    @staticmethod
    def rejections(key, width, count):
        """How many of the first `count` 32-bit draws of the stream `key`
        the bounded draw of `width` rejects."""
        words = np.random.Philox(key=key).random_raw(-(-count // 2))
        draws = np.stack([words & np.uint64(2**32 - 1), words >> np.uint64(32)], axis=1).reshape(-1)
        return int(np.sum((draws[:count] * np.uint64(width)) % np.uint64(2**32) < 2**32 % width))

    @pytest.mark.parametrize("key", KEYS)
    def test_raw_words_across_blocks(self, key):
        bits = np.random.Philox(key=key)
        gen = PhiloxStream(key)
        for size in (1, 3, 5, 4, 0, 7, 8, 2, 13, 1000, 3, 4 * samplers._PHILOX_CHUNK + 5, 2):
            assert np.array_equal(gen.random_raw(size), bits.random_raw(size))
        assert np.array_equal(gen.random_raw((2, 3)), bits.random_raw(6).reshape(2, 3))

    def test_stream_heads_across_chunks(self):
        # one kernel pass whose chunks hold blocks of several keys
        keys, counts = self.KEYS[:4], (3, 4 * samplers._PHILOX_CHUNK + 6, 5, samplers._PHILOX_CHUNK)
        for key, n, got in zip(keys, counts, samplers._stream_heads(keys, counts)):
            assert np.array_equal(got, np.random.Philox(key=key).random_raw(n))

    @pytest.mark.parametrize("n, k", [(40, 8), (12, 11), (90, 3), (2, 1)])
    def test_floyd_array_bounds(self, n, k):
        want, gen = self.pair(channel._STATE_SAMPLING_KEY)
        highs = np.tile(np.arange(n - k + 2, n + 2), 500)
        for _ in range(3):  # the kept high half carries from call to call
            got, expected = gen.integers(1, highs), want.integers(1, highs)
            assert got.dtype == expected.dtype == np.int64 and np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_scalar_draws_like_verify_instances(self, seed):
        want, gen = self.pair(derive_trial_seed(seed, 0xB0))
        for _ in range(60):
            n = int(gen.integers(4, 13))
            assert n == want.integers(4, 13)
            m = int(gen.integers(1, n + 1))
            assert m == want.integers(1, n + 1)
            for high in (m + 1, 2, 2**32):  # width 1 draws nothing
                assert gen.integers(1, high) == want.integers(1, high)

    @pytest.mark.parametrize("key", KEYS[:4])
    def test_raw_and_32_bit_draws_interleaved(self, key):
        want, gen = self.pair(key)
        calls = [
            lambda g: g.integers(0, 10),
            lambda g: self.raw(g, 3),
            lambda g: g.integers(0, 10, size=3),
            lambda g: self.raw(g, 2),
            lambda g: g.integers(5, 6, size=4),
            lambda g: g.integers(-7, np.array([[1], [2**31]]), size=(2, 5)),
            lambda g: g.integers(0, 2**32, size=3),
        ]
        for _ in range(5):
            for call in calls:
                assert np.array_equal(call(gen), call(want))

    @pytest.mark.parametrize("key", KEYS[:4])
    def test_rejected_draws(self, key):
        assert self.rejections(key, self.REJECTING, 2000) > 400  # the inputs do reject
        want, gen = self.pair(key)
        assert np.array_equal(gen.integers(0, self.REJECTING, size=2000), want.integers(0, self.REJECTING, size=2000))
        # per-entry widths: rejecting, small and width-1 entries mixed
        widths = np.where(np.arange(3000) % 3 == 0, self.REJECTING, np.arange(3000) % 7 + 1)
        for _ in range(2):
            assert np.array_equal(gen.integers(5, 5 + widths), want.integers(5, 5 + widths))
        assert np.array_equal(gen.random_raw(9), want.bit_generator.random_raw(9))

    @pytest.mark.parametrize(
        "low, high",
        [
            (5, 5),  # width 0
            (5, 4),
            (0, np.array([3, 0, 2])),
            (0, 2**32 + 1),  # above the 32-bit draw
            (-(2**62), 2**62),
            (-(2**63), 2**63 - 1),  # a width that wraps to -1 in int64
            (2**63 - 1, -(2**63)),  # high < low, yet high - low wraps to 1
            (0, 1 << 64),  # beyond int64
            (0, np.array([3], dtype=np.uint64)),
            (0.5, 10),
        ],
    )
    def test_out_of_scope_ranges_raise(self, low, high):
        want, gen = self.pair(3)
        with pytest.raises(ValueError):
            gen.integers(low, high)
        # nothing was drawn
        assert np.array_equal(gen.integers(0, 100, size=5), want.integers(0, 100, size=5))


class TestUniformOpen:
    def test_top_raw_value_stays_below_one(self, monkeypatch):
        # (2**53 - 1) + 0.5 rounds to 2**53, which would map to exactly 1.0
        top = lambda seeds, counts: [np.full(n, 2**64 - 1, dtype=np.uint64) for n in counts]
        monkeypatch.setattr(samplers, "_stream_heads", top)
        u = samplers._uniform_open(np.full(3, 2**64 - 1, dtype=np.uint64))
        assert np.all(u == U_MAX)
        uniform = draw_matrix(EnsembleSpec("uniform_sym", 1, 3, 0))
        assert np.all(np.isfinite(uniform)) and np.all(uniform < math.sqrt(3.0))
        assert np.all(np.isfinite(draw_matrix(EnsembleSpec("gaussian", 1, 3, 0))))

    def test_bottom_raw_value_stays_above_zero(self, monkeypatch):
        bottom = lambda seeds, counts: [np.zeros(n, dtype=np.uint64) for n in counts]
        monkeypatch.setattr(samplers, "_stream_heads", bottom)
        assert np.all(samplers._uniform_open(np.zeros(3, dtype=np.uint64)) == U_MIN)
        assert np.all(np.isfinite(draw_matrix(EnsembleSpec("gaussian", 1, 3, 0))))


class TestNormalQuantile:
    EDGES = np.array([U_MIN, U_MAX, 0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5])

    def test_matches_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        u = np.concatenate([samplers._uniform_open(PhiloxStream(8).random_raw(1_000_000)), self.EDGES])
        a = samplers._normal_quantile(u)
        b = special.ndtri(u)
        assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(a)))

    def test_antisymmetric_where_complement_is_exact(self):
        u = samplers._uniform_open(PhiloxStream(9).random_raw(200_000))
        tails = np.arange(1, 2001) * 2.0**-53  # the far tail, r > 5
        p = np.concatenate([u, tails, 1.0 - tails, self.EDGES])
        p = p[(1.0 - (1.0 - p)) == p]
        assert p.size > 100_000
        assert np.array_equal(samplers._normal_quantile(1.0 - p), -samplers._normal_quantile(p))

    def test_monotone_over_sorted_grid(self):
        grid = np.unique(
            np.concatenate(
                [
                    np.geomspace(U_MIN, 0.5, 20_001),
                    1.0 - np.geomspace(2.0**-53, 0.5, 20_001),
                    np.linspace(0.01, 0.99, 20_001),
                    self.EDGES,
                ]
            )
        )
        x = samplers._normal_quantile(grid)
        assert np.all(np.diff(x) > 0.0)
        assert samplers._normal_quantile(np.array([0.5]))[0] == 0.0

    def test_finite_at_both_extremes(self):
        x = samplers._normal_quantile(np.array([U_MIN, U_MAX]))
        assert np.all(np.isfinite(x))
        assert -8.3 < x[0] < -8.2 and 8.2 < x[1] < 8.3

    def test_gaussian_bits_pinned(self):
        # one million draws, 15% of them in the tails, whose logarithm must
        # not depend on which SIMD loops numpy picks for this CPU
        x = np.concatenate(list(gaussian_batches(50, (100, 200), 3)))
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "bc4888a5cdc622321e23bd0a0f1e16ff902c85a4feb94269a90041de6174713e"
        )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_outside_open_interval_raises(self, p):
        with pytest.raises(ValueError):
            samplers._normal_quantile(np.array([0.5, p]))


class TestMomentReport:
    """Empirical entry moments of drawn matrices."""

    def test_rademacher_second_moment_exact(self):
        m = draw_matrix(EnsembleSpec("rademacher", 30, 30, 3))
        assert float(np.mean(m**2)) == 1.0  # raw second moment of +-1 entries
        assert abs(float(np.mean(m))) <= 3.0 / math.sqrt(m.size)

    def test_gaussian_skewness_small(self):
        m = draw_matrix(EnsembleSpec("gaussian", 100, 100, 17))
        centered = m - np.mean(m)
        skewness = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
        assert abs(skewness) <= 0.05


class TestSamplerSpec:
    def test_identity_rows_ok(self):
        q = np.hstack([np.eye(2), np.zeros((2, 3))])
        spec = make_flat_sampler(q)
        assert spec.flat and spec.p == 1 and spec.m == 2 and spec.n == 5

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularityError):
            make_flat_sampler(np.zeros((2, 4)))

    def test_drawn_gaussian_ok(self):
        q = draw_matrix(EnsembleSpec("gaussian", 3, 8, 99))
        spec = make_flat_sampler(q)
        assert spec.m == 3

    def test_gridded_shape_consistency(self):
        panels = [draw_matrix(EnsembleSpec("gaussian", 2, 6, s)) for s in (1, 2, 3)]
        spec = make_gridded_sampler(panels)
        assert spec.p == 3 and not spec.flat
        with pytest.raises(ValueError):
            make_gridded_sampler([panels[0], panels[1][:, :5]])

    def test_panels_immutable(self):
        q = np.eye(3)
        spec = make_flat_sampler(q)
        with pytest.raises(ValueError):
            spec.matrix[0, 0] = 5.0
        q[0, 0] = 5.0  # the sampler froze a copy, not the caller's array
        assert spec.matrix[0, 0] == 1.0

    # rows 0 and 1 of the unitary 4-point DFT: a multicoset sampler
    PARTIAL_DFT = np.fft.fft(np.eye(4))[:2] / 2.0

    def test_complex_panel_rejected(self):
        # no cast to the real part, which numpy only warns about
        with pytest.raises(ValueError, match="panel 0 is complex"):
            make_flat_sampler(self.PARTIAL_DFT)
        with pytest.raises(ValueError, match="panel 1 is complex"):
            make_gridded_sampler([self.PARTIAL_DFT.real, self.PARTIAL_DFT])
        with pytest.raises(ValueError, match="complex"):
            make_flat_sampler(self.PARTIAL_DFT.tolist())


class TestSmallestSingularValue:
    def test_gaussian_sigma_min_bound(self):
        # m = n/2 gaussian: sigma_min(M M^T) > (sqrt(n) - sqrt(m) - xi)^2
        # should hold in >= 95 of 100 seeded trials at n = 200, xi = 2
        n, m, xi = 200, 100, 2.0
        threshold = (math.sqrt(n) - math.sqrt(m) - xi) ** 2
        hits = 0
        for t in range(100):
            mat = draw_matrix(EnsembleSpec("gaussian", m, n, derive_trial_seed(31337, t)))
            sigma_min = float(np.linalg.eigvalsh(mat @ mat.T)[0])
            hits += sigma_min > threshold
        assert hits >= 95

import hashlib
import math

import numpy as np
import pytest

from subnyq import samplers
from subnyq.numerics import SingularityError
from subnyq.samplers import (
    ENSEMBLE_BOUNDS,
    EnsembleSpec,
    derive_trial_seed,
    draw_matrix,
    gaussian_batches,
    make_flat_sampler,
    make_gridded_sampler,
    moment_report,
    philox_generator,
)

# Smallest and largest values of the open-interval uniform map.
U_MIN, U_MAX = 2.0**-54, 1.0 - 2.0**-53


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec("cauchy", 2, 4, 0)
        with pytest.raises(ValueError):
            EnsembleSpec("gaussian", 5, 4, 0)

    def test_json_round_trip(self, tmp_path):
        spec = EnsembleSpec("rademacher", 3, 9, 42)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert EnsembleSpec.from_json(path) == spec

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


class TestUniformOpen:
    def test_top_raw_value_stays_below_one(self, monkeypatch):
        # (2**53 - 1) + 0.5 rounds to 2**53, which would map to exactly 1.0
        top = lambda gen, shape: np.full(shape, 2**64 - 1, dtype=np.uint64)
        monkeypatch.setattr(samplers, "_raw_uint64", top)
        u = samplers._uniform_open(philox_generator(0), (3,))
        assert np.all(u == U_MAX)
        uniform = draw_matrix(EnsembleSpec("uniform_sym", 1, 3, 0))
        assert np.all(np.isfinite(uniform)) and np.all(uniform < math.sqrt(3.0))
        assert np.all(np.isfinite(draw_matrix(EnsembleSpec("gaussian", 1, 3, 0))))

    def test_bottom_raw_value_stays_above_zero(self, monkeypatch):
        bottom = lambda gen, shape: np.zeros(shape, dtype=np.uint64)
        monkeypatch.setattr(samplers, "_raw_uint64", bottom)
        assert np.all(samplers._uniform_open(philox_generator(0), (3,)) == U_MIN)
        assert np.all(np.isfinite(draw_matrix(EnsembleSpec("gaussian", 1, 3, 0))))


class TestNormalQuantile:
    EDGES = np.array([U_MIN, U_MAX, 0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5])

    def test_matches_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        u = np.concatenate([samplers._uniform_open(philox_generator(8), (1_000_000,)), self.EDGES])
        a = samplers._normal_quantile(u)
        b = special.ndtri(u)
        assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(a)))

    def test_antisymmetric_where_complement_is_exact(self):
        u = samplers._uniform_open(philox_generator(9), (200_000,))
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
    def test_zero_matrix(self):
        rep = moment_report(np.zeros((3, 3)))
        assert rep["mean"] == 0.0
        assert rep["variance"] == 0.0
        assert rep["max_abs"] == 0.0
        assert rep["skewness"] == 0.0

    def test_rademacher_second_moment_exact(self):
        m = draw_matrix(EnsembleSpec("rademacher", 30, 30, 3))
        rep = moment_report(m)
        assert rep["variance"] == 1.0  # raw second moment of +-1 entries
        assert abs(rep["mean"]) <= 3.0 / math.sqrt(m.size)

    def test_gaussian_skewness_small(self):
        m = draw_matrix(EnsembleSpec("gaussian", 100, 100, 17))
        assert abs(moment_report(m)["skewness"]) <= 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moment_report(np.zeros((0, 3)))


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
        spec = make_flat_sampler(np.eye(3))
        with pytest.raises(ValueError):
            spec.matrix[0, 0] = 5.0


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

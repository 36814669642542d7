import math

import numpy as np
import pytest

from subnyq.converse import (
    ConverseCheck,
    colex_plans,
    min_state_logdet_bound,
    minimax_lower_bound,
    per_instance_sandwich,
    subset_det_sum,
    subset_det_sum_closed,
    subset_det_sums_unchecked,
)
from subnyq.numerics import binary_entropy, whiten
from subnyq.samplers import EnsembleSpec, derive_trial_seed, draw_matrix


def whitened(kind, m, n, seed):
    return whiten(draw_matrix(EnsembleSpec(kind, m, n, seed)))


class TestClosedForm:
    def test_two_term_expansion(self):
        # (n=2, k=1, m=1): C(1,0) C(1,1) + C(2,1) C(1,0) eps = 1 + 2 eps
        for eps in (0.0, 0.3, 1.0, 2.5):
            assert subset_det_sum_closed(2, 1, 1, eps) == pytest.approx(1.0 + 2.0 * eps)

    def test_eps_zero_is_binomial(self):
        for n, k, m in [(6, 2, 3), (9, 4, 7), (12, 5, 5)]:
            assert subset_det_sum_closed(n, k, m, 0.0) == pytest.approx(math.comb(m, k))

    def test_upper_bound(self):
        for n, k, m in [(6, 2, 3), (10, 3, 7), (12, 6, 9)]:
            for eps in (0.01, 0.1, 0.5, 1.0):
                val = subset_det_sum_closed(n, k, m, eps)
                cap = math.comb(m, k) * (1.0 + math.sqrt(eps)) ** (n + k)
                assert val <= cap * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            subset_det_sum_closed(4, 3, 2, 0.1)  # k > m
        with pytest.raises(ValueError):
            subset_det_sum_closed(4, 1, 2, -0.1)


class TestSubsetDetSum:
    def test_hand_computed_1x2(self):
        b = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
        for eps in (0.0, 0.2, 1.0):
            # two states, each with det = eps + 1/2
            assert subset_det_sum(b, 1, eps) == pytest.approx(2 * eps + 1.0, rel=1e-12)

    def test_identity_matches_closed_form(self):
        cases = [
            ("gaussian", 6, 2, 3), ("gaussian", 9, 4, 7), ("gaussian", 12, 5, 6),
            ("rademacher", 8, 3, 4), ("uniform_sym", 10, 2, 5),
        ]
        for kind, n, k, m in cases:
            b = whitened(kind, m, n, seed=derive_trial_seed(404, n * 31 + k))
            for eps in (0.0, 0.01, 0.5, 1.0):
                lhs = subset_det_sum(b, k, eps)
                rhs = subset_det_sum_closed(n, k, m, eps)
                assert abs(lhs - rhs) / max(rhs, 1e-300) <= 1e-9

    def test_sum_independent_of_sampler(self):
        # same (n, k, m), different matrices: identical sums
        n, k, m = 10, 3, 5
        sums = []
        for seed in (1, 2, 3):
            b = whitened("gaussian", m, n, seed)
            sums.append(subset_det_sum(b, k, 0.25))
        assert max(sums) - min(sums) <= 1e-9 * max(sums)

    def test_lower_bound_binomial(self):
        for seed in range(5):
            b = whitened("gaussian", 4, 9, seed)
            assert subset_det_sum(b, 2, 0.0) >= math.comb(4, 2) * (1 - 1e-9)

    def test_workers_equivalent(self):
        b = whitened("gaussian", 5, 12, 99)
        a = subset_det_sum(b, 3, 0.1, workers=1)
        c = subset_det_sum(b, 3, 0.1, workers=4)
        assert a == c  # identical reduction order -> identical floats

    @pytest.mark.parametrize("workers", [1, 3])
    def test_grid_shares_one_plan_per_worker(self, monkeypatch, workers):
        import subnyq.converse as converse_mod

        built, maps = [], []
        real = converse_mod.subset_plan
        monkeypatch.setattr(converse_mod, "subset_plan", lambda idx: built.append(len(idx)) or real(idx))
        real_map = converse_mod.map_ordered
        monkeypatch.setattr(
            converse_mod, "map_ordered", lambda *args, **kw: maps.append(1) or real_map(*args, **kw)
        )
        b = whitened("gaussian", 5, 11, 7)
        grid = (0.0, 0.01, 0.5, 1.0)
        sums = subset_det_sums_unchecked(b, 3, grid, workers=workers)
        assert len(built) == workers and sum(built) == math.comb(11, 3)
        assert len(maps) == 1  # one fork round for the whole grid
        assert sums == [subset_det_sum(b, 3, eps) for eps in grid]

    def test_plans_must_hold_the_instance_states(self):
        b = whitened("gaussian", 5, 11, 7)
        plans = colex_plans(11, 3, workers=2)
        assert subset_det_sums_unchecked(b, 3, [0.1], plans=plans) == [subset_det_sum(b, 3, 0.1)]
        for wrong in (colex_plans(11, 2), colex_plans(10, 3), plans[:1]):
            with pytest.raises(ValueError):
                subset_det_sums_unchecked(b, 3, [0.1], plans=wrong)
            with pytest.raises(ValueError):
                per_instance_sandwich(b, 3, 0.1, plans=wrong)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            subset_det_sum(np.array([[1.0, 1.0]]), 1, 0.1)  # rows not orthonormal
        b = whitened("gaussian", 2, 6, 1)
        with pytest.raises(ValueError):
            subset_det_sum(b, 3, 0.1)  # k > m
        big = whitened("gaussian", 4, 200, 1)  # C(200, 4) ~ 6.5e7 > cap
        with pytest.raises(ValueError):
            subset_det_sum(big, 4, 0.1)


class TestConverseCheck:
    def test_relative_error(self):
        chk = ConverseCheck(n=4, k=1, m=2, eps=0.0, lhs_sum=2.0, rhs_closed=2.0)
        assert chk.relative_error == 0.0
        chk2 = ConverseCheck(n=4, k=1, m=2, eps=0.0, lhs_sum=2.0 + 2e-10, rhs_closed=2.0)
        assert chk2.relative_error == pytest.approx(1e-10)
        assert set(chk.to_dict()) == {
            "n", "k", "m", "eps", "lhs_sum", "rhs_closed", "relative_error",
        }


class TestMinStateBound:
    def test_nyquist_exact_form(self):
        for eps in (0.0, 0.04, 0.25):
            out = min_state_logdet_bound(8, 3, 8, eps)
            assert out["exact"] == pytest.approx(2.0 * math.sqrt(eps))
            assert out["exact"] >= 0.0

    def test_landau_16_4(self):
        out = min_state_logdet_bound(16, 4, 4, 0.0)
        assert out["exact"] == pytest.approx(-math.log(1820.0) / 16.0)

    def test_entropy_dominates_exact(self, gen):
        for _ in range(50):
            n = int(gen.integers(4, 40))
            m = int(gen.integers(1, n + 1))
            k = int(gen.integers(1, m + 1))
            eps = float(gen.uniform(0.0, 1.0))
            out = min_state_logdet_bound(n, k, m, eps)
            assert out["exact"] <= out["entropy"] + 1e-12


class TestMinimaxLowerBound:
    def test_nyquist_nonpositive(self):
        for n, k in [(8, 2), (16, 4), (30, 10)]:
            assert minimax_lower_bound(n, k, n, snr_min=1e6, bandwidth=1.0) <= 0.0

    def test_asymptotic_limit(self):
        # SNR -> inf, n -> inf with alpha, beta fixed: -> (W/2)[H(b) - a H(b/a)]
        target = 0.5 * (binary_entropy(0.25) - 0.5 * binary_entropy(0.5))
        vals = [
            minimax_lower_bound(n, n // 4, n // 2, snr_min=snr, bandwidth=1.0)
            for n, snr in [(16, 1e2), (64, 1e4), (256, 1e8), (1024, 1e12)]
        ]
        errors = [abs(v - target) for v in vals]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-2

    def test_frozen_value(self):
        # n=16, k=m=4, SNR_min=1e4, W=1, straight from the formula
        expected = 0.5 * (
            binary_entropy(0.25) - 0.25 * binary_entropy(1.0)
            - 2.0 / math.sqrt(1e4) - math.log(17.0) / 16.0
        )
        got = minimax_lower_bound(16, 4, 4, snr_min=1e4, bandwidth=1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.182630, abs=1e-6)


class TestPerInstanceSandwich:
    def test_two_state_hand_computation(self):
        b = np.array([[1.0, 0.0]])
        eps = 0.04
        out = per_instance_sandwich(b, 1, eps)
        # states {1}, {2}: dets 1 + eps and eps; min = (1/2) log eps
        assert out["min_state_value"] == pytest.approx(0.5 * math.log(eps), rel=1e-12)
        assert out["deterministic_upper"] == pytest.approx(
            0.5 * (0.0 - math.log(2.0)) + 2.0 * math.sqrt(eps)
        )
        assert out["min_state_value"] <= out["deterministic_upper"]

    def test_whitened_gaussian(self):
        b = whitened("gaussian", 3, 12, 21)
        out = per_instance_sandwich(b, 3, 0.01)
        assert out["min_state_value"] <= out["deterministic_upper"]

    def test_degenerate_duplicate_columns(self):
        # orthonormal rows with duplicated columns: bound must still hold
        base = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]) / math.sqrt(2.0)
        out = per_instance_sandwich(base, 2, 0.04)
        assert out["min_state_value"] <= out["deterministic_upper"]

    def test_many_seeds_never_violate(self):
        for t in range(10):
            b = whitened("gaussian", 3, 10, derive_trial_seed(2718, t))
            out = per_instance_sandwich(b, 2, 0.05)
            assert out["min_state_value"] <= out["deterministic_upper"]

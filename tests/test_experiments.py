import functools
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import eigh_shapes, nyquist_row, spy

from subnyq import channel, experiments, numerics
from subnyq.cli import main as cli_main
from subnyq.channel import CompoundChannel, enumerate_states
from subnyq.experiments import (
    TrialConfig,
    LAWS,
    achievability_trial,
    inverse_wishart_trace_trial,
    law_trial,
    loss_uniformity_report,
    wishart_det_expectation,
    wishart_minor_limit,
)
from subnyq.numerics import NumericalError, binary_entropy, colex_plan, subset_logdet, whiten
from subnyq.samplers import (
    ENSEMBLE_KINDS, RESAMPLE_KEY_FLIP, EnsembleSpec, derive_trial_seed, draw_matrix
)

# the laws are deterministic, so each configuration runs once per test run
law_result = functools.cache(law_trial)


def flat_unit_channel(n, k, snr):
    return CompoundChannel(
        bandwidth=float(n), n_subbands=n, k_active=k, power=k * snr,
        gain_grid=np.ones((n, 1)),
    )


class TestTrialConfig:
    def test_master_seed_outside_64_bits_rejected(self):
        # no mask aliases -1 to 2**64 - 1, or 2**64 to 0
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="master seed"):
                TrialConfig(n=8, k=2, m=4, master_seed=bad)
        top = TrialConfig(n=8, k=2, m=4, trials=2, master_seed=2**64 - 1)
        assert len(achievability_trial(top).per_trial["min"]) == 2

    @pytest.mark.parametrize("bad", [1.5, True, False, math.nan, "0"], ids=repr)
    def test_master_seed_fractional_or_bool_rejected(self, bad):
        # each would run as seed 1 or 0
        with pytest.raises(ValueError, match="master seed must be an integer"):
            TrialConfig(n=8, k=2, m=4, master_seed=bad)

    def test_integral_float_master_seed_is_its_integer(self):
        cfg = TrialConfig(n=8, k=2, m=4, trials=2, master_seed=7.0)
        assert type(cfg.master_seed) is int
        want = achievability_trial(TrialConfig(n=8, k=2, m=4, trials=2, master_seed=7))
        assert achievability_trial(cfg).to_json() == want.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n=8, k=5, m=4)
        with pytest.raises(ValueError):
            TrialConfig(n=8, k=2, m=4, trials=0)
        with pytest.raises(ValueError):
            TrialConfig(n=8, k=2, m=4, eps=-0.1)


class TestLandauAchievability:
    CFG = TrialConfig(n=16, k=4, m=4, ensemble="gaussian", eps=0.05, trials=50, master_seed=7)

    def test_deterministic_bound_never_violated(self):
        res = achievability_trial(self.CFG, workers=2)
        assert res.bound_violations == 0
        assert res.violation_budget == 0
        assert res.passed
        # at these parameters even the max over states stays under the cap
        assert res.summary["max_over_bound_count"] == 0
        assert all(v <= res.bound for v in res.per_trial["max"])

    def test_mean_min_brackets_entropy(self):
        res = achievability_trial(self.CFG, workers=2)
        assert abs(res.summary["mean_min"] - (-binary_entropy(0.25))) <= 0.15

    def test_universality_gaussian_vs_rademacher(self):
        res_g = achievability_trial(self.CFG, workers=2)
        cfg_r = TrialConfig(n=16, k=4, m=4, ensemble="rademacher", eps=0.05,
                            trials=50, master_seed=7)
        res_r = achievability_trial(cfg_r, workers=2)
        assert abs(res_g.summary["mean_min"] - res_r.summary["mean_min"]) < 0.05

    def test_reproducible(self):
        a = achievability_trial(self.CFG, workers=1)
        b = achievability_trial(self.CFG, workers=4)
        assert a.per_trial == b.per_trial

    def test_one_plan_per_suite(self, monkeypatch):
        # one colex range of 120 states, and no index block
        built = spy(monkeypatch, numerics.colex_plan)
        blocks = spy(monkeypatch, channel.enumerate_states)
        achievability_trial(TrialConfig(n=10, k=3, m=3, trials=4, master_seed=2), workers=2)
        assert built == [(10, 3, 0, math.comb(10, 3))]
        assert blocks == []

    def test_result_name_follows_regime(self):
        for k, m, name in [(3, 3, "landau_achievability"), (3, 4, "superlandau_achievability")]:
            assert achievability_trial(TrialConfig(n=16, k=k, m=m, trials=1)).name == name

    def test_state_cap_enforced(self):
        with pytest.raises(ValueError):
            achievability_trial(
                TrialConfig(n=16, k=4, m=4, state_cap=100, trials=1)
            )



class TestSingularMinors:
    def test_a_minimum_of_minus_infinity_warns_nothing(self):
        # Rademacher 3 x 8 draws have singular 3 x 3 minors: log det -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = achievability_trial(TrialConfig(n=8, k=3, m=3, ensemble="rademacher",
                                                  eps=0.0, trials=4, master_seed=12345))
        assert res.summary["mean_min"] == -math.inf
        assert math.isnan(res.summary["std_min"])
        assert res.passed


class TestAchievabilityStatistics:
    """Per-trial min, max and mean against one whole-block plan."""

    @pytest.mark.parametrize("n, k, m, chunk, workers", [
        (14, 4, 4, 64, 3),
        (14, 3, 6, 64, 2),
        (18, 5, 5, None, 2),  # the default chunk: 8,568 states in 3 chunks
    ])
    def test_against_whole_block(self, monkeypatch, n, k, m, chunk, workers):
        if chunk is not None:
            monkeypatch.setattr(numerics, "STATE_CHUNK", chunk)
        chunk = numerics.STATE_CHUNK
        cfg = TrialConfig(n=n, k=k, m=m, trials=4, master_seed=9)
        res = achievability_trial(cfg, workers=workers)
        plan = colex_plan(n, k)
        count = math.comb(n, k)
        for t in range(cfg.trials):
            spec = EnsembleSpec(cfg.ensemble, m, n, derive_trial_seed(cfg.master_seed, t))
            vals = subset_logdet(whiten(draw_matrix(spec)), plan, shift=cfg.eps) / n
            assert res.per_trial["min"][t] == float(np.min(vals))
            assert res.per_trial["max"][t] == float(np.max(vals))
            sums = [float(np.sum(vals[a : a + chunk])) for a in range(0, count, chunk)]
            assert res.per_trial["mean"][t] == math.fsum(sums) / count
            exact = math.fsum(vals.tolist()) / count
            assert abs(res.per_trial["mean"][t] - exact) <= 1e-15 * abs(exact)


class TestAchievabilityDraws:
    """Every trial's matrix comes from one batched draw, and the rank floor
    runs once per accepted draw, under `_draw_full_rank`'s resample rule."""

    CFG = TrialConfig(n=10, k=3, m=3, trials=4, master_seed=5)
    SINGULAR = 2  # the trial whose first draw is made singular

    def singular_first(self, monkeypatch):
        real = experiments.draw_matrices

        def draws(specs):
            mats = real(specs)
            mats[self.SINGULAR] = np.zeros_like(mats[self.SINGULAR])
            return mats

        monkeypatch.setattr(experiments, "draw_matrices", draws)

    def test_singular_first_draw_is_resampled(self, monkeypatch):
        plain = achievability_trial(self.CFG, workers=2)
        self.singular_first(monkeypatch)
        res = achievability_trial(self.CFG, workers=2)
        n, k, m = self.CFG.n, self.CFG.k, self.CFG.m
        seed = derive_trial_seed(self.CFG.master_seed, self.SINGULAR) ^ RESAMPLE_KEY_FLIP
        b = whiten(draw_matrix(EnsembleSpec("gaussian", m, n, seed)))
        vals = subset_logdet(b, enumerate_states(n, k, 10**6), shift=self.CFG.eps) / n
        # one chunk of states: the mean is its np.sum over the state count
        want = {"min": float(np.min(vals)), "max": float(np.max(vals)),
                "mean": float(np.sum(vals)) / math.comb(n, k)}
        for key, series in res.per_trial.items():
            for t, (got, was) in enumerate(zip(series, plain.per_trial[key])):
                assert got == (want[key] if t == self.SINGULAR else was)

    def test_two_singular_draws_fail(self, monkeypatch, capsys, tmp_path):
        self.singular_first(monkeypatch)
        monkeypatch.setattr(experiments, "draw_matrix", lambda spec: np.zeros((spec.rows, spec.cols)))
        with pytest.raises(NumericalError):
            achievability_trial(self.CFG, workers=2)
        status = cli_main(["--command", "achievability", "--n", "10", "--k", "3", "--m", "3",
                           "--trials", "4", "--seed", "5", "--out", str(tmp_path / "out.json")])
        assert status == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [3, 6], ids=["k=m", "k<m"])
    def test_rank_floor_once_per_trial(self, monkeypatch, m):
        cfg = TrialConfig(n=14, k=3, m=m, trials=5)
        checks = spy(monkeypatch, numerics.full_rank_gram)
        draws = spy(monkeypatch, experiments.draw_matrices)
        achievability_trial(cfg, workers=2)
        # the matrices checked, over however many stacked calls
        assert sum(np.reshape(args[0], (-1, m, cfg.n)).shape[0] for args in checks) == cfg.trials
        assert len(draws) == 1

    def test_trials_whitened_in_one_eigh_per_pass(self, monkeypatch):
        # 40 trials, one stack: two eigh calls, where one per pass and trial made 80
        shapes = eigh_shapes(monkeypatch)
        achievability_trial(TrialConfig(n=10, k=3, m=3, trials=40), workers=2)
        assert shapes == [(40, 3, 3)] * 2


class TestSuperLandauAchievability:
    CFG = TrialConfig(n=16, k=4, m=8, ensemble="gaussian", eps=0.05, trials=50, master_seed=7)

    def test_deterministic_bound_never_violated(self):
        res = achievability_trial(self.CFG, workers=2)
        assert res.bound_violations == 0

    def test_mean_min_brackets_target(self):
        res = achievability_trial(self.CFG, workers=2)
        target = -binary_entropy(0.25) + 0.5 * binary_entropy(0.5)
        assert res.reference == pytest.approx(target)
        assert abs(res.summary["mean_min"] - target) <= 0.2

    def test_alpha_one_sanity(self):
        # m = n: the whitened matrix is orthogonal, the statistic collapses
        cfg = TrialConfig(n=12, k=3, m=12, ensemble="gaussian", eps=0.05,
                          trials=10, master_seed=5)
        res = achievability_trial(cfg, workers=2)
        assert res.reference == pytest.approx(0.0, abs=1e-12)
        assert min(res.per_trial["min"]) >= -0.25

    def test_margin_enforced_by_default(self):
        # 1 - alpha - beta = 0 at m < n; only m = n waives the margin
        cfg = TrialConfig(n=12, k=3, m=9, ensemble="gaussian", trials=1)
        with pytest.raises(ValueError):
            achievability_trial(cfg)

    def test_gaussian_only(self):
        cfg = TrialConfig(n=16, k=4, m=8, ensemble="rademacher", trials=1)
        with pytest.raises(ValueError):
            achievability_trial(cfg)


class TestLogdetConcentration:
    def test_gaussian_bracket(self):
        cfg = TrialConfig(n=100, k=100, m=100, ensemble="gaussian", eps=0.1,
                          trials=200, master_seed=5)
        res = law_result("square", cfg)
        lo = res.summary["bracket_lower"] - res.summary["slack"]
        hi = res.summary["bracket_upper"] + res.summary["slack"]
        assert lo <= res.summary["mean"] <= hi
        assert res.passed
        # frozen bracket endpoints for k=100, eps=0.1
        assert res.summary["bracket_lower"] == pytest.approx(
            -1.0 + math.log(100) / 200 - 0.2
        )
        assert res.summary["bracket_upper"] == pytest.approx(
            -1.0 + 1.5 * math.log(100 * math.e) / 100 + 2 * math.sqrt(0.1) * math.log(10.0)
        )

    def test_rademacher_same_bracket(self):
        cfg = TrialConfig(n=100, k=100, m=100, ensemble="rademacher", eps=0.1,
                          trials=200, master_seed=5)
        assert law_result("square", cfg).passed

    def test_spread_shrinks_with_k(self):
        spreads = {}
        for k in (50, 200):
            cfg = TrialConfig(n=k, k=k, m=k, ensemble="gaussian", eps=0.1,
                              trials=150, master_seed=5)
            spreads[k] = law_result("square", cfg).summary["spread"]
        assert spreads[200] < spreads[50]

    def test_eps_range(self):
        with pytest.raises(ValueError):
            law_trial("square", TrialConfig(n=10, k=10, m=10, eps=0.9))


class TestWishartDeterminant:
    def test_k1_unit_variance(self):
        assert wishart_det_expectation(1, 100_000, seed=7) == pytest.approx(1.0, abs=0.02)

    def test_k3_ratio(self):
        ratio = wishart_det_expectation(3, 200_000, seed=7)
        assert 0.95 <= ratio <= 1.05

    def test_k4_heavier_tail(self):
        ratio = wishart_det_expectation(4, 500_000, seed=7)
        assert 0.9 <= ratio <= 1.1

    def test_k_guard(self):
        with pytest.raises(ValueError):
            wishart_det_expectation(7, 100, seed=0)

    def test_deterministic(self):
        assert wishart_det_expectation(2, 5000, seed=3) == wishart_det_expectation(2, 5000, seed=3)


class TestStatisticDefinition:
    def test_whitened_path_matches_raw_definition(self):
        # whitening-based evaluation must equal the defining expressions
        # det(eps I + (M M^T)^{-1} M_s M_s^T)  (k = m)  and
        # det(eps I + M_s^T (M M^T)^{-1} M_s)  (k <= m)
        from subnyq.channel import enumerate_states
        from subnyq.numerics import subset_logdet, whiten
        from subnyq.samplers import EnsembleSpec, draw_matrix

        eps = 0.05
        for m, k, seed in ((4, 4, 3), (6, 3, 4)):
            n = 10
            mat = draw_matrix(EnsembleSpec("gaussian", m, n, seed))
            b = whiten(mat)
            idx = enumerate_states(n, k, 10**6)[:25]
            fast = subset_logdet(b, idx, shift=eps)
            gram_inv = np.linalg.inv(mat @ mat.T)
            for state, val in zip(idx, fast):
                ms = mat[:, state]
                if k == m:
                    raw = np.linalg.slogdet(eps * np.eye(m) + gram_inv @ (ms @ ms.T))[1]
                else:
                    raw = np.linalg.slogdet(eps * np.eye(k) + ms.T @ gram_inv @ ms)[1]
                assert val == pytest.approx(raw, abs=1e-9)


class TestDegenerateDrawPolicy:
    def test_resample_once_then_error(self, monkeypatch):
        import subnyq.experiments as ex_mod

        calls = []

        def always_singular(spec):
            calls.append(spec.seed)
            return np.zeros((spec.rows, spec.cols))

        monkeypatch.setattr(ex_mod, "draw_matrix", always_singular)
        from subnyq.experiments import _draw_full_rank
        from subnyq.numerics import NumericalError
        from subnyq.samplers import EnsembleSpec

        with pytest.raises(NumericalError):
            _draw_full_rank(EnsembleSpec("gaussian", 2, 4, 123), whiten)
        assert len(calls) == 2  # original draw plus exactly one resample
        assert calls[0] != calls[1]

    def test_resample_recovers(self, monkeypatch):
        import subnyq.experiments as ex_mod
        from subnyq.samplers import EnsembleSpec
        from subnyq.samplers import draw_matrix as real_draw

        state = {"first": True}

        def singular_once(spec):
            if state.pop("first", False):
                return np.zeros((spec.rows, spec.cols))
            return real_draw(spec)

        monkeypatch.setattr(ex_mod, "draw_matrix", singular_once)
        from subnyq.experiments import _draw_full_rank

        mat = _draw_full_rank(EnsembleSpec("gaussian", 2, 4, 123), whiten)
        assert np.linalg.matrix_rank(mat) == 2


class TestRectLogdet:
    def test_high_probability_band(self):
        cfg = TrialConfig(n=400, k=200, m=200, ensemble="gaussian", trials=100,
                          master_seed=11, failure_budget=5)
        res = law_result("rect", cfg)
        assert res.summary["fraction_within"] >= 0.95
        assert res.reference == pytest.approx(0.5 * math.log(2.0) - 0.5)
        assert res.reference == pytest.approx(-0.153426, abs=1e-6)

    def test_deviation_shrinks_with_n(self):
        medians = {}
        for n in (100, 400):
            cfg = TrialConfig(n=n, k=n // 2, m=n // 2, ensemble="gaussian",
                              trials=50, master_seed=13)
            medians[n] = law_result("rect", cfg).summary["median_abs_dev"]
        assert medians[400] < medians[100]

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            law_trial("rect", TrialConfig(n=100, k=2, m=2, trials=1))


class TestSmallEigenvalueCount:
    def test_no_violations(self):
        cfg = TrialConfig(n=300, k=150, m=150, ensemble="gaussian", eps=0.05,
                          trials=100, master_seed=13)
        res = law_result("small-eig", cfg)
        assert res.bound_violations == 0

    def test_tiny_eps_vacuous(self):
        cfg = TrialConfig(n=100, k=50, m=50, ensemble="gaussian", eps=1e-9,
                          trials=10, master_seed=3)
        res = law_result("small-eig", cfg)
        assert res.bound > 1.0  # the bound exceeds the whole spectrum fraction
        assert res.bound_violations == 0

    def test_count_monotone_in_eps(self):
        from subnyq.samplers import EnsembleSpec, draw_matrix

        a = draw_matrix(EnsembleSpec("gaussian", 60, 120, 17))
        lam = np.linalg.eigvalsh((a @ a.T) / 120)
        counts = [int(np.sum(lam < eps)) for eps in (0.01, 0.05, 0.2, 1.0, 5.0)]
        assert all(b >= a_ for a_, b in zip(counts, counts[1:]))

    def test_gaussian_only(self):
        with pytest.raises(ValueError):
            law_trial("small-eig", TrialConfig(n=100, k=50, m=50, ensemble="rademacher", trials=1))


class TestWishartMinor:
    def test_closed_form_value(self):
        # alpha = 0.5, beta = 0.2: the four terms cancel exactly
        val = wishart_minor_limit(0.5, 0.2)
        expected = (
            -0.3 * math.log(0.3) + 0.5 * math.log(0.5)
            + 0.3 * math.log(0.6) - 0.2 * math.log(0.5)
        )
        assert val == pytest.approx(expected, abs=1e-15)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_vanishes_at_small_beta(self):
        assert abs(wishart_minor_limit(0.5, 0.01)) < 0.08

    def test_median_above_limit_minus_slack(self):
        cfg = TrialConfig(n=200, k=40, m=100, ensemble="gaussian", eps=0.01,
                          trials=50, master_seed=17)
        res = law_result("wishart-minor", cfg)
        assert res.summary["median_stat"] >= res.reference - 0.15
        assert res.bound == pytest.approx(1.0 / math.sqrt(200))
        assert res.passed

    def test_ratio_preconditions(self):
        with pytest.raises(ValueError):
            law_trial("wishart-minor", TrialConfig(n=100, k=45, m=50, trials=1))

    def test_rank_floor_on_the_wishart_factor(self, monkeypatch):
        # a draw whose B-factor columns are rank deficient is resampled once,
        # on the flipped key, by the one rank floor of _draw_full_rank
        cfg = TrialConfig(n=20, k=4, m=10, eps=0.01, trials=3, master_seed=2)
        real = experiments.draw_matrix

        def factor_singular_first(spec):
            mat = real(spec)
            if spec.seed == derive_trial_seed(cfg.master_seed, 1):
                mat[:, cfg.k :] = 0.0
            return mat

        plain = law_trial("wishart-minor", cfg)
        monkeypatch.setattr(experiments, "draw_matrix", factor_singular_first)
        got = law_trial("wishart-minor", cfg).per_trial["stat"]
        redrawn = law_trial("wishart-minor", TrialConfig(
            n=20, k=4, m=10, eps=0.01, trials=1,
            master_seed=derive_trial_seed(cfg.master_seed, 1) ^ RESAMPLE_KEY_FLIP,
        )).per_trial["stat"][0]
        assert got == (plain.per_trial["stat"][0], redrawn, plain.per_trial["stat"][2])


# law, configuration and sha256 of json.dumps([summary, per_trial], sort_keys=True)
# at every configuration the dense-law tests run
LAW_PINS = {
    "square-gaussian": (
        "square", dict(n=100, k=100, m=100, ensemble="gaussian", eps=0.1, trials=200,
                       master_seed=5),
        "258e70d281c36c527047bb4aa6f52ec8df9453a06fdf82c730617ebc1ed20696",
    ),
    "square-rademacher": (
        "square", dict(n=100, k=100, m=100, ensemble="rademacher", eps=0.1, trials=200,
                       master_seed=5),
        "ff346466f770436204f0395d26820baed00e44364e7f07122d719b0c4d68a7f8",
    ),
    "square-k50": (
        "square", dict(n=50, k=50, m=50, ensemble="gaussian", eps=0.1, trials=150,
                       master_seed=5),
        "3c7d84b0675eb1bbb6949a1ef946aff32580c551f1c4c80fe00e918baaa2f1fb",
    ),
    "square-k200": (
        "square", dict(n=200, k=200, m=200, ensemble="gaussian", eps=0.1, trials=150,
                       master_seed=5),
        "0e6a4e7c3eb41ac53256fe058a181aa591a39c8375fdaa9fac690e97b1d2d32f",
    ),
    "rect-n400": (
        "rect", dict(n=400, k=200, m=200, ensemble="gaussian", trials=100, master_seed=11,
                     failure_budget=5),
        "37d79c61a0f8e2e023e0f54f26f0e0624a4849c5d314989c95f460e041fbba11",
    ),
    "rect-n100-seed13": (
        "rect", dict(n=100, k=50, m=50, ensemble="gaussian", trials=50, master_seed=13),
        "1750b03efaa3149c03e89b5aa252ccf3bc5ed41d9b8487631ef45950e29c2539",
    ),
    "rect-n400-seed13": (
        "rect", dict(n=400, k=200, m=200, ensemble="gaussian", trials=50, master_seed=13),
        "a08f9b59bb5fd1697c34d4ed99cfad2e05d843980edbb1a711a7b96c33e38636",
    ),
    "small-eig": (
        "small-eig", dict(n=300, k=150, m=150, ensemble="gaussian", eps=0.05, trials=100,
                          master_seed=13),
        "cf3e1ec699250634d1ab404e720710a65f412de3097864162a33895ce085c70c",
    ),
    "small-eig-tiny-eps": (
        "small-eig", dict(n=100, k=50, m=50, ensemble="gaussian", eps=1e-9, trials=10,
                          master_seed=3),
        "ed69aff14e439a72d4cdc8044298c0da7c224f672a5e9e287d42d10b992715e5",
    ),
    "wishart-minor": (
        "wishart-minor", dict(n=200, k=40, m=100, ensemble="gaussian", eps=0.01, trials=50,
                              master_seed=17),
        "ac5f7f43787658a23b54a13b49aad9420bb5a8d2bf9c328b01fb66fa751488b6",
    ),
}


class TestLawPins:
    """Every dense law's per-trial series and summary, bit for bit."""

    @pytest.mark.parametrize("name", sorted(LAW_PINS))
    def test_summary_and_per_trial_sha256(self, name):
        law, kwargs, digest = LAW_PINS[name]
        res = law_result(law, TrialConfig(**kwargs))
        payload = json.dumps([res.summary, res.per_trial], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestLawTable:
    # one configuration inside every law's hypotheses
    CFG = dict(n=200, k=40, m=100, eps=0.05, trials=1)

    def test_result_names(self):
        assert {law: entry.name for law, entry in LAWS.items()} == {
            "square": "logdet_concentration",
            "rect": "rect_logdet",
            "small-eig": "small_eigenvalue_count",
            "wishart-minor": "wishart_minor",
        }

    # wishart-minor used to run gaussian draws whatever the ensemble
    @pytest.mark.parametrize("law, allowed", [
        ("square", ENSEMBLE_KINDS), ("rect", ENSEMBLE_KINDS),
        ("small-eig", ("gaussian",)), ("wishart-minor", ("gaussian",)),
    ])
    def test_ensembles(self, law, allowed):
        for kind in ENSEMBLE_KINDS + ("cauchy",):
            cfg = TrialConfig(ensemble=kind, **self.CFG)
            if kind in allowed:
                assert law_trial(law, cfg).trials == 1
            else:
                with pytest.raises(ValueError, match=f"the {law} law is stated for"):
                    law_trial(law, cfg)

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown law"):
            law_trial("cubic", TrialConfig(**self.CFG))


class TestInverseWishartTrace:
    def test_wide_ratio(self):
        ratio = inverse_wishart_trace_trial(5, 50, 10_000, seed=19)
        assert 0.97 <= ratio <= 1.03

    def test_scalar_case(self):
        # m=1, n=10: trace is an inverse chi-square with mean 1/(n-2)
        ratio = inverse_wishart_trace_trial(1, 10, 20_000, seed=23)
        assert ratio == pytest.approx(1.0, abs=0.03)

    def test_near_singular_heavier_tails(self):
        ratio = inverse_wishart_trace_trial(20, 25, 100_000, seed=29)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_degrees_of_freedom_guard(self):
        with pytest.raises(ValueError):
            inverse_wishart_trace_trial(5, 6, 100, seed=0)


class TestLossUniformity:
    def test_nyquist_sampler_zero_spread(self):
        ch = flat_unit_channel(6, 2, snr=100.0)
        cfg = TrialConfig(n=6, k=2, m=6, ensemble="gaussian", trials=1, master_seed=2)
        res = loss_uniformity_report(ch, cfg)
        # m = n: every state loses ~nothing, spread degenerates to 0
        assert res.summary["max_loss"] <= 1e-6
        assert res.summary["spread"] == pytest.approx(0.0, abs=1e-6)

    def test_spread_shrinks_with_n(self):
        ch12 = flat_unit_channel(12, 3, snr=1000.0)
        ch20 = flat_unit_channel(20, 5, snr=1000.0)
        wins = 0
        for s in range(20):
            cfg12 = TrialConfig(n=12, k=3, m=3, trials=1, master_seed=s)
            cfg20 = TrialConfig(n=20, k=5, m=5, trials=1, master_seed=s)
            r12 = loss_uniformity_report(ch12, cfg12)
            r20 = loss_uniformity_report(ch20, cfg20)
            wins += r20.summary["spread"] < r12.summary["spread"]
        assert wins >= 16  # >= 80% of 20 paired seeds

    def test_adversarial_sampler_maximal_spread(self):
        # a sampler reading only subbands 1..m: some states lose everything
        ch = flat_unit_channel(8, 2, snr=100.0)
        cfg = TrialConfig(n=8, k=2, m=2, trials=1, master_seed=0)
        res_random = loss_uniformity_report(ch, cfg)
        from subnyq.capacity import batched_losses
        from subnyq.samplers import make_flat_sampler

        q = np.zeros((2, 8))
        q[0, 0] = q[1, 1] = 1.0
        idx = enumerate_states(8, 2, 10**6)
        c_s, c_eq, _, _ = batched_losses(ch, make_flat_sampler(q), idx, tol=None)
        losses = c_eq - c_s
        spread_adv = (losses.max() - losses.min()) / losses.mean()
        assert losses.max() == pytest.approx(nyquist_row(ch, (3, 4), tol=None)[0], rel=1e-9)
        assert spread_adv > res_random.summary["spread"]

    def test_json_round_trip_excludes_timing(self):
        ch = flat_unit_channel(6, 2, snr=10.0)
        cfg = TrialConfig(n=6, k=2, m=3, trials=1, master_seed=4)
        res = loss_uniformity_report(ch, cfg)
        assert "wall_clock_s" not in res.to_dict()

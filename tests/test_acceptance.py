"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest
from conftest import nyquist_row

from subnyq.capacity import capacity_loss, waterfill_gap_bound, waterfill_level
from subnyq.channel import ChannelState, CompoundChannel
from subnyq.cli import main as cli_main
from subnyq.converse import subset_det_sum, subset_det_sum_closed
from subnyq.experiments import (
    TrialConfig,
    landau_achievability_trial,
    law_trial,
    superlandau_achievability_trial,
    wishart_det_expectation,
)
from subnyq.numerics import binary_entropy, log_binomial, whiten
from subnyq.samplers import EnsembleSpec, derive_trial_seed, draw_matrix, make_flat_sampler

EPS_GRID = (0.0, 0.01, 0.5, 1.0)


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}")


@pytest.fixture(scope="module")
def landau_gaussian():
    cfg = TrialConfig(n=16, k=4, m=4, ensemble="gaussian", eps=0.05,
                      trials=50, master_seed=7)
    return landau_achievability_trial(cfg, workers=2)


@pytest.fixture(scope="module")
def landau_rademacher():
    cfg = TrialConfig(n=16, k=4, m=4, ensemble="rademacher", eps=0.05,
                      trials=50, master_seed=7)
    return landau_achievability_trial(cfg, workers=2)


@pytest.fixture(scope="module")
def superlandau():
    cfg = TrialConfig(n=16, k=4, m=8, ensemble="gaussian", eps=0.05,
                      trials=50, master_seed=7)
    return superlandau_achievability_trial(cfg, workers=2)


def _random_nonflat_channel_state(gen):
    # at least two active cells so water-filling genuinely differs from
    # equal power and the gap sign is meaningful
    n = int(gen.integers(5, 10))
    k = int(gen.integers(2, n // 2 + 1))
    q = int(gen.integers(1, 4))
    ch = CompoundChannel(
        bandwidth=float(gen.uniform(1, 8)), n_subbands=n, k_active=k,
        power=float(gen.uniform(0.5, 20)), gain_grid=gen.uniform(0.5, 2.0, (n, q)),
    )
    st = ChannelState(tuple(sorted(
        gen.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
    )))
    return ch, st


def test_01_exact_converse_identity():
    start = time.perf_counter()
    worst = 0.0
    gen = np.random.Generator(np.random.Philox(key=derive_trial_seed(7, 0xB0)))
    for t in range(20):
        n = int(gen.integers(4, 13))
        m = int(gen.integers(1, n + 1))
        k = int(gen.integers(1, m + 1))
        b = whiten(draw_matrix(EnsembleSpec("gaussian", m, n, derive_trial_seed(7, 0x1000 + t))))
        for eps in EPS_GRID:
            lhs = subset_det_sum(b, k, eps)
            rhs = subset_det_sum_closed(n, k, m, eps)
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(1, "exact-converse-identity", ok, f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_02_deterministic_sandwich(landau_gaussian, superlandau):
    ok = landau_gaussian.bound_violations == 0 and superlandau.bound_violations == 0
    report(
        2, "deterministic-sandwich", ok,
        f"violations landau={landau_gaussian.bound_violations}, "
        f"superlandau={superlandau.bound_violations} of 50 trials each",
    )
    assert landau_gaussian.bound_violations == 0
    assert superlandau.bound_violations == 0


def test_03_landau_target_bracket(landau_gaussian, landau_rademacher):
    start = time.perf_counter()
    target = -0.562335  # -H(0.25)
    dev = abs(landau_gaussian.summary["mean_min"] - target)
    uni = abs(landau_gaussian.summary["mean_min"] - landau_rademacher.summary["mean_min"])
    elapsed = (
        time.perf_counter() - start
        + landau_gaussian.wall_clock_s + landau_rademacher.wall_clock_s
    )
    ok = dev <= 0.15 and uni <= 0.05 and elapsed < 120.0
    report(3, "landau-target-bracket", ok,
           f"|mean_min - target| = {dev:.4f}, universality gap {uni:.4f}, {elapsed:.1f} s")
    assert abs(-binary_entropy(0.25) - target) < 1e-6  # pinned constant
    assert dev <= 0.15
    assert uni <= 0.05
    assert elapsed < 120.0


def test_04_superlandau_target_bracket(superlandau):
    target = -0.215761  # -H(0.25) + 0.5 H(0.5)
    dev = abs(superlandau.summary["mean_min"] - target)
    ok = dev <= 0.2
    report(4, "superlandau-target-bracket", ok, f"|mean_min - target| = {dev:.4f}")
    assert abs(-binary_entropy(0.25) + 0.5 * binary_entropy(0.5) - target) < 1e-6
    assert dev <= 0.2


def test_05_wishart_determinant():
    ratio = wishart_det_expectation(3, 200_000, seed=7)
    ok = 0.95 <= ratio <= 1.05
    report(5, "wishart-determinant", ok, f"E det / 3! = {ratio:.4f}")
    assert 0.95 <= ratio <= 1.05


def test_06_rect_logdet_law():
    cfg = TrialConfig(n=400, k=200, m=200, ensemble="gaussian", trials=100,
                      master_seed=11)
    res = law_trial("rect", cfg)
    within = res.trials - res.bound_violations
    ok = within >= 95
    report(6, "rect-logdet-law", ok,
           f"{within}/100 within 1/sqrt(400) = 0.05 of {res.reference:.6f}")
    assert res.reference == pytest.approx(0.5 * math.log(2.0) - 0.5)
    assert within >= 95


def test_07_water_filling():
    # flat channel: optimum equals equal power
    flat = CompoundChannel(
        bandwidth=6.0, n_subbands=6, k_active=2, power=9.0,
        gain_grid=np.full((6, 3), 1.3),
    )
    st = ChannelState((2, 5))
    c_eq, c_opt, _ = nyquist_row(flat, st.indices)
    flat_dev = abs(c_opt - c_eq)
    flat_bound = waterfill_gap_bound(flat)

    gen = np.random.default_rng(424242)
    min_gap, max_excess, max_resid = math.inf, -math.inf, 0.0
    for _ in range(100):
        ch, state = _random_nonflat_channel_state(gen)
        nu = waterfill_level(ch, state)
        c_eq, c_opt, _ = nyquist_row(ch, state.indices)
        gap = c_opt - c_eq
        min_gap = min(min_gap, gap)
        max_excess = max(max_excess, gap - waterfill_gap_bound(ch))
        inv = 1.0 / ch.gain_grid[state.zero_based(), :] ** 2
        allocated = ch.grid_df * float(np.sum(np.maximum(nu - inv, 0.0)))
        max_resid = max(max_resid, abs(allocated - ch.power) / ch.power)
    ok = (
        flat_dev <= 1e-9 and abs(flat_bound) <= 1e-12
        and min_gap >= 0.0 and max_excess <= 1e-9 and max_resid <= 1e-8
    )
    report(7, "water-filling", ok,
           f"flat dev {flat_dev:.1e}, min gap {min_gap:.1e}, "
           f"max gap-bound excess {max_excess:.1e}, max residual/P {max_resid:.1e}")
    assert flat_dev <= 1e-9
    assert abs(flat_bound) <= 1e-12
    assert min_gap >= 0.0
    assert max_excess <= 1e-9
    assert max_resid <= 1e-8


def test_08_loss_invariants():
    gen = np.random.default_rng(77)
    min_loss = math.inf
    max_scale_dev = 0.0
    max_rot_dev = 0.0
    max_nyquist_loss = 0.0
    for t in range(100):
        ch, state = _random_nonflat_channel_state(gen)
        n = ch.n_subbands
        m = int(gen.integers(1, n + 1))
        q = draw_matrix(EnsembleSpec("gaussian", m, n, derive_trial_seed(2025, t)))
        rep = capacity_loss(ch, make_flat_sampler(q), state)
        min_loss = min(min_loss, rep.loss_eq)
        rep_scaled = capacity_loss(ch, make_flat_sampler(4.2 * q), state)
        max_scale_dev = max(max_scale_dev, abs(rep.loss_eq - rep_scaled.loss_eq))
        rot, _ = np.linalg.qr(gen.standard_normal((m, m)))
        rep_rot = capacity_loss(ch, make_flat_sampler(rot @ q), state)
        max_rot_dev = max(max_rot_dev, abs(rep.loss_eq - rep_rot.loss_eq))
        if t % 10 == 0:
            orth, _ = np.linalg.qr(gen.standard_normal((n, n)))
            rep_nyq = capacity_loss(ch, make_flat_sampler(orth), state)
            max_nyquist_loss = max(max_nyquist_loss, abs(rep_nyq.loss_eq))
    ok = (
        min_loss >= -1e-9 and max_scale_dev <= 1e-8
        and max_rot_dev <= 1e-8 and max_nyquist_loss <= 1e-9
    )
    report(8, "loss-invariants", ok,
           f"min loss {min_loss:.1e}, scale dev {max_scale_dev:.1e}, "
           f"rotation dev {max_rot_dev:.1e}, nyquist loss {max_nyquist_loss:.1e}")
    assert min_loss >= -1e-9
    assert max_scale_dev <= 1e-8
    assert max_rot_dev <= 1e-8
    assert max_nyquist_loss <= 1e-9


def test_09_entropy_sandwich():
    holds = True
    for n in range(2, 61):
        for k in range(1, n):
            val = log_binomial(n, k) / n
            h = binary_entropy(k / n)
            if not (h - math.log(n + 1) / n <= val <= h):
                holds = False
    report(9, "entropy-sandwich", holds, "all 1 <= k < n <= 60")
    assert holds


def test_10_sweep_golden(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli_main([
        "--command", "sweep", "--betas", "0.5", "--alphas", "0.5,1.0",
        "--out", str(out),
    ])
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    val = float(lines[1].split(";")[2])
    alpha1 = [line.split(";") for line in lines[1:] if float(line.split(";")[1]) == 1.0]
    zeros = all(float(cells[2]) == 0.0 for cells in alpha1)
    ok = code == 0 and abs(val - 0.346574) <= 1e-6 and zeros
    report(10, "sweep-golden", ok, f"loss(0.5, 0.5) = {val:.6f}, alpha=1 zeros: {zeros}")
    assert code == 0
    assert abs(val - 0.346574) <= 1e-6
    assert zeros


def test_11_determinism(tmp_path, capsys):
    args = ["--command", "achievability", "--n", "16", "--k", "4", "--m", "4",
            "--trials", "50", "--seed", "7"]
    paths = [tmp_path / name for name in ("a.json", "b.json", "w1.json", "w8.json")]
    cli_main(args + ["--out", str(paths[0])])
    cli_main(args + ["--out", str(paths[1])])
    cli_main(args + ["--workers", "1", "--out", str(paths[2])])
    cli_main(args + ["--workers", "8", "--out", str(paths[3])])
    sweep_a, sweep_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    sweep_args = ["--command", "sweep", "--betas", "0.1,0.5", "--alphas", "0.5,1.0"]
    cli_main(sweep_args + ["--out", str(sweep_a)])
    cli_main(sweep_args + ["--out", str(sweep_b)])
    capsys.readouterr()
    repeat_same = paths[0].read_bytes() == paths[1].read_bytes()
    workers_same = paths[2].read_bytes() == paths[3].read_bytes()
    sweep_same = sweep_a.read_bytes() == sweep_b.read_bytes()
    ok = repeat_same and workers_same and sweep_same
    report(11, "determinism", ok,
           f"repeat={repeat_same}, workers 1 vs 8={workers_same}, sweep={sweep_same}")
    assert repeat_same
    assert workers_same
    assert sweep_same

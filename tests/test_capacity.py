import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import eigh_shapes, nyquist_row, random_channel, spy, state_grid
from hypothesis import given, settings
from hypothesis import strategies as st

from subnyq import capacity, numerics
from subnyq.capacity import (
    batched_losses,
    capacity_loss,
    discrete_loss,
    discrete_losses,
    loss_csv_rows,
    sampled_capacity,
    waterfill_gap_bound,
    waterfill_level,
)
from subnyq.channel import (
    ChannelState,
    CompoundChannel,
    enumerate_states,
    snr_summary,
)
from subnyq.cli import main as cli_main
from subnyq.experiments import TrialConfig, loss_uniformity_report
from subnyq.numerics import (
    NumericalError, SingularityError, binary_entropy, colex_indices, colex_plan
)
from subnyq.samplers import EnsembleSpec, draw_matrix, make_flat_sampler, make_gridded_sampler


def bisect_level(inv_snr: np.ndarray, power: float, df: float) -> float:
    """Reference water level by bisection on the allocated power, run until
    the bracket cannot shrink further (the iterative solver the exact one
    replaced, without its early stop)."""
    def allocated(nu):
        return df * float(np.sum(np.maximum(nu - inv_snr, 0.0)))

    lo = float(np.min(inv_snr))
    hi = lo + power / df
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if allocated(mid) > power:
            hi = mid
        else:
            lo = mid
    return min((lo, hi), key=lambda nu: abs(allocated(nu) - power))


def reference_losses(gains, panels, idx, scale, power, df):
    """(c_sampled, c_eq, c_opt, nu) of one state, straight from the formulas.

    Independent of the batched path: SVD whitening U V^T of each panel, one
    m x m determinant per grid cell, bisection for the water level.
    """
    g = gains[idx, :]  # (k, q)
    total = 0.0
    for j in range(g.shape[1]):
        u, _, vt = np.linalg.svd(panels[0 if len(panels) == 1 else j], full_matrices=False)
        qs = (u @ vt)[:, idx]
        total += np.linalg.slogdet(np.eye(qs.shape[0]) + scale * (qs * g[:, j] ** 2) @ qs.T)[1]
    h2 = g**2
    nu = bisect_level(1.0 / h2, power, df)
    c_eq = 0.5 * df * float(np.sum(np.log1p(scale * h2)))
    c_opt = 0.5 * df * float(np.sum(np.log(np.maximum(nu * h2, 1.0))))
    return 0.5 * df * total, c_eq, c_opt, nu


def assert_rows_match(rows, idx, want_of):
    """CSV rows in the order of the zero-based index block idx, each column
    within 1e-10 of its reference."""
    assert [r.split(";")[0] for r in rows] == ["|".join(map(str, s)) for s in (idx + 1).tolist()]
    for row, state in zip(rows, idx):
        got = [float(c) for c in row.split(";")[1:7]]
        c_s, c_eq, c_opt, nu = want_of(state)
        want = [c_s, c_eq, c_opt, c_eq - c_s, c_opt - c_s, nu]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10), row


def flat_channel(n=4, k=2, w=4.0, p=6.0, q=1, gain=1.0):
    return CompoundChannel(
        bandwidth=w, n_subbands=n, k_active=k, power=p,
        gain_grid=np.full((n, q), gain),
    )


class TestSampledCapacity:
    def test_single_branch_matched(self):
        # W=2, n=2, k=1, P=1: sampling the active subband gives 0.5 log 2
        ch = flat_channel(n=2, k=1, w=2.0, p=1.0)
        samp = make_flat_sampler(np.array([[1.0, 0.0]]))
        c = sampled_capacity(ch, samp, ChannelState((1,)))
        assert c == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_single_branch_orthogonal_to_support(self):
        ch = flat_channel(n=2, k=1, w=2.0, p=1.0)
        samp = make_flat_sampler(np.array([[1.0, 0.0]]))
        assert sampled_capacity(ch, samp, ChannelState((2,))) == pytest.approx(0.0, abs=1e-12)

    def test_nyquist_orthogonal_equals_equal_power(self, gen):
        for _ in range(5):
            ch = random_channel(gen)
            n = ch.n_subbands
            q_mat, _ = np.linalg.qr(gen.standard_normal((n, n)))
            samp = make_flat_sampler(q_mat)
            state = ChannelState(tuple(sorted(
                gen.choice(np.arange(1, n + 1), size=ch.k_active, replace=False).tolist()
            )))
            c_s = sampled_capacity(ch, samp, state)
            c_eq = nyquist_row(ch, state.indices, tol=None)[0]
            assert c_s == pytest.approx(c_eq, abs=1e-9)

    def test_dimension_mismatch(self):
        ch = flat_channel(n=4, k=2)
        samp = make_flat_sampler(np.eye(3))  # 3 columns != 4 subbands
        with pytest.raises(ValueError):
            sampled_capacity(ch, samp, ChannelState((1, 2)))

    def test_gridded_sampler_panel_count(self):
        ch = flat_channel(n=4, k=2, q=2)
        from subnyq.samplers import make_gridded_sampler

        panels3 = [draw_matrix(EnsembleSpec("gaussian", 2, 4, s)) for s in (1, 2, 3)]
        with pytest.raises(ValueError):
            sampled_capacity(ch, make_gridded_sampler(panels3), ChannelState((1, 2)))
        panels2 = panels3[:2]
        val = sampled_capacity(ch, make_gridded_sampler(panels2), ChannelState((1, 2)))
        assert np.isfinite(val) and val > 0


class TestNyquistCapacity:
    def test_flat_closed_form(self):
        ch = flat_channel(n=4, k=2, w=4.0, p=6.0, q=3)
        state = ChannelState((2, 4))
        snr = ch.power / (ch.beta * ch.bandwidth)
        closed = ch.beta * ch.bandwidth / 2 * math.log1p(snr)
        assert nyquist_row(ch, state.indices, tol=None)[0] == pytest.approx(closed, rel=1e-12)

    def test_zero_power_limit(self):
        ch = flat_channel(p=1e-300)
        assert nyquist_row(ch, (1, 2), tol=None)[0] == pytest.approx(0.0, abs=1e-290)

    def test_two_gain_closed_form(self):
        # diag gains {1, 2}, k=2, q=1, W=n=4
        ch = CompoundChannel(
            bandwidth=4.0, n_subbands=4, k_active=2, power=3.0,
            gain_grid=np.array([[1.0], [2.0], [1.0], [1.0]]),
        )
        state = ChannelState((1, 2))
        snr = ch.power / (ch.beta * ch.bandwidth)
        closed = 0.5 * (math.log1p(snr) + math.log1p(4 * snr)) * (ch.bandwidth / ch.n_subbands)
        assert nyquist_row(ch, state.indices, tol=None)[0] == pytest.approx(closed, rel=1e-12)

    def test_monotone_in_power(self, gen):
        ch = random_channel(gen)
        state = ChannelState(tuple(range(1, ch.k_active + 1)))
        samp = make_flat_sampler(draw_matrix(
            EnsembleSpec("gaussian", ch.k_active, ch.n_subbands, 8)
        ))
        prev_eq, prev_s = -1.0, -1.0
        for p in (0.1, 1.0, 5.0, 25.0):
            ch_p = CompoundChannel(
                bandwidth=ch.bandwidth, n_subbands=ch.n_subbands,
                k_active=ch.k_active, power=p, gain_grid=ch.gain_grid,
            )
            c_eq = nyquist_row(ch_p, state.indices, tol=None)[0]
            c_s = sampled_capacity(ch_p, samp, state)
            assert c_eq >= prev_eq and c_s >= prev_s - 1e-12
            prev_eq, prev_s = c_eq, c_s


@st.composite
def waterfill_cases(draw):
    """A channel and its state (1..k) whose k x q active cells are random,
    tied, flat, or one strong cell among unit gains at low power."""
    k = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    n = k + draw(st.integers(1, 3))
    cells = k * q
    kind = draw(st.sampled_from(["random", "ties", "flat", "dominant"]))
    if kind == "random":
        active = draw(st.lists(st.floats(0.3, 3.0), min_size=cells, max_size=cells))
    elif kind == "ties":
        active = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=cells, max_size=cells))
    elif kind == "flat":
        active = [draw(st.floats(0.3, 3.0))] * cells
    else:
        active = [1.0] * cells
        active[draw(st.integers(0, cells - 1))] = 1e3
    power = draw(st.floats(1e-3, 0.5) if kind == "dominant" else st.floats(0.1, 100.0))
    grid = np.ones((n, q))
    grid[:k, :] = np.reshape(active, (k, q))
    ch = CompoundChannel(
        bandwidth=draw(st.floats(1.0, 10.0)), n_subbands=n, k_active=k,
        power=power, gain_grid=grid,
    )
    return ch, ChannelState(tuple(range(1, k + 1)))


class TestWaterfilling:
    def test_flat_level(self):
        h = 1.4
        ch = flat_channel(n=4, k=2, w=4.0, p=6.0, gain=h)
        nu = waterfill_level(ch, ChannelState((1, 3)))
        assert nu == pytest.approx(1 / h**2 + ch.power / (ch.beta * ch.bandwidth), rel=1e-9)

    def test_flat_equals_equal_power(self):
        ch = flat_channel(n=6, k=3, w=3.0, p=2.0, q=2, gain=0.8)
        state = ChannelState((1, 4, 6))
        c_eq, c_opt, _ = nyquist_row(ch, state.indices)
        assert abs(c_opt - c_eq) <= 1e-9

    def test_strong_subband_only(self):
        # gains {1, 1e6} on the two active subbands, tiny P: the water stays
        # below the weak subband, only the strong one fills
        ch = CompoundChannel(
            bandwidth=3.0, n_subbands=3, k_active=2, power=1e-3,
            gain_grid=np.array([[1.0], [1e6], [1.0]]),
        )
        state = ChannelState((1, 2))
        nu = waterfill_level(ch, state, tol=1e-12)
        assert nu < 1.0 + 1e-6
        # closed-form check: only the strong cell fills, measure W/n
        expected = 1e-12 + ch.power / (ch.bandwidth / ch.n_subbands)
        assert nu == pytest.approx(expected, rel=1e-6)
        c_opt = nyquist_row(ch, state.indices)[1]
        cell = ch.bandwidth / ch.n_subbands
        assert c_opt == pytest.approx(0.5 * cell * math.log(nu * 1e12), rel=1e-6)

    def test_power_residual(self, gen):
        for _ in range(10):
            ch = random_channel(gen)
            state = ChannelState(tuple(range(1, ch.k_active + 1)))
            tol = 1e-8
            nu = waterfill_level(ch, state, tol=tol)
            idx = state.zero_based()
            inv = 1.0 / ch.gain_grid[idx, :] ** 2
            allocated = ch.grid_df * float(np.sum(np.maximum(nu - inv, 0.0)))
            assert abs(allocated - ch.power) <= tol * ch.power

    def test_dominance_and_gap_bound(self, gen):
        for _ in range(25):
            ch = random_channel(gen)
            state = ChannelState(tuple(range(1, ch.k_active + 1)))
            c_eq, c_opt, _ = nyquist_row(ch, state.indices)
            bound = waterfill_gap_bound(ch)
            assert c_opt >= c_eq - 1e-9
            assert c_opt - c_eq <= bound + 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=waterfill_cases())
    def test_exact_level_matches_bisection(self, case):
        ch, state = case
        tol = 1e-11
        nu = waterfill_level(ch, state, tol=tol)
        inv = 1.0 / ch.gain_grid[state.zero_based(), :] ** 2
        assert nu == pytest.approx(bisect_level(inv, ch.power, ch.grid_df), rel=1e-12)
        allocated = ch.grid_df * float(np.sum(np.maximum(nu - inv, 0.0)))
        assert abs(allocated - ch.power) <= tol * ch.power

    def test_gap_bound_flat_is_zero(self):
        ch = flat_channel(gain=1.9)
        assert waterfill_gap_bound(ch) == pytest.approx(0.0, abs=1e-12)

    def test_gap_bound_decays_with_snr(self):
        # same gain shape, growing power: bound ~ 1/SNR_min
        gains = np.array([[1.0], [2.0], [1.5], [1.0]])
        bounds = []
        for p in (1.0, 10.0, 100.0, 1000.0):
            ch = CompoundChannel(
                bandwidth=4.0, n_subbands=4, k_active=2, power=p, gain_grid=gains
            )
            bounds.append(waterfill_gap_bound(ch))
        assert all(b > n for b, n in zip(bounds, bounds[1:]))
        snr1 = snr_summary(CompoundChannel(
            bandwidth=4.0, n_subbands=4, k_active=2, power=1000.0, gain_grid=gains
        )).snr_min
        # at high SNR the bound behaves like W beta (A-1) / SNR_min
        assert bounds[-1] == pytest.approx(
            4.0 * 0.5 * (snr_summary(CompoundChannel(
                bandwidth=4.0, n_subbands=4, k_active=2, power=1000.0, gain_grid=gains
            )).snr_avg_max - 1.0) / (1.0 + snr1),
            rel=1e-12,
        )


class TestCapacityLoss:
    def test_nyquist_orthogonal_zero_loss(self, gen):
        ch = random_channel(gen)
        n = ch.n_subbands
        q_mat, _ = np.linalg.qr(gen.standard_normal((n, n)))
        rep = capacity_loss(ch, make_flat_sampler(q_mat), ChannelState(tuple(range(1, ch.k_active + 1))))
        assert abs(rep.loss_eq) <= 1e-9

    def test_orthogonal_to_support_full_loss(self):
        ch = flat_channel(n=2, k=1, w=2.0, p=1.0)
        samp = make_flat_sampler(np.array([[1.0, 0.0]]))
        rep = capacity_loss(ch, samp, ChannelState((2,)))
        assert rep.loss_eq == pytest.approx(rep.c_nyquist_eq, rel=1e-12)

    def test_loss_nonnegative_sub_sampling_never_gains(self, gen):
        for t in range(30):
            ch = random_channel(gen)
            m = int(gen.integers(1, ch.n_subbands))
            samp = make_flat_sampler(draw_matrix(
                EnsembleSpec("gaussian", m, ch.n_subbands, 1000 + t)
            ))
            state = ChannelState(tuple(sorted(
                gen.choice(np.arange(1, ch.n_subbands + 1), size=ch.k_active, replace=False).tolist()
            )))
            rep = capacity_loss(ch, samp, state)
            assert rep.loss_eq >= -1e-9
            assert rep.c_sampled <= rep.c_nyquist_eq + 1e-9
            assert rep.c_nyquist_opt >= rep.c_nyquist_eq - 1e-9

    def test_sampler_scale_invariance(self, gen):
        ch = random_channel(gen)
        q = draw_matrix(EnsembleSpec("gaussian", 2, ch.n_subbands, 55))
        state = ChannelState(tuple(range(1, ch.k_active + 1)))
        rep1 = capacity_loss(ch, make_flat_sampler(q), state)
        rep2 = capacity_loss(ch, make_flat_sampler(3.7 * q), state)
        assert rep1.loss_eq == pytest.approx(rep2.loss_eq, abs=1e-8)
        assert rep1.c_sampled == pytest.approx(rep2.c_sampled, abs=1e-8)

    def test_row_rotation_invariance(self, gen):
        ch = random_channel(gen)
        m = 3 if ch.n_subbands > 3 else 2
        q = draw_matrix(EnsembleSpec("gaussian", m, ch.n_subbands, 56))
        rot, _ = np.linalg.qr(gen.standard_normal((m, m)))
        state = ChannelState(tuple(range(1, ch.k_active + 1)))
        rep1 = capacity_loss(ch, make_flat_sampler(q), state)
        rep2 = capacity_loss(ch, make_flat_sampler(rot @ q), state)
        assert rep1.c_sampled == pytest.approx(rep2.c_sampled, abs=1e-8)
        assert rep1.loss_eq == pytest.approx(rep2.loss_eq, abs=1e-8)
        assert rep1.loss_opt == pytest.approx(rep2.loss_opt, abs=1e-8)

    def test_csv_rows(self):
        ch = flat_channel(n=2, k=1, w=2.0, p=1.0)
        samp = make_flat_sampler(np.array([[1.0, 0.0]]))
        rep = capacity_loss(ch, samp, ChannelState((1,)))
        rows = loss_csv_rows([rep])
        assert rows[0].startswith("state;c_sampled")
        assert rows[1].startswith("1;")
        rows_bits = loss_csv_rows([rep], bits=True)
        assert rows_bits[0].endswith(";loss_eq_bits")
        loss_bits = float(rows_bits[1].split(";")[-1])
        assert loss_bits == pytest.approx(rep.loss_eq / math.log(2.0), abs=1e-9)


class TestWorstCaseLoss:
    """The equal-power loss c_eq - c_sampled of a census or a one-row block,
    and its maximum over the states."""

    def test_single_state(self):
        ch = flat_channel(n=4, k=2)
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, 4, 3)))
        c_s, c_eq, _, _ = batched_losses(ch, samp, [[0, 2]], tol=None)
        rep = capacity_loss(ch, samp, ChannelState((1, 3)))
        assert float(c_eq[0] - c_s[0]) == pytest.approx(rep.loss_eq, abs=1e-10)

    def test_identity_sampler_argmax_outside_coverage(self):
        # sampler reads subbands {1, 2}; worst states avoid them entirely,
        # and the first maximum in colex order, the colex-smallest, is {3, 4}
        ch = CompoundChannel(
            bandwidth=6.0, n_subbands=6, k_active=2, power=6.0,
            gain_grid=np.ones((6, 1)),
        )
        q = np.zeros((2, 6))
        q[0, 0] = q[1, 1] = 1.0
        idx = enumerate_states(6, 2, 100)
        c_s, c_eq, _, _ = batched_losses(ch, make_flat_sampler(q), idx, tol=None)
        losses = c_eq - c_s
        best = int(np.argmax(losses))
        assert tuple(idx[best] + 1) == (3, 4)
        assert losses[best] == pytest.approx(nyquist_row(ch, (3, 4), tol=None)[0], rel=1e-12)

    def test_spread_shrinks_with_n(self):
        # max-min spread of per-state losses narrows from n=8 to n=16
        spreads = {}
        for n, k in ((8, 2), (16, 4)):
            ch = CompoundChannel(
                bandwidth=float(n), n_subbands=n, k_active=k, power=k * 1000.0,
                gain_grid=np.ones((n, 1)),
            )
            samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", k, n, 5)))
            c_s, c_eq, _, _ = batched_losses(ch, samp, colex_indices(n, k), tol=None)
            per = c_eq - c_s
            spreads[n] = float((per.max() - per.min()) / per.mean())
        assert spreads[16] < spreads[8]

    def test_gaussian_losses_bracket_entropy_rate(self):
        # flat high-SNR channel, n=16, k=m=4: per-Hz equal-power losses of a
        # gaussian sampler concentrate near H(0.25)/2, and the worst state
        # clears the converse floor
        from subnyq.converse import minimax_lower_bound

        n, k = 16, 4
        snr = 1e4
        ch = CompoundChannel(
            bandwidth=float(n), n_subbands=n, k_active=k, power=k * snr,
            gain_grid=np.ones((n, 1)),
        )
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", k, n, 7)))
        c_s, c_eq, _, _ = batched_losses(ch, samp, colex_indices(n, k), tol=None)
        per_hz = (c_eq - c_s) / ch.bandwidth
        assert abs(float(per_hz.mean()) - binary_entropy(0.25) / 2) <= 0.15
        floor = minimax_lower_bound(n, k, k, snr_min=snr, bandwidth=1.0)
        assert float(per_hz.max()) >= floor - 1e-9

    def test_batched_matches_scalar_path(self, gen):
        ch = random_channel(gen)
        m = max(2, ch.k_active)
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", m, ch.n_subbands, 77)))
        idx = enumerate_states(ch.n_subbands, ch.k_active, 50)
        c_s, c_eq, _, _ = batched_losses(ch, samp, idx, tol=None)
        for row, loss in zip(idx, c_eq - c_s):
            rep = capacity_loss(ch, samp, ChannelState(tuple(row + 1)))
            assert loss == pytest.approx(rep.loss_eq, abs=1e-10)


class TestBatchedPath:
    @pytest.mark.parametrize("m, k", [(3, 2), (2, 3)])  # k x k and m x m Grams
    def test_gridded_sampler_and_state_gains_match_reference(self, m, k):
        gen = np.random.default_rng(5)
        n, q = 6, 3
        overrides = {(1, 3, 5)[:k]: gen.uniform(0.5, 2.0, (n, q)),
                     (2, 4, 6)[:k]: gen.uniform(0.5, 2.0, (n, q))}
        ch = CompoundChannel(
            bandwidth=5.0, n_subbands=n, k_active=k, power=7.0,
            gain_grid=gen.uniform(0.5, 2.0, (n, q)), state_gains=overrides,
        )
        panels = [draw_matrix(EnsembleSpec("gaussian", m, n, s)) for s in (1, 2, 3)]
        idx = enumerate_states(n, k, 100)
        got = np.stack(batched_losses(ch, make_gridded_sampler(panels), idx))
        scale = ch.power / (ch.beta * ch.bandwidth)
        for row, state in enumerate(idx):
            want = reference_losses(
                state_grid(ch, state), panels, state, scale, ch.power, ch.grid_df
            )
            assert got[:, row] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_blocking_does_not_change_values(self, gen, monkeypatch):
        ch = random_channel(gen)
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, ch.n_subbands, 9)))
        idx = enumerate_states(ch.n_subbands, ch.k_active, 100)
        whole = np.stack(batched_losses(ch, samp, idx))
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 1)  # one state per block
        monkeypatch.setattr(capacity, "_NYQUIST_BLOCK_CELLS", 1)
        assert np.stack(batched_losses(ch, samp, idx)) == pytest.approx(whole, rel=1e-13)

    def test_index_block_validation(self):
        ch = flat_channel(n=4, k=2)
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, 4, 1)))
        for bad in ([[0, 1, 2]], [[1, 0]], [[0, 4]], [[-1, 2]], np.empty((0, 2), int), [[0.0, 1.0]]):
            with pytest.raises(ValueError):
                batched_losses(ch, samp, bad)
        with pytest.raises(ValueError):
            batched_losses(ch, samp, [[0, 1]], tol=0.0)

    def test_capacity_cli_state_gains_rows(self, tmp_path, capsys):
        gen = np.random.default_rng(11)
        n, k, q, m, seed = 7, 3, 2, 4, 21
        doc = {
            "W": 7.0, "n": n, "k": k, "P": 12.0, "q": q,
            "gains": gen.uniform(0.4, 2.5, (n, q)).tolist(),
            "state_gains": {key: gen.uniform(0.4, 2.5, (n, q)).tolist()
                            for key in ("1,2,3", "2,5,7", "5,6,7")},
        }
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(doc))
        out = tmp_path / "cap.csv"
        assert cli_main(["--command", "capacity", "--channel", str(ch_path), "--m", str(m),
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert "sampled state set" not in capsys.readouterr().out
        ch = CompoundChannel.from_dict(doc)
        panels = [draw_matrix(EnsembleSpec("gaussian", m, n, seed))]
        scale = ch.power / (ch.beta * ch.bandwidth)
        assert_rows_match(
            out.read_text().splitlines()[1:],
            enumerate_states(n, k, 10**6),
            lambda s: reference_losses(state_grid(ch, s), panels, s, scale, ch.power, ch.grid_df),
        )

    def test_discrete_cli_sampled_states(self, tmp_path, capsys):
        n, k, m, power, seed, cap = 12, 3, 4, 5.0, 8, 30  # C(12, 3) = 220 > cap
        out = tmp_path / "disc.csv"
        assert cli_main(["--command", "discrete", "--n", str(n), "--k", str(k), "--m", str(m),
                         "--power", str(power), "--state-cap", str(cap), "--seed", str(seed),
                         "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith(f"discrete: {cap} states, max loss_eq ")
        assert summary.rstrip().endswith("nats per use, sampled state set")
        states = enumerate_states(n, k, cap)
        assert len(states) < math.comb(n, k)  # a sample, not a census
        keys = [row[::-1] for row in states.tolist()]  # colex: compare largest first
        assert keys == sorted(keys)
        panels = [draw_matrix(EnsembleSpec("gaussian", m, n, seed))]
        assert_rows_match(
            out.read_text().splitlines()[1:],
            states,
            lambda s: reference_losses(np.ones((n, 1)), panels, s, power / k, power, 1.0),
        )

    def test_discrete_cli_census_not_flagged(self, tmp_path, capsys):
        out = tmp_path / "disc.csv"
        assert cli_main(["--command", "discrete", "--n", "6", "--k", "2", "--m", "2",
                         "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("discrete: 15 states, max loss_eq ")
        assert "sampled" not in summary

    def test_discrete_batched_matches_single_state(self):
        gains = np.array([1.0, 0.5, 2.0, 1.5, 0.8])
        q = draw_matrix(EnsembleSpec("gaussian", 3, 5, 2))
        idx = enumerate_states(5, 2, 100)
        got = np.stack(discrete_losses(gains, q, idx, 3.0))
        for row, state in enumerate(idx):
            rep = discrete_loss(gains, q, ChannelState(tuple(state + 1)), 3.0)
            assert got[:, row] == pytest.approx(
                [rep.c_sampled, rep.c_nyquist_eq, rep.c_nyquist_opt, rep.water_level],
                rel=1e-13,
            )


def naive_c_sampled(gains, panels, idx, scale, df):
    """c_sampled of one state from its k x k matrices I_k + A^T A, A the
    SVD-whitened columns times sqrt(scale) H; unlike the m x m form of
    `reference_losses`, accurate for gains far from 1."""
    g = gains[idx, :]
    total = 0.0
    for j in range(g.shape[1]):
        u, _, vt = np.linalg.svd(panels[0 if len(panels) == 1 else j], full_matrices=False)
        a = (u @ vt)[:, idx] * (math.sqrt(scale) * g[:, j])
        total += np.linalg.slogdet(np.eye(len(idx)) + a.T @ a)[1]
    return 0.5 * df * total


def census_case(seed, n, k, m, q, gridded, overrides, decades=0.2):
    """A channel with log-uniform gains and `overrides` states with their own
    gains, its sampler and panels, and all of its states."""
    rng = np.random.default_rng(seed)
    idx = colex_indices(n, k)
    picked = rng.choice(len(idx), min(overrides, len(idx)), replace=False)
    state_gains = {tuple((idx[r] + 1).tolist()): 10.0 ** rng.uniform(-decades, decades, (n, q))
                   for r in picked}
    ch = CompoundChannel(
        bandwidth=4.0, n_subbands=n, k_active=k, power=4.0 * k / n,  # P/(beta W) = 1
        gain_grid=10.0 ** rng.uniform(-decades, decades, (n, q)), state_gains=state_gains or None,
    )
    panels = [draw_matrix(EnsembleSpec("gaussian", m, n, seed + j)) for j in range(q if gridded else 1)]
    sampler = make_gridded_sampler(panels) if gridded else make_flat_sampler(panels[0])
    return ch, sampler, panels, idx, np.isin(np.arange(len(idx)), picked)


def state_by_state(ch, sampler, idx, **kwargs):
    """batched_losses of a census through the per-state path: each half of
    it is a smaller block, and no per-state value depends on the blocks."""
    half = len(idx) // 2
    return np.concatenate([np.stack(batched_losses(ch, sampler, part, **kwargs))
                           for part in (idx[:half], idx[half:])], axis=1)


class TestPlanPath:
    """A census along one elimination plan: per-column gains scale each grid
    point's Gram, and rows with their own gains are gathered per state."""

    @given(
        n=st.integers(3, 8), k=st.integers(1, 7), m=st.integers(1, 8), q=st.integers(1, 3),
        gridded=st.booleans(), overrides=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_slogdet(self, n, k, m, q, gridded, overrides, seed):
        k, m = min(k, n - 1), min(m, n)  # k > m takes the column path, which has no plan
        ch, sampler, panels, idx, own = census_case(seed, n, k, m, q, gridded, overrides)
        along = np.stack(batched_losses(ch, sampler, colex_plan(n, k)))
        per_state = state_by_state(ch, sampler, idx)
        assert np.array_equal(along[1:], per_state[1:])  # the Nyquist side is the same
        assert np.array_equal(along[0, own], per_state[0, own])
        for r, s in enumerate(idx):
            gains = state_grid(ch, s)
            want = naive_c_sampled(gains, panels, s, 1.0, ch.grid_df)
            assert along[0, r] == pytest.approx(want, rel=1e-9)
            assert per_state[0, r] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("gridded, overrides", [(False, 0), (True, 2)])
    def test_gains_from_1e_minus150_to_1e150(self, gridded, overrides):
        ch, sampler, panels, idx, _ = census_case(41, 8, 3, 4, 2, gridded, overrides, decades=150)
        with np.errstate(over="ignore"):  # the water levels invert gains near 1e-150
            got = np.stack(batched_losses(ch, sampler, colex_plan(8, 3), tol=None))
        assert np.all(np.isfinite(got))
        for r, s in enumerate(idx):
            gains = state_grid(ch, s)
            want = naive_c_sampled(gains, panels, s, 1.0, ch.grid_df)
            assert got[0, r] == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("gains, finite", [
        ([1.0] * 6 + [1e160], False),  # its square overflows
        ([1e-160] * 3 + [1.0] * 4, False),  # state 1|2|3: every inverse square overflows
        ([1e-160] * 2 + [1.0] * 5, True),  # every state keeps a finite water level
    ])
    def test_beyond_the_gain_range(self, tmp_path, capsys, gains, finite):
        # beyond the range a NumericalError on either path and exit 3 from
        # the command, never a NaN or inf row
        _, sampler, _, idx, _ = census_case(42, 7, 3, 4, 1, False, 0)
        ch = CompoundChannel(bandwidth=4.0, n_subbands=7, k_active=3, power=4.0 * 3 / 7,
                             gain_grid=np.array(gains)[:, None])
        for got in (lambda: np.stack(batched_losses(ch, sampler, colex_plan(7, 3), tol=None)),
                    lambda: state_by_state(ch, sampler, idx, tol=None)):
            with np.errstate(all="ignore"):
                if finite:
                    assert np.all(np.isfinite(got()))
                else:
                    with pytest.raises(NumericalError, match="1e154"):
                        got()
        path, out = tmp_path / "ch.json", tmp_path / "cap.csv"
        path.write_text(json.dumps({"W": 4.0, "n": 7, "k": 3, "P": 1.0, "q": 1,
                                    "gains": [[g] for g in gains]}))
        argv = ["--command", "capacity", "--channel", str(path), "--m", "4", "--out", str(out)]
        if finite:  # a successful run prints no floating-point warning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status = cli_main(argv)
        else:
            with np.errstate(all="ignore"):
                status = cli_main(argv)
        err = capsys.readouterr().err
        assert status == (0 if finite else 3)
        assert ("numerical failure" in err) != finite
        assert "Warning" not in err
        assert out.exists() == finite

    def test_values_do_not_depend_on_blocking_or_order(self, monkeypatch):
        # a permuted census is gathered, like the halves of `state_by_state`
        ch, sampler, _, idx, _ = census_case(43, 9, 4, 5, 3, True, 3)
        whole = np.stack(batched_losses(ch, sampler, colex_plan(9, 4)))
        perm = np.random.default_rng(43).permutation(len(idx))
        assert np.array_equal(np.stack(batched_losses(ch, sampler, idx[perm])),
                              state_by_state(ch, sampler, idx)[:, perm])
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 1)  # one state per block
        monkeypatch.setattr(capacity, "_NYQUIST_BLOCK_CELLS", 1)
        assert np.array_equal(np.stack(batched_losses(ch, sampler, colex_plan(9, 4))), whole)


class TestLossPaths:
    """Which kernel path each workload takes: a census along one plan, a
    sample gathered state by state from the Grams that the channel's gains
    scale once, with no plan; only rows with their own gains are gathered
    with weights of their own."""

    @pytest.mark.parametrize("overrides", [0, 3])
    def test_capacity_census_runs_along_one_plan(self, tmp_path, capsys, monkeypatch, overrides):
        gen = np.random.default_rng(12)
        n, k, q = 7, 3, 2
        doc = {"W": 7.0, "n": n, "k": k, "P": 12.0, "q": q,
               "gains": gen.uniform(0.4, 2.5, (n, q)).tolist()}
        if overrides:
            doc["state_gains"] = {key: gen.uniform(0.4, 2.5, (n, q)).tolist()
                                  for key in ("1,2,3", "2,5,7", "5,6,7")}
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        plans = spy(monkeypatch, numerics.colex_plan)
        walks = spy(monkeypatch, numerics._plan_logdet)
        gathers = spy(monkeypatch, numerics._gathered_logdet)
        assert cli_main(["--command", "capacity", "--channel", str(path), "--m", "4",
                         "--out", str(tmp_path / "cap.csv")]) == 0
        capsys.readouterr()
        assert plans == [(n, k)]
        assert len(walks) == q and len({id(args[0]) for args in walks}) == 1
        # only the rows with their own gains are gathered, once per grid point
        assert [len(args[1]) for args in gathers] == [overrides] * (q if overrides else 0)
        assert all(args[3].shape == (overrides, k) for args in gathers)

    def test_loss_uniformity_runs_along_one_plan(self, monkeypatch):
        ch = flat_channel(n=8, k=2, q=2)
        plans = spy(monkeypatch, numerics.colex_plan)
        walks = spy(monkeypatch, numerics._plan_logdet)
        gathers = spy(monkeypatch, numerics._gathered_logdet)
        loss_uniformity_report(ch, TrialConfig(n=8, k=2, m=3, trials=1))
        assert plans == [(8, 2)]
        assert len(walks) == 2 and len({id(args[0]) for args in walks}) == 1  # q = 2
        assert gathers == []

    @pytest.mark.parametrize("gridded", [False, True])
    def test_only_the_sampler_whitens(self, monkeypatch, gridded):
        # its panels as one stack, two eigh calls in all; no loss call whitens again
        shapes = eigh_shapes(monkeypatch)
        ch, sampler, _, idx, _ = census_case(46, 8, 3, 4, 2, gridded, 2)
        assert shapes == [(sampler.p, 4, 4)] * 2
        batched_losses(ch, sampler, idx)
        batched_losses(ch, sampler, idx[::3])
        assert len(shapes) == 2

    def test_only_a_census_builds_a_plan(self, monkeypatch):
        # the caller builds the plan of a census and so chooses the path:
        # batched_losses builds none, and gathers all C(n, k) states passed
        # as an index block
        ch, sampler, _, idx, _ = census_case(44, 8, 3, 4, 2, False, 0)
        census = colex_plan(8, 3)
        plans = spy(monkeypatch, numerics.colex_plan)
        walks = spy(monkeypatch, numerics._plan_logdet)
        gathers = spy(monkeypatch, numerics._gathered_logdet)
        batched_losses(ch, sampler, census, tol=None)
        assert gathers == [] and all(args[0] is census for args in walks)
        del walks[:]
        batched_losses(ch, sampler, idx, tol=None)
        assert plans == [] and walks == []
        # every state gathered from one scaled Gram per grid point, with no
        # per-state weights
        assert len(gathers) == ch.q
        assert all(len(args[1]) == len(idx) and args[3] is None for args in gathers)

    def test_a_plan_range_is_its_slice_of_the_census(self):
        # a state's values do not depend on the range it is planned in,
        # rows with their own gains included; a plan of another (n, k) raises
        ch, sampler, _, _, own = census_case(47, 9, 4, 5, 2, True, 6)
        whole = np.stack(batched_losses(ch, sampler, colex_plan(9, 4)))
        for lo, hi in ((0, 1), (10, 80), (37, 126)):
            got = np.stack(batched_losses(ch, sampler, colex_plan(9, 4, lo, hi)))
            assert got.tobytes() == whole[:, lo:hi].tobytes()
        assert np.any(own[10:80])
        for wrong in (colex_plan(9, 3), colex_plan(8, 4)):
            with pytest.raises(ValueError, match="plan"):
                batched_losses(ch, sampler, wrong)

    @pytest.mark.parametrize("gridded", [False, True])
    def test_a_permuted_census_is_gathered_in_its_order(self, monkeypatch, gridded):
        # an index block is gathered in the caller's order, also when it
        # holds all C(n, k) states
        ch, sampler, _, idx, _ = census_case(45, 9, 4, 5, 3, gridded, 2)
        along = np.stack(batched_losses(ch, sampler, colex_plan(9, 4)))
        perm = np.random.default_rng(45).permutation(len(idx))
        plans = spy(monkeypatch, numerics.colex_plan)
        got = np.stack(batched_losses(ch, sampler, idx[perm]))
        assert plans == []
        assert np.array_equal(got[1:], along[1:, perm])  # c_eq, c_opt and nu
        np.testing.assert_allclose(got[0], along[0, perm], rtol=1e-13, atol=0)

    def test_discrete_sample_runs_state_by_state(self, tmp_path, capsys, monkeypatch):
        plans = spy(monkeypatch, numerics.colex_plan)
        gathers = spy(monkeypatch, numerics._gathered_logdet)
        assert cli_main(["--command", "discrete", "--n", "12", "--k", "3", "--m", "4",
                         "--state-cap", "30", "--out", str(tmp_path / "disc.csv")]) == 0
        assert capsys.readouterr().out.rstrip().endswith("sampled state set")
        assert plans == []
        # one grid point: one gather of the 30 states, with no weights of their own
        assert [(len(args[1]), args[3]) for args in gathers] == [(30, None)]

    @pytest.mark.parametrize("overrides", [0, 2])
    def test_sampled_capacity_weighs_only_its_overrides(self, tmp_path, capsys, monkeypatch,
                                                        overrides):
        gen = np.random.default_rng(13)
        n, k, q, cap = 12, 4, 3, 40
        sample = enumerate_states(n, k, cap)
        doc = {"W": 12.0, "n": n, "k": k, "P": 20.0, "q": q,
               "gains": gen.uniform(0.4, 2.5, (n, q)).tolist()}
        if overrides:
            doc["state_gains"] = {",".join(map(str, sample[r] + 1)):
                                  gen.uniform(0.4, 2.5, (n, q)).tolist() for r in (0, 17)}
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        plans = spy(monkeypatch, numerics.colex_plan)
        gathers = spy(monkeypatch, numerics._gathered_logdet)
        assert cli_main(["--command", "capacity", "--channel", str(path), "--m", "6",
                         "--state-cap", str(cap), "--out", str(tmp_path / "cap.csv")]) == 0
        assert capsys.readouterr().out.rstrip().endswith("sampled state set")
        assert plans == []
        # per grid point, the whole sample from the scaled Gram, and the
        # overrides with their own weights at that grid point
        weighted = [args for args in gathers if args[3] is not None]
        assert [len(args[1]) for args in gathers if args[3] is None] == [cap] * q
        assert [len(args[1]) for args in weighted] == [overrides] * (q if overrides else 0)
        assert all(args[3].shape == (overrides, k) for args in weighted)


def nyquist_reference(gains, scale, power, df):
    """(c_eq, c_opt, nu) of one state from its (k, q) active gains, formula by
    formula on its one row of k q cells, subband-major: the exact water
    level from a sort and a cumulative sum, the capacities from row sums."""
    h2 = (gains**2).reshape(1, -1)
    with np.errstate(over="ignore"):
        inv = 1.0 / h2
    ordered = np.sort(inv, axis=1)
    levels = (power / df + np.cumsum(ordered, axis=1)) / np.arange(1, h2.size + 1)
    wet = max(int(np.count_nonzero(ordered < levels)), 1)
    nu = levels[0, wet - 1]
    c_eq = 0.5 * df * np.log1p(scale * h2).sum(axis=1)[0]
    c_opt = 0.5 * df * np.log(np.maximum(nu * h2, 1.0)).sum(axis=1)[0]
    return c_eq, c_opt, nu


@st.composite
def nyquist_cases(draw):
    """A channel with q in {1, 3, 4} and some states with their own gains, a
    flat or gridded sampler, a census or a sample of its states, and a block
    size of the Nyquist pass below, equal to or not dividing S."""
    seed = draw(st.integers(0, 2**31))
    q = draw(st.sampled_from([1, 3, 4]))
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(1, n))
    ch, sampler, _, idx, _ = census_case(seed, n, k, m, q, draw(st.booleans()),
                                         draw(st.sampled_from([0, 1, 4])), decades=1.0)
    if draw(st.booleans()):  # a sample in random order
        rng = np.random.default_rng(seed)
        idx = idx[rng.choice(len(idx), draw(st.integers(1, len(idx))), replace=False)]
    rows = draw(st.sampled_from(["below", "equal", "remainder", "one"]))
    block = {"below": len(idx) + 1, "equal": len(idx), "one": 1,
             "remainder": max(1, len(idx) // 2 + (len(idx) % 2 == 0 and len(idx) > 2))}[rows]
    return ch, sampler, idx, block


class TestNyquistPass:
    """The Nyquist side of `batched_losses`: per-cell tables gathered into
    block buffers, bit for bit the formulas of one state at a time."""

    @settings(max_examples=120, deadline=None)
    @given(case=nyquist_cases())
    def test_bit_identical_to_the_per_state_reference(self, case):
        ch, sampler, idx, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity, "_NYQUIST_BLOCK_CELLS", block * idx.shape[1] * ch.q)
            got = np.stack(batched_losses(ch, sampler, idx)[1:])
        scale = ch.power / (ch.beta * ch.bandwidth)
        want = np.array([
            nyquist_reference(state_grid(ch, s)[s], scale, ch.power, ch.grid_df)
            for s in idx
        ]).T
        assert got.tobytes() == want.tobytes()

    def test_single_state_wrappers_are_one_row_of_the_pass(self, gen):
        for _ in range(10):
            ch = random_channel(gen)
            idx = colex_indices(ch.n_subbands, ch.k_active)
            samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, ch.n_subbands, 3)))
            _, c_eq, c_opt, nu = batched_losses(ch, samp, idx)
            for r, s in enumerate(idx):
                state = ChannelState(tuple((s + 1).tolist()))
                assert nyquist_row(ch, state.indices) == (c_eq[r], c_opt[r], nu[r])
                assert waterfill_level(ch, state) == nu[r]

    def test_flat_channel_solves_one_row(self, gen, monkeypatch):
        # every row of a flat channel gathers the same cells: one row is
        # solved and copied, and each equals its own one-row general pass
        calls = spy(monkeypatch, capacity._nyquist_pass)
        for _ in range(10):
            ch = random_channel(gen, flat=True)
            idx = colex_indices(ch.n_subbands, ch.k_active)
            samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, ch.n_subbands, 3)))
            calls.clear()
            got = np.stack(batched_losses(ch, samp, idx)[1:])
            assert [len(call[0]) for call in calls] == [len(idx), 1][: 1 + (len(idx) > 1)]
            calls.clear()
            want = np.array([nyquist_row(ch, tuple(s + 1)) for s in idx]).T
            assert got.tobytes() == want.tobytes()

    def test_flat_grid_with_state_gains_takes_the_general_path(self, monkeypatch):
        own = np.full((6, 2), 2.0)
        ch = CompoundChannel(bandwidth=6.0, n_subbands=6, k_active=2, power=3.0,
                             gain_grid=np.ones((6, 2)), state_gains={(2, 5): own})
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 3, 6, 2)))
        idx = colex_indices(6, 2)
        calls = spy(monkeypatch, capacity._nyquist_pass)
        got = np.stack(batched_losses(ch, samp, idx)[1:])
        assert [len(call[0]) for call in calls] == [len(idx)]
        mine = [tuple(s) for s in (idx + 1).tolist()].index((2, 5))
        assert not np.array_equal(got[:, mine], got[:, mine - 1])
        want = np.array([nyquist_row(ch, tuple(s + 1)) for s in idx]).T
        assert got.tobytes() == want.tobytes()

    def test_flat_channel_one_row_block(self):
        ch = CompoundChannel(bandwidth=4.0, n_subbands=4, k_active=2, power=2.0,
                             gain_grid=np.full((4, 3), 0.7))
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, 4, 5)))
        idx = colex_indices(4, 2)
        full = np.stack(batched_losses(ch, samp, idx)[1:])
        for r in range(len(idx)):
            one = np.stack(batched_losses(ch, samp, idx[r : r + 1])[1:])
            assert one.tobytes() == full[:, r : r + 1].tobytes()

    def test_repeated_rows_with_their_own_gains(self):
        # every copy of a row with gains of its own takes them, in any order
        ch, sampler, _, idx, own = census_case(46, 7, 3, 4, 2, False, 2)
        rows = np.flatnonzero(own)
        trio, picks = idx[[rows[1], rows[0], 5]], [0, 1, 2, 0, 1, 0]
        once = np.stack(batched_losses(ch, sampler, trio))
        got = np.stack(batched_losses(ch, sampler, trio[picks]))
        assert got.tobytes() == once[:, picks].tobytes()

    def test_memory_stays_bounded_as_states_grow(self):
        # all of C(20,6) at q = 4, 930,240 cells: a pass that held them all at
        # once would take 50 MiB or more (numpy reports its buffers to
        # tracemalloc)
        idx = colex_indices(20, 6)
        gains = np.exp(np.random.default_rng(3).normal(0.0, 1.0, (20, 4)))
        out = np.empty((3, len(idx)))
        tracemalloc.start()
        try:
            capacity._nyquist_pass(idx, gains, np.empty(0, dtype=np.intp), np.empty((0, 6, 4)),
                                   1.0, 2.0, 0.25, capacity.WATERFILL_DEFAULT_TOL, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("gain", [1e-160, 1e160])
    @pytest.mark.parametrize("own", [False, True])
    def test_gains_beyond_the_range_raise(self, gain, own):
        # on the channel's grid, or only on the grid of a state of its own
        grid = np.ones((6, 3))
        grid[1:3] = gain
        ch = CompoundChannel(
            bandwidth=6.0, n_subbands=6, k_active=2, power=2.0,
            gain_grid=np.ones((6, 3)) if own else grid,
            state_gains={(2, 3): grid} if own else None,
        )
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 3, 6, 1)))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="1e154"):
            batched_losses(ch, samp, colex_indices(6, 2), tol=None)

    def test_forced_residual_raises(self):
        # P/df far below the 1/H^2 of every cell: float64 cannot place the level
        ch = CompoundChannel(bandwidth=4.0, n_subbands=4, k_active=2, power=1e-3,
                             gain_grid=np.full((4, 2), 1e-7))
        samp = make_flat_sampler(draw_matrix(EnsembleSpec("gaussian", 2, 4, 1)))
        for call in (lambda: batched_losses(ch, samp, colex_indices(4, 2)),
                     lambda: waterfill_level(ch, ChannelState((1, 2)))):
            with pytest.raises(NumericalError, match="power residual"):
                call()
        assert np.all(np.isfinite(batched_losses(ch, samp, colex_indices(4, 2), tol=None)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32])
    def test_narrow_index_blocks(self, dtype):
        # gather offsets such as cols * n must not wrap in the block's dtype
        n, k = 20, 2
        idx = colex_indices(n, k)
        b = draw_matrix(EnsembleSpec("gaussian", 3, n, 4))
        assert numerics.subset_logdet(b, idx.astype(dtype), shift=0.05).tobytes() == \
            numerics.subset_logdet(b, idx, shift=0.05).tobytes()
        ch = CompoundChannel(bandwidth=20.0, n_subbands=n, k_active=k, power=3.0,
                             gain_grid=np.random.default_rng(4).uniform(0.5, 2.0, (n, 2)))
        samp = make_flat_sampler(b)
        for block in (idx, idx[::3]):  # a census, along its plan, and a sample
            assert np.stack(batched_losses(ch, samp, block.astype(dtype))).tobytes() == \
                np.stack(batched_losses(ch, samp, block)).tobytes()
            gains = np.linspace(0.5, 2.0, n)
            assert np.stack(discrete_losses(gains, b, block.astype(dtype), 3.0)).tobytes() == \
                np.stack(discrete_losses(gains, b, block, 3.0)).tobytes()


class TestDiscreteLoss:
    def test_full_identity_zero_loss(self):
        rep = discrete_loss(np.ones(4), np.eye(4), ChannelState((1, 3)), power=2.0)
        assert abs(rep.loss_eq) <= 1e-12
        assert abs(rep.loss_opt) <= 1e-9

    def test_scalar_formula(self):
        # k=m=1, n=2, H=I, Q=[1,1]/sqrt(2): loss = (1/2)log(1+P) - (1/2)log(1+P/2)
        for p in (0.5, 1.0, 3.7, 10.0):
            rep = discrete_loss(
                np.ones(2), np.array([[1.0, 1.0]]) / math.sqrt(2.0),
                ChannelState((1,)), power=p,
            )
            expected = 0.5 * math.log1p(p) - 0.5 * math.log1p(p / 2.0)
            assert rep.loss_eq == pytest.approx(expected, rel=1e-10)

    def test_gaussian_losses_near_entropy_rate(self):
        # n=16, k=m=4, strong SNR: per-coordinate loss concentrates near
        # H(0.25)/2 and the worst state exceeds the converse floor
        n, k, m = 16, 4, 4
        power = 4e4  # P/k = 1e4 per active coordinate
        gains = np.ones(n)
        h_half = binary_entropy(0.25) / 2.0
        from subnyq.converse import minimax_lower_bound

        floor = minimax_lower_bound(n, k, m, snr_min=power / k, bandwidth=1.0) / n
        q = draw_matrix(EnsembleSpec("gaussian", m, n, 7))
        c_s, c_eq, _, _ = discrete_losses(gains, q, enumerate_states(n, k, 10**6), power)
        losses = (c_eq - c_s) / n
        assert abs(float(losses.mean()) - h_half) <= 0.15
        assert float(losses.max()) >= floor - 1e-9

    def test_complex_sensing_matrix_rejected(self):
        q = np.fft.fft(np.eye(4))[:2] / 2.0
        with pytest.raises(ValueError, match="sensing matrix is complex"):
            discrete_losses(np.ones(4), q, [[0, 1]], 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            discrete_loss(np.zeros(3), np.eye(3), ChannelState((1,)), 1.0)
        with pytest.raises(ValueError):
            discrete_loss(np.ones(3), np.eye(4), ChannelState((1,)), 1.0)
        with pytest.raises(ValueError):
            discrete_loss(np.ones(3), np.eye(3), ChannelState((1,)), -1.0)
        with pytest.raises(SingularityError):
            discrete_loss(np.ones(3), np.zeros((2, 3)), ChannelState((1,)), 1.0)

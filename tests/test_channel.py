import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest
from conftest import spy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnyq import channel
from subnyq.channel import (
    ChannelState,
    CompoundChannel,
    enumerate_states,
    load_channel,
    snr_summary,
)
from subnyq.numerics import colex_indices
from subnyq.samplers import philox_generator


def set_of_tuples_sample(n, k, cap):
    """The sampled branch of `enumerate_states`, one Floyd row at a time:
    row after row from the dedicated stream, until cap distinct states,
    colex-sorted.  Each row's k picks come from one array draw with bounds
    j + 1 for j = n - k + 1..n, which yields the numbers of k scalar draws
    `gen.integers(1, j + 1)` in turn (see `samplers.PhiloxStream`)."""
    gen = philox_generator(channel._STATE_SAMPLING_KEY)
    bounds = np.arange(n - k + 2, n + 2)
    picked = set()
    while len(picked) < cap:
        row = set()
        for j, t in zip(range(n - k + 1, n + 1), gen.integers(1, bounds).tolist()):
            row.add(j if t in row else t)
        picked.add(tuple(sorted(row)))
    block = np.array(sorted(picked, key=lambda s: s[::-1]), dtype=np.intp).reshape(cap, k)
    return block - 1


@st.composite
def sampled_problems(draw):
    """n, k and a cap below C(n, k), so that the states are sampled."""
    n = draw(st.integers(2, 90))
    k = draw(st.integers(1, n - 1))
    cap = draw(st.integers(1, min(math.comb(n, k) - 1, 400)))
    return n, k, cap


class TestChannelState:
    def test_valid(self):
        s = ChannelState((1, 4, 7))
        assert s.k == 3
        assert list(s.zero_based()) == [0, 3, 6]

    def test_sorted_required(self):
        with pytest.raises(ValueError):
            ChannelState((3, 1))
        with pytest.raises(ValueError):
            ChannelState((2, 2))

    def test_one_based(self):
        with pytest.raises(ValueError):
            ChannelState((0, 1))


class TestEnumerateStates:
    def test_three_choose_two(self):
        out = enumerate_states(3, 2, 10)
        assert len(out) == math.comb(3, 2)  # a census
        assert (out + 1).tolist() == [[1, 2], [1, 3], [2, 3]]

    def test_two_choose_one(self):
        out = enumerate_states(2, 1, 10)
        assert (out + 1).tolist() == [[1], [2]]

    def test_colex_order_four_choose_two(self):
        out = enumerate_states(4, 2, 100)
        assert (out + 1).tolist() == [
            [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4],
        ]

    def test_sixteen_choose_four_exhaustive(self):
        out = enumerate_states(16, 4, 5000)
        assert len(out) == math.comb(16, 4)  # a census
        # independent count: product formula
        assert len(out) == 16 * 15 * 14 * 13 // 24 == 1820
        assert len(set(map(tuple, out.tolist()))) == 1820

    def test_deterministic(self):
        a = enumerate_states(10, 3, 50)
        b = enumerate_states(10, 3, 50)
        assert np.array_equal(a, b)

    def test_sampled_branch(self):
        out = enumerate_states(30, 10, 100)
        assert len(out) != math.comb(30, 10)  # a sample
        assert len(out) == 100
        assert len(set(map(tuple, out.tolist()))) == 100
        assert out.shape == (100, 10)
        assert out.min() >= 0 and out.max() <= 29
        assert np.all(np.diff(out, axis=1) > 0)
        again = enumerate_states(30, 10, 100)
        assert np.array_equal(out, again)

    @pytest.mark.parametrize(
        "n, k, cap, digest",
        [
            (30, 10, 100, "e2ad7c6607150e06b5f2be122f48fa5274d81f32821f33e347c726887f2c9e63"),
            # the discrete-sampled benchmark shape
            (40, 8, 5000, "d6022d66c0fc15aed36a6e5778616d176dc6cf3f144d62698bb9be45492bdd3f"),
            # the first batch holds 131 distinct states of 200: the resample loop
            (12, 3, 200, "9ffa7fedb211895e597ffffc7398654df83f28f00d51d44a95dcb7b2160cd9d4"),
            # wide rows: more than one 64-bit word per row, and n above 64
            (70, 3, 50, "318749ce0adeb90a11f8f7b18aba6cf77a821f77b5adc61fda1e4edf8a7afcde"),
            (130, 12, 300, "b6eedd7c04c0a8dd2007cd0a5b6e1611c1a8d7a5d0afdabd28d3e678c429d357"),
        ],
    )
    def test_sampled_set_pinned(self, n, k, cap, digest):
        # the sampled state set (members and order) is part of the output contract
        out = enumerate_states(n, k, cap)
        assert len(out) != math.comb(n, k)  # a sample
        one_based = (out + 1).astype(np.int64)
        assert hashlib.sha256(one_based.tobytes()).hexdigest() == digest

    @given(dims=sampled_problems())
    @example(dims=(12, 3, 200))  # the first batch repeats 69 states
    @example(dims=(12, 3, 219))  # all but one of C(12, 3)
    @example(dims=(80, 40, 50))  # beyond any 64-bit rank of a state
    @example(dims=(2, 1, 1))
    @settings(max_examples=60, deadline=None)
    def test_sampled_set_matches_a_set_of_tuples(self, dims):
        n, k, cap = dims
        out = enumerate_states(n, k, cap)
        assert len(out) != math.comb(n, k)  # a sample
        assert out.dtype == np.intp and not out.flags.writeable
        assert np.array_equal(out, set_of_tuples_sample(n, k, cap))

    @pytest.mark.parametrize("n", [3, 15, 16, 127, 255, 256, 40000, 2**31 - 1])
    def test_packed_sort_matches_a_column_lexsort(self, n):
        # every index width, with indices in the top bits of a word
        gen = np.random.default_rng(n)
        per_word = 63 // n.bit_length()
        for k in sorted({1, 2, per_word, per_word + 1, 2 * per_word + 1}):
            block = np.sort(gen.integers(1, n + 1, (300, k)), axis=1)
            block = np.concatenate([block, block[gen.integers(0, 300, 100)]])  # repeats
            order = np.lexsort(block.T)
            first = np.ones(len(order), dtype=bool)
            first[1:] = np.any(block[order][1:] != block[order][:-1], axis=1)
            assert np.array_equal(channel._colex_unique(block, n), order[first]), k

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (8, 4), (9, 8), (10, 3), (70, 1), (130, 1)])
    def test_all_but_one_state_matches_the_reference(self, n, k):
        # the tail of the rounds, where most new rows repeat a state
        cap = math.comb(n, k) - 1
        assert np.array_equal(enumerate_states(n, k, cap), set_of_tuples_sample(n, k, cap))

    def test_near_census_cap_takes_few_rounds(self, monkeypatch):
        # one Floyd batch per round: a batch of only the missing count each
        # round would take thousands of rounds here
        calls = spy(monkeypatch, channel._floyd_samples)
        out = enumerate_states(16, 8, 12869)
        assert len(out) == 12869 and len(set(map(tuple, out.tolist()))) == 12869
        assert calls[0][2] == 12869 and len(calls) <= 20

    def test_first_round_draws_the_cap(self, monkeypatch):
        # the benchmark's shape: one batch of exactly cap rows, nothing more
        calls = spy(monkeypatch, channel._floyd_samples)
        enumerate_states(40, 8, 5000)
        assert [call[2] for call in calls] == [5000]

    @pytest.mark.parametrize("n, k, cap", [(9, 4, 10**6), (40, 8, 300)])
    def test_index_block(self, n, k, cap):
        out = enumerate_states(n, k, cap)
        assert out.dtype == np.intp
        assert not out.flags.writeable
        assert out.shape == (min(math.comb(n, k), cap), k)
        keys = [row[::-1] for row in out.tolist()]  # colex: compare largest first
        assert keys == sorted(keys)

    def test_colex_indices_matches_definition(self):
        for n, k in [(1, 1), (5, 1), (5, 5), (7, 3), (8, 4)]:
            want = sorted(combinations(range(n), k), key=lambda s: s[::-1])
            assert [tuple(row) for row in colex_indices(n, k)] == want
        with pytest.raises(ValueError):
            colex_indices(3, 4)

    def test_colex_indices_match_sorted_combinations(self):
        # the prefix recursion against combinations + lexsort, bit for bit
        for n in range(1, 13):
            for k in range(1, n + 1):
                ref = np.array(list(combinations(range(n), k)), dtype=np.intp)
                ref = ref[np.lexsort(ref.T)]
                got = colex_indices(n, k)
                assert got.dtype == np.intp and not got.flags.writeable
                assert np.array_equal(got, ref), (n, k)

    def test_count_matches_binomial(self):
        for n, k in [(6, 2), (7, 3), (9, 4)]:
            assert len(enumerate_states(n, k, 10**6)) == math.comb(n, k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_states(4, 4, 10)
        with pytest.raises(ValueError):
            enumerate_states(4, 0, 10)
        with pytest.raises(ValueError):
            enumerate_states(4, 2, 0)


class TestCompoundChannel:
    def test_basic_properties(self):
        ch = CompoundChannel(
            bandwidth=8.0, n_subbands=4, k_active=2, power=3.0,
            gain_grid=np.ones((4, 2)),
        )
        assert ch.beta == 0.5
        assert ch.q == 2
        assert ch.grid_df == pytest.approx(1.0)

    def test_validation(self):
        good = dict(bandwidth=1.0, n_subbands=4, k_active=2, power=1.0,
                    gain_grid=np.ones((4, 1)))
        with pytest.raises(ValueError):
            CompoundChannel(**{**good, "bandwidth": 0.0})
        with pytest.raises(ValueError):
            CompoundChannel(**{**good, "k_active": 4})
        with pytest.raises(ValueError):
            CompoundChannel(**{**good, "power": -1.0})
        with pytest.raises(ValueError):
            CompoundChannel(**{**good, "gain_grid": np.zeros((4, 1))})
        with pytest.raises(ValueError):
            CompoundChannel(**{**good, "gain_grid": np.ones((3, 1))})

    def test_gain_grid_immutable(self):
        ch = CompoundChannel(
            bandwidth=1.0, n_subbands=4, k_active=1, power=1.0,
            gain_grid=np.ones((4, 1)),
        )
        with pytest.raises(ValueError):
            ch.gain_grid[0, 0] = 2.0

    def test_json_round_trip(self, tmp_path):
        ch = CompoundChannel(
            bandwidth=4.0, n_subbands=4, k_active=2, power=2.5,
            gain_grid=np.array([[1.0], [1.5], [0.7], [2.0]]),
        )
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(ch.to_dict()))
        loaded = load_channel(path)
        assert loaded.bandwidth == ch.bandwidth
        assert loaded.n_subbands == ch.n_subbands
        assert loaded.k_active == ch.k_active
        assert loaded.power == ch.power
        np.testing.assert_allclose(loaded.gain_grid, ch.gain_grid)

    def test_json_q_mismatch_rejected(self, tmp_path):
        doc = {"W": 1.0, "n": 4, "k": 1, "P": 1.0, "q": 3, "gains": [[1.0]] * 4}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_channel(path)

    @pytest.mark.parametrize("key, value", [
        ("W", None), ("n", "4"), ("k", True), ("P", [1.0]), ("q", None), ("state_gains", [1]),
    ])
    def test_json_malformed_value_named(self, key, value):
        doc = {"W": 1.0, "n": 4, "k": 1, "P": 1.0, "gains": [[1.0]] * 4, key: value}
        with pytest.raises(ValueError, match=f"'{key}'"):
            CompoundChannel.from_dict(doc)
        with pytest.raises(ValueError, match="JSON object"):
            CompoundChannel.from_dict([doc])

    @pytest.mark.parametrize("key, value", [
        ("n", 4.7), ("k", 1.5), ("q", 1.2), ("W", math.nan), ("P", math.inf), ("W", -math.inf),
        ("W", 10**400), ("n", 10**400),  # integers beyond a float
    ], ids=["n-4.7", "k-1.5", "q-1.2", "W-nan", "P-inf", "W-neg-inf", "W-huge", "n-huge"])
    def test_json_fractional_or_nonfinite_value_named(self, key, value):
        # no truncation of "n": 4.7 to 4, and no NaN past the sign checks
        doc = {"W": 1.0, "n": 4, "k": 1, "P": 1.0, "gains": [[1.0]] * 4, key: value}
        with pytest.raises(ValueError, match=f"'{key}'"):
            CompoundChannel.from_dict(doc)

    def test_json_integral_float_accepted(self):
        doc = {"W": 1.0, "n": 4.0, "k": 1.0, "P": 1.0, "q": 1.0, "gains": [[1.0]] * 4}
        ch = CompoundChannel.from_dict(doc)
        assert (ch.n_subbands, ch.k_active) == (4, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize("field", ["bandwidth", "power"])
    def test_nonfinite_bandwidth_or_power_rejected(self, field, value):
        args = dict(bandwidth=4.0, n_subbands=4, k_active=2, power=1.0, gain_grid=np.ones((4, 1)))
        with pytest.raises(ValueError, match=field):
            CompoundChannel(**{**args, field: value})

    def test_per_state_gains(self):
        override = np.full((4, 1), 2.0)
        ch = CompoundChannel(
            bandwidth=4.0, n_subbands=4, k_active=2, power=1.0,
            gain_grid=np.ones((4, 1)),
            state_gains={(1, 2): override},
        )
        np.testing.assert_allclose(ch.state_gains[(1, 2)], override)
        assert set(ch.state_gains) == {(1, 2)}  # every other state has gain_grid


class TestSnrSummary:
    def test_flat_unit_gain(self):
        # P = beta * W makes the per-Hz SNR exactly 1
        ch = CompoundChannel(
            bandwidth=4.0, n_subbands=4, k_active=2, power=2.0,
            gain_grid=np.ones((4, 3)),
        )
        s = snr_summary(ch)
        assert s.snr_min == pytest.approx(1.0)
        assert s.snr_max == pytest.approx(1.0)
        assert s.snr_avg_max == pytest.approx(1.0)

    def test_flat_abar_both_forms(self):
        # flat gain: integral form = 1/beta, ratio form = 1 -> min is 1
        ch = CompoundChannel(
            bandwidth=6.0, n_subbands=6, k_active=2, power=5.0,
            gain_grid=np.full((6, 2), 1.7),
        )
        s = snr_summary(ch)
        assert s.snr_avg_max == pytest.approx(1.0)

    def test_two_gains(self):
        ch = CompoundChannel(
            bandwidth=2.0, n_subbands=2, k_active=1, power=1.0,
            gain_grid=np.array([[1.0], [2.0]]),
        )
        s = snr_summary(ch)
        assert s.snr_min == pytest.approx(1.0)
        assert s.snr_max == pytest.approx(4.0)

    def test_min_le_max_equality_iff_flat(self, gen):
        from conftest import random_channel

        for _ in range(20):
            ch = random_channel(gen)
            s = snr_summary(ch)
            assert s.snr_min <= s.snr_max
            if np.ptp(ch.gain_grid) > 0:
                assert s.snr_min < s.snr_max

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subnyq import experiments, numerics
from subnyq.channel import colex_indices
from subnyq.converse import subset_det_sum_closed
from subnyq.numerics import (
    RANK_FLOOR_FACTOR,
    NumericalError,
    SingularityError,
    binary_entropy,
    det_floor,
    full_rank_gram,
    log_binomial,
    logdet_shifted,
    minimax_limit,
    rect_logdet_limit,
    spectral_decomp,
    subset_logdet,
    subset_plan,
    whiten,
)
from subnyq.samplers import EnsembleSpec, make_flat_sampler


class TestWhiten:
    def test_orthonormal_rows_fixed_point(self, gen):
        q, _ = np.linalg.qr(gen.standard_normal((6, 3)))
        q = q.T  # 3 x 6 with orthonormal rows
        np.testing.assert_allclose(whiten(q), q, atol=1e-12)

    def test_scaled_identity_padded(self):
        q = np.hstack([3.25 * np.eye(3), np.zeros((3, 4))])
        expected = np.hstack([np.eye(3), np.zeros((3, 4))])
        np.testing.assert_allclose(whiten(q), expected, atol=1e-12)

    def test_random_rows_become_orthonormal(self, gen):
        q = gen.standard_normal((2, 5))
        w = whiten(q)
        np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-10)

    def test_row_space_preserved(self, gen):
        q = gen.standard_normal((3, 7))
        w = whiten(q)
        # every row of w must be a combination of rows of q
        coeffs, residuals, *_ = np.linalg.lstsq(q.T, w.T, rcond=None)
        np.testing.assert_allclose(q.T @ coeffs, w.T, atol=1e-10)

    def test_idempotent(self, gen):
        for _ in range(5):
            q = gen.standard_normal((4, 9))
            w = whiten(q)
            np.testing.assert_allclose(whiten(w), w, atol=1e-9)

    def test_ill_conditioned_stays_accurate(self):
        # near-parallel rows: condition number ~1e8
        base = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-4, 0.0, 0.0]])
        w = whiten(base)
        np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-10)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularityError):
            whiten(np.zeros((2, 4)))
        with pytest.raises(SingularityError):
            whiten(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))


class TestLogdetShifted:
    def test_identity(self):
        assert logdet_shifted(np.eye(3), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_matrix(self):
        assert logdet_shifted(np.zeros((2, 2)), 0.5) == pytest.approx(2 * math.log(0.5))

    def test_diagonal(self):
        val = logdet_shifted(np.diag([1.0, 4.0]), 0.01)
        assert val == pytest.approx(math.log(1.01) + math.log(4.01))

    def test_eps_zero_singular_raises(self):
        with pytest.raises(ValueError):
            logdet_shifted(np.zeros((2, 2)), 0.0)

    def test_monotone_in_eps(self, gen):
        x = gen.standard_normal((5, 5))
        s = x @ x.T
        vals = [logdet_shifted(s, e) for e in (0.0, 1e-3, 0.1, 1.0, 5.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_one_over_lambda_min_bound(self, gen):
        for _ in range(10):
            x = gen.standard_normal((4, 7))
            s = x @ x.T  # full rank almost surely
            k = s.shape[0]
            gap = (logdet_shifted(s, 1.0) - logdet_shifted(s, 0.0)) / k
            lam_min = np.linalg.eigvalsh(s)[0]
            assert 0.0 <= gap <= 1.0 / lam_min + 1e-12

    def test_tall_wide_identity(self, gen):
        for _ in range(10):
            m, k = 8, 3
            x = gen.standard_normal((m, k))
            eps = float(gen.uniform(0.05, 2.0))
            lhs = logdet_shifted(x.T @ x, eps)
            rhs = (k - m) * math.log(eps) + logdet_shifted(x @ x.T, eps)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            logdet_shifted(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.1)


class TestDetFloor:
    def test_floor_active(self):
        val = det_floor(np.diag([2.0, 0.001]), 0.01)
        assert val == pytest.approx(math.log(2.0) + math.log(0.01))

    def test_identity_any_eps(self):
        for eps in (0.01, 0.5, 1.0):
            assert det_floor(np.eye(4), eps) == pytest.approx(0.0, abs=1e-14)

    def test_floor_inactive(self):
        assert det_floor(np.diag([3.0, 5.0]), 1.0) == pytest.approx(math.log(15.0))


class TestScalarFunctions:
    def test_binary_entropy_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0))

    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_entropy_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.562335, abs=1e-6)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_log_binomial_small(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6.0))
        assert log_binomial(10, 0) == 0.0
        assert log_binomial(10, 10) == 0.0

    def test_log_binomial_matches_exact_big_integers(self):
        # independent oracle: exact big-int binomials
        for n, k in [(60, 30), (64, 13), (120, 40), (200, 3)]:
            assert log_binomial(n, k) == pytest.approx(
                math.log(math.comb(n, k)), rel=1e-12
            )

    def test_log_binomial_lgamma_range_every_k(self):
        # beyond the exact range: every (n, k) against exact big-int binomials
        for n in range(65, 401):
            for k in range(n + 1):
                assert math.isclose(
                    log_binomial(n, k), math.log(math.comb(n, k)), rel_tol=1e-12, abs_tol=0.0
                ), (n, k)

    def test_entropy_sandwich_up_to_60(self):
        for n in range(2, 61):
            for k in range(1, n):
                val = log_binomial(n, k) / n
                h = binary_entropy(k / n)
                assert h - math.log(n + 1) / n <= val <= h

    def test_rect_logdet_limit_values(self):
        assert rect_logdet_limit(0.5) == pytest.approx(0.5 * math.log(2.0) - 0.5)
        assert rect_logdet_limit(0.5) == pytest.approx(-0.153426, abs=1e-6)
        assert rect_logdet_limit(0.25) == pytest.approx(0.75 * math.log(4.0 / 3.0) - 0.25)
        assert abs(rect_logdet_limit(1e-6)) < 3e-6

    def test_rect_logdet_limit_domain(self):
        with pytest.raises(ValueError):
            rect_logdet_limit(1.0)
        with pytest.raises(ValueError):
            rect_logdet_limit(0.0)

    def test_minimax_limit_landau(self):
        for beta in (0.1, 0.25, 0.5, 0.9):
            assert minimax_limit(beta, beta) == pytest.approx(binary_entropy(beta) / 2)

    def test_minimax_limit_nyquist_is_zero(self):
        for beta in (0.1, 0.25, 0.5):
            assert minimax_limit(1.0, beta) == 0.0

    def test_minimax_limit_value(self):
        expected = 0.5 * (0.562335 - 0.5 * 0.693147)
        assert minimax_limit(0.5, 0.25) == pytest.approx(expected, abs=1e-5)

    def test_minimax_limit_domain(self):
        with pytest.raises(ValueError):
            minimax_limit(0.2, 0.5)


class TestSpectralDecomp:
    def test_reconstruction(self, gen):
        x = gen.standard_normal((6, 6))
        s = x + x.T
        dec = spectral_decomp(s)
        err = np.linalg.norm(dec.reconstruct() - s) / np.linalg.norm(s)
        assert err <= 1e-9
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_eigenvectors_orthogonal(self, gen):
        x = gen.standard_normal((5, 5))
        dec = spectral_decomp(x @ x.T)
        v = dec.eigenvectors
        np.testing.assert_allclose(v @ v.T, np.eye(5), atol=1e-12)


# log det of an exactly singular minor computed in floating point: either
# -inf or at rounding level, far below any nonsingular O(1) minor here
SINGULAR_LOGDET = -25.0


def naive_subset_logdet(panels, idx, weights, shift):
    """Per state and grid point: slogdet of the k x k matrix shift I + A^T A."""
    out = []
    for r, s in enumerate(idx):
        total = 0.0
        for j in range(weights.shape[2]):
            a = panels[j % len(panels)][:, s] * weights[r, :, j]
            sign, val = np.linalg.slogdet(shift * np.eye(len(s)) + a.T @ a)
            total += val if sign > 0 else -np.inf
        out.append(total)
    return np.array(out)


def singular_logdet_bound(panels, s, weights):
    """Upper bound on any computed log det(A^T A) of an exactly singular minor.

    Summed over grid points as in `naive_subset_logdet`.  Rounding in forming
    and factoring the Gram G acts as a backward error E with ||E|| <= delta =
    k (k + 1) eps trace(G), eps the float64 machine epsilon, so the computed
    determinant is at most delta prod(lambda_i + delta) over the k - 1
    largest eigenvalues of G.
    """
    total = 0.0
    for j in range(weights.shape[1]):
        a = panels[j % len(panels)][:, s] * weights[:, j]
        gram = a.T @ a
        delta = len(s) * (len(s) + 1) * np.finfo(float).eps * np.trace(gram)
        lam = np.maximum(np.linalg.eigvalsh(gram)[1:], 0.0)
        total += math.log(delta) + float(np.sum(np.log(lam + delta)))
    return total


def exact_gram_logdet(a):
    """log det(A^T A) for the float columns of A, in exact rational arithmetic."""
    cols = [[Fraction(x) for x in col] for col in a.T.tolist()]
    g = [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]
    det = Fraction(1)
    for i in range(len(g)):
        det *= g[i][i]
        for r in range(i + 1, len(g)):
            ratio = g[r][i] / g[i][i]
            for c in range(i + 1, len(g)):
                g[r][c] -= ratio * g[i][c]
    return math.log(det)


@st.composite
def subset_problems(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, n))
    return n, m, k


class TestSubsetLogdet:
    @given(
        dims=subset_problems(),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        grid=st.sampled_from([None, (1, 1), (1, 3), (2, 2)]),  # None or (panels, q)
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(5, 3, 3), shift=0.0, grid=None, duplicate=False, seed=1)  # k = m
    @example(dims=(4, 4, 2), shift=0.05, grid=(2, 2), duplicate=False, seed=2)  # m = n
    @example(dims=(4, 4, 4), shift=1.0, grid=(1, 3), duplicate=False, seed=3)  # k = m = n
    @example(dims=(6, 2, 4), shift=0.0, grid=None, duplicate=False, seed=4)  # k > m, eps = 0
    @example(dims=(6, 4, 3), shift=0.0, grid=None, duplicate=True, seed=5)  # repeated column
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_slogdet(self, dims, shift, grid, duplicate, seed):
        n, m, k = dims
        rng = np.random.default_rng(seed)
        p, q = grid or (1, 1)
        panels = rng.standard_normal((p, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = colex_indices(n, k)
        weights = rng.uniform(0.5, 2.0, (len(idx), k, q))
        if grid is None:
            got = subset_logdet(panels[0], idx, shift=shift)
            weights = np.ones((len(idx), k, 1))
        else:
            got = subset_logdet(panels, idx, weights, shift=shift)
        want = naive_subset_logdet(panels, idx, weights, shift)
        if shift == 0.0 and k > m:
            assert np.all(got == -np.inf)  # rank(A^T A) <= m < k
        for s, ws, g, w in zip(idx, weights, got, want):
            if shift == 0.0 and (k > m or (duplicate and k > 1 and s[0] == 0 and s[1] == 1)):
                # exactly singular: both sides are rounding noise, which can
                # exceed SINGULAR_LOGDET when the other eigenvalues are large
                bound = singular_logdet_bound(panels, s, ws)
                assert g <= bound and w <= bound
            elif g < SINGULAR_LOGDET or w < SINGULAR_LOGDET:
                assert g < SINGULAR_LOGDET and w < SINGULAR_LOGDET
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    @given(dims=subset_problems(), eps=st.sampled_from([0.0, 0.05, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exp_sum_is_cauchy_binet(self, dims, eps, seed):
        n, m, k = dims
        assume(k <= m)
        b = whiten(np.random.default_rng(seed).standard_normal((m, n)))
        total = math.fsum(np.exp(subset_logdet(b, colex_indices(n, k), shift=eps)).tolist())
        assert total == pytest.approx(subset_det_sum_closed(n, k, m, eps), rel=1e-9)

    def test_values_do_not_depend_on_blocking(self, monkeypatch):
        rng = np.random.default_rng(8)
        panels = rng.standard_normal((3, 4, 9))
        idx = colex_indices(9, 5)  # k > m: the m x m branch
        weights = rng.uniform(0.5, 2.0, (len(idx), 5, 3))
        whole = subset_logdet(panels, idx, weights, shift=0.05)
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 1)
        assert np.array_equal(subset_logdet(panels, idx, weights, shift=0.05), whole)

    def test_gathered_values_do_not_depend_on_blocking(self, monkeypatch):
        rng = np.random.default_rng(8)
        panels = rng.standard_normal((3, 4, 9))
        idx = colex_indices(9, 3)  # k <= m: every block gathers from B^T B
        weights = rng.uniform(0.5, 2.0, (len(idx), 3, 3))
        take, gathers = np.take, []
        monkeypatch.setattr(np, "take", lambda *a, **kw: gathers.append(1) or take(*a, **kw))
        whole = subset_logdet(panels, idx, weights, shift=0.05)
        assert len(gathers) == 1
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 1)
        assert np.array_equal(subset_logdet(panels, idx, weights, shift=0.05), whole)
        assert len(gathers) == 1 + len(idx)  # one state per block, still gathered

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            subset_logdet(np.eye(2), [[0, 1]], shift=-1.0)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ValueError):
            subset_logdet(np.eye(3), [[0, index]])

    @pytest.mark.parametrize(
        "dims, duplicate",
        [((6, 4, 3), True), ((6, 5, 5), True), ((6, 2, 4), False), ((6, 3, 5), True)],
    )
    def test_no_warnings_at_zero_shift(self, dims, duplicate):
        n, m, k = dims
        rng = np.random.default_rng(9)
        panels = rng.standard_normal((1, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = colex_indices(n, k)
        weights = rng.uniform(0.5, 2.0, (len(idx), k, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = subset_logdet(panels[0], idx, shift=0.0)
            weighted = subset_logdet(panels, idx, weights, shift=0.0)
        for got in (plain, weighted):
            if k > m:
                assert np.all(got == -np.inf)
            else:
                both = (idx[:, 0] == 0) & (idx[:, 1] == 1)  # the repeated column twice
                assert np.all(got[both] < SINGULAR_LOGDET)
                assert np.all(np.isfinite(got[~both]))

    @pytest.mark.parametrize("shift", [0.05, 1.0])
    def test_near_parallel_columns_match_slogdet(self, shift):
        rng = np.random.default_rng(12)
        m, n, k = 6, 10, 4
        b = rng.standard_normal((m, n))
        b[:, 1] = b[:, 0] + 2e-5 * rng.standard_normal(m)
        cond = np.linalg.cond(b[:, :2].T @ b[:, :2])
        assert 1e9 < cond < 1e11
        idx = colex_indices(n, k)
        ones = np.ones((len(idx), k, 1))
        got = subset_logdet(b, idx, shift=shift)
        np.testing.assert_allclose(got, naive_subset_logdet(b[None], idx, ones, shift), rtol=1e-9)
        weights = rng.uniform(0.5, 2.0, (len(idx), k, 3))
        got = subset_logdet(b, idx, weights, shift=shift)
        np.testing.assert_allclose(got, naive_subset_logdet(b[None], idx, weights, shift), rtol=1e-9)

    def test_ill_conditioned_minors_at_zero_shift_track_exact_logdet(self):
        # at shift 0 a minor whose Gram has condition ~1e12 keeps only the
        # digits its conditioning allows: the kernel, like slogdet, lies
        # within k (k + 1) eps cond of the exact log det of the rounded columns
        rng = np.random.default_rng(17)
        m, n, k = 6, 8, 4
        b = rng.standard_normal((m, n))
        b[:, 1] = b[:, 0] + 1e-6 * rng.standard_normal(m)
        assert 1e12 < np.linalg.cond(b[:, :2].T @ b[:, :2]) < 1e13
        idx = colex_indices(n, k)
        got = subset_logdet(b, idx, shift=0.0)
        for s, g in zip(idx, got):
            gram = b[:, s].T @ b[:, s]
            exact = exact_gram_logdet(b[:, s])
            tol = k * (k + 1) * np.finfo(float).eps * np.linalg.cond(gram)
            assert abs(g - exact) <= tol
            assert abs(np.linalg.slogdet(gram)[1] - exact) <= tol

    def test_grams_from_columns_when_n_is_large(self):
        # 400^2 entries of B^T B exceed the budget for gathering
        rng = np.random.default_rng(14)
        n, m, k = 400, 3, 2
        panels = rng.standard_normal((1, m, n))
        idx = np.array([np.sort(rng.choice(n, k, replace=False)) for _ in range(50)])
        weights = rng.uniform(0.5, 2.0, (len(idx), k, 2))
        got = subset_logdet(panels, idx, weights, shift=0.05)
        np.testing.assert_allclose(got, naive_subset_logdet(panels, idx, weights, 0.05), rtol=1e-12)

    def test_no_slogdet_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("subset_logdet called np.linalg.slogdet")

        rng = np.random.default_rng(15)
        panels = rng.standard_normal((2, 4, 8))
        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        for k in (3, 6):  # the k x k and the m x m branch
            idx = colex_indices(8, k)
            subset_logdet(panels[0], idx, shift=0.05)
            subset_logdet(panels, idx, rng.uniform(0.5, 2.0, (len(idx), k, 2)), shift=0.05)

    def test_concurrent_calls_match_serial_bits(self):
        rng = np.random.default_rng(16)
        panels = [whiten(rng.standard_normal((6, 16))) for _ in range(2)]
        idx = colex_indices(16, 6)
        serial = [subset_logdet(b, idx, shift=0.05) for b in panels]
        barrier = threading.Barrier(2)

        def work(b):
            barrier.wait(timeout=30)
            return [subset_logdet(b, idx, shift=0.05) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, b) for b in panels]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for runs, want in zip(results, serial):
            for got in runs:
                assert np.array_equal(got, want)


@st.composite
def plan_problems(draw):
    """n, m, k with k <= m: the unweighted calls that run on a `SubsetPlan`."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, m))
    return n, m, k


def arrange(idx, layout, rng):
    """The colex block idx as given, shuffled (rows and the columns within
    them), or with repeated rows."""
    if layout == "shuffled":
        rows = idx[rng.permutation(len(idx))]
        return np.take_along_axis(rows, rng.permuted(np.tile(np.arange(idx.shape[1]), (len(idx), 1)), axis=1), axis=1)
    if layout == "repeats":
        return idx[np.sort(rng.integers(0, len(idx), len(idx) + 3))]
    return idx


class TestSubsetPlan:
    @given(
        dims=plan_problems(),
        p=st.integers(1, 3),
        layout=st.sampled_from(["colex", "shuffled", "repeats"]),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(6, 4, 1), p=1, layout="colex", shift=0.05, duplicate=False, seed=1)  # k = 1
    @example(dims=(7, 3, 2), p=2, layout="shuffled", shift=1.0, duplicate=False, seed=2)  # k = 2
    @example(dims=(8, 5, 5), p=1, layout="repeats", shift=0.05, duplicate=False, seed=3)  # k = m
    @example(dims=(6, 6, 3), p=3, layout="colex", shift=0.05, duplicate=False, seed=4)  # m = n
    @example(dims=(7, 4, 3), p=1, layout="colex", shift=0.0, duplicate=True, seed=5)  # singular
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_slogdet(self, dims, p, layout, shift, duplicate, seed):
        n, m, k = dims
        duplicate = duplicate and n >= 2
        rng = np.random.default_rng(seed)
        panels = rng.standard_normal((p, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = arrange(colex_indices(n, k), layout, rng)
        ones = np.ones((len(idx), k, p))
        got = subset_logdet(panels if p > 1 else panels[0], idx, shift=shift)
        want = naive_subset_logdet(panels, idx, ones, shift)
        for s, g, w in zip(idx, got, want):
            if shift == 0.0 and duplicate and {0, 1} <= set(s.tolist()):
                # exactly singular: both sides are rounding noise below the bound
                bound = singular_logdet_bound(panels, np.sort(s), ones[0])
                assert g <= bound and w <= bound
            elif g < SINGULAR_LOGDET or w < SINGULAR_LOGDET:
                assert g < SINGULAR_LOGDET and w < SINGULAR_LOGDET
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n, m, k", [(9, 4, 1), (9, 4, 2), (9, 4, 4), (7, 7, 3), (10, 6, 5)])
    def test_values_depend_on_the_state_only(self, monkeypatch, n, m, k):
        rng = np.random.default_rng(n * 100 + k)
        b = rng.standard_normal((2, m, n))
        idx = colex_indices(n, k)
        whole = subset_logdet(b, idx, shift=0.05)
        alone = [subset_logdet(b, idx[s : s + 1], shift=0.05)[0] for s in range(len(idx))]
        assert np.array_equal(alone, whole)
        perm = rng.permutation(len(idx))
        assert np.array_equal(subset_logdet(b, idx[perm], shift=0.05), whole[perm])
        assert np.array_equal(subset_logdet(b, idx[:, ::-1], shift=0.05), whole)
        repeats = np.sort(rng.integers(0, len(idx), 2 * len(idx)))
        assert np.array_equal(subset_logdet(b, idx[repeats], shift=0.05), whole[repeats])
        for budget in (1, 64, 700):  # one state per slice, and slices cutting nodes
            monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", budget)
            assert np.array_equal(subset_logdet(b, idx, shift=0.05), whole)

    @pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint8])
    @pytest.mark.parametrize("n, k, layout", [(9, 1, "colex"), (10, 3, "colex"), (10, 4, "shuffled"),
                                              (8, 5, "repeats")])
    def test_maps_are_native_integers(self, n, k, layout, dtype):
        # a walk gathers with the maps as stored, so none may need widening
        idx = arrange(colex_indices(n, k), layout, np.random.default_rng(n + k)).astype(dtype)
        plan = subset_plan(idx)
        maps = [plan.leaf, *(a for lev in plan.levels for a in lev)]
        assert {a.dtype for a in maps if a is not None} == {np.dtype(np.intp)}
        b = whiten(np.random.default_rng(k).standard_normal((k, n)))
        assert np.array_equal(subset_logdet(b, plan, shift=0.05),
                              subset_logdet(b, idx.astype(np.intp), shift=0.05))

    def test_one_plan_for_many_matrices_and_shifts(self):
        rng = np.random.default_rng(18)
        idx = colex_indices(12, 4)
        plan = subset_plan(idx)
        assert plan.indices is idx  # a read-only block is kept, not copied
        for shift in (0.0, 0.05, 1.0):
            b = whiten(rng.standard_normal((5, 12)))
            assert np.array_equal(subset_logdet(b, plan, shift=shift), subset_logdet(b, idx, shift=shift))

    def test_plan_serves_the_weighted_and_column_paths(self):
        rng = np.random.default_rng(19)
        panels = rng.standard_normal((2, 4, 8))
        for k in (3, 6):  # gathered weighted Grams, and k > m
            idx = colex_indices(8, k)
            plan = subset_plan(idx)
            weights = rng.uniform(0.5, 2.0, (len(idx), k, 2))
            assert np.array_equal(subset_logdet(panels, plan, weights), subset_logdet(panels, idx, weights))
            assert np.array_equal(subset_logdet(panels[0], plan), subset_logdet(panels[0], idx))

    def test_plan_shared_by_two_threads_gives_serial_bits(self):
        rng = np.random.default_rng(20)
        panels = [whiten(rng.standard_normal((6, 16))) for _ in range(2)]
        plan = subset_plan(colex_indices(16, 6))
        serial = [subset_logdet(b, plan, shift=0.05) for b in panels]
        barrier = threading.Barrier(2)

        def work(b):
            barrier.wait(timeout=30)
            return [subset_logdet(b, plan, shift=0.05) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, b) for b in panels]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for runs, want in zip(results, serial):
            for got in runs:
                assert np.array_equal(got, want)

    def test_sparse_block_stores_no_more_than_its_states_alone(self):
        # a colex-sorted sample shares top columns but few lower ones; the
        # slices that would store more than their states one by one are halved
        rng = np.random.default_rng(21)
        n, m, k = 120, 6, 5
        idx = np.unique(np.sort(rng.random((3000, n)).argsort(axis=1)[:, :k], axis=1), axis=0)
        idx = idx[np.lexsort(idx.T)]
        plan = subset_plan(idx)
        stored = sum(len(lev.ab) for lev in plan.levels)
        assert stored <= len(idx) * (k - 1) * k * (k + 1) // 6
        b = rng.standard_normal((m, n))
        pick = rng.integers(0, len(idx), 40)
        got = subset_logdet(b, plan, shift=0.05)[pick]
        want = naive_subset_logdet(b[None], idx[pick], np.ones((len(pick), k, 1)), 0.05)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_index_checks(self):
        with pytest.raises(ValueError):
            subset_plan([[0, 2, 2]])  # a repeated column
        with pytest.raises(ValueError):
            subset_plan([[-1, 2]])
        with pytest.raises(ValueError):
            subset_plan(np.zeros((3, 0), dtype=int))
        with pytest.raises(ValueError):
            subset_plan([[0.0, 1.0]])
        with pytest.raises(ValueError):
            subset_logdet(np.eye(3), subset_plan([[0, 3]]))  # beyond n
        with pytest.raises(ValueError):
            subset_logdet(np.eye(3), [[1, 1]])

    def test_empty_block(self):
        for k in (1, 3):
            got = subset_logdet(np.eye(3), np.empty((0, k), dtype=np.intp), shift=0.05)
            assert got.shape == (0,)


def conditioning_slack(panels, s, weights, shift):
    """sum over grid points of k (k + 1) eps cond(shift I + A^T A): how far
    two backward-stable log-determinants of the state s may differ."""
    total = 0.0
    for j in range(weights.shape[1]):
        a = panels[j % len(panels)][:, s] * weights[:, j]
        total += len(s) * (len(s) + 1) * np.finfo(float).eps * np.linalg.cond(shift * np.eye(len(s)) + a.T @ a)
    return total


def column_weights(rng, n, q, decades):
    """(n, q) column weights, log-uniform over 10^-decades .. 10^decades."""
    return 10.0 ** rng.uniform(-decades, decades, (n, q))


class TestWeightedPlan:
    """Per-column weights along a `SubsetPlan`: one weighted Gram per grid point."""

    @given(
        dims=plan_problems(),
        grid=st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 3)]),  # (panels, q)
        layout=st.sampled_from(["colex", "shuffled", "repeats"]),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        decades=st.sampled_from([0.3, 3.0]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(6, 4, 1), grid=(1, 3), layout="colex", shift=0.05, decades=3.0, duplicate=False, seed=1)  # k = 1
    @example(dims=(8, 5, 5), grid=(2, 2), layout="repeats", shift=1.0, decades=3.0, duplicate=False, seed=2)  # k = m
    @example(dims=(6, 6, 3), grid=(3, 3), layout="shuffled", shift=0.0, decades=0.3, duplicate=False, seed=3)  # m = n
    @example(dims=(7, 4, 3), grid=(1, 1), layout="colex", shift=0.0, decades=0.3, duplicate=True, seed=4)  # singular
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_slogdet(self, dims, grid, layout, shift, decades, duplicate, seed):
        n, m, k = dims
        # a repeated column with weights far from 1 leaves a pivot that is
        # all cancellation, in every elimination order: no digits to compare
        duplicate = duplicate and n >= 2 and decades < 1
        rng = np.random.default_rng(seed)
        p, q = grid
        panels = rng.standard_normal((p, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = arrange(colex_indices(n, k), layout, rng)
        weights = column_weights(rng, n, q, decades)
        got = subset_logdet(panels, subset_plan(idx), weights, shift=shift)
        want = naive_subset_logdet(panels, idx, weights[idx], shift)
        for s, g, w in zip(idx, got, want):
            s = np.sort(s)
            if shift == 0.0 and duplicate and {0, 1} <= set(s.tolist()):
                # exactly singular: both sides are rounding noise below the bound
                bound = singular_logdet_bound(panels, s, weights[s])
                assert g <= bound and w <= bound
                continue
            # 1e-9 where the minors are well conditioned; an ill-conditioned
            # one keeps only the digits its backward error allows
            slack = conditioning_slack(panels, s, weights[s], shift)
            assert abs(g - w) <= 1e-9 * max(abs(w), 1.0) + slack

    @given(
        dims=plan_problems(),
        grid=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(8, 6, 6), grid=(2, 2), shift=1.0, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_weights_from_1e_minus150_to_1e150(self, dims, grid, shift, seed):
        n, m, k = dims
        rng = np.random.default_rng(seed)
        p, q = grid
        panels = rng.standard_normal((p, m, n))
        idx = colex_indices(n, k)
        weights = column_weights(rng, n, q, 150.0)
        weights[rng.integers(0, n), 0] = 1e150
        weights[rng.integers(0, n), -1] = 1e-150
        got = subset_logdet(panels, subset_plan(idx), weights, shift=shift)
        assert np.all(np.isfinite(got))
        want = naive_subset_logdet(panels, idx, weights[idx], shift)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_beyond_the_range(self):
        # below: the weighted entries underflow and the shift alone is left;
        # above: an entry overflows and no value is finite, on either path
        rng = np.random.default_rng(30)
        panels = rng.standard_normal((2, 5, 9))
        idx = colex_indices(9, 3)
        plan = subset_plan(idx)
        tiny = np.full((9, 2), 1e-200)
        assert np.array_equal(subset_logdet(panels, plan, tiny), np.zeros(len(idx)))
        assert np.array_equal(subset_logdet(panels, idx, tiny[idx]), np.zeros(len(idx)))
        for k in (1, 3):
            huge = np.full((9, 2), 1.0)
            huge[4] = 1e160
            idx = colex_indices(9, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                along = subset_logdet(panels, subset_plan(idx), huge)
            with np.errstate(over="ignore"):  # the gathered path scales its Grams unguarded
                per_state = subset_logdet(panels, idx, huge[idx])
            for got in (along, per_state):
                assert np.array_equal(np.isfinite(got), ~np.any(idx == 4, axis=1))

    @pytest.mark.parametrize("n, m, k", [(7, 4, 2), (7, 4, 4), (8, 3, 5)])
    def test_zero_column_at_zero_shift(self, n, m, k):
        # structurally singular minors give -inf exactly where the per-state
        # path gives it; k > m takes the column path, -inf everywhere
        rng = np.random.default_rng(31)
        panels = rng.standard_normal((2, m, n))
        panels[:, :, 3] = 0.0
        idx = colex_indices(n, k)
        weights = column_weights(rng, n, 2, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = subset_logdet(panels, subset_plan(idx), weights, shift=0.0)
            per_state = subset_logdet(panels, idx, weights[idx], shift=0.0)
        singular = np.any(idx == 3, axis=1) | (k > m)
        assert np.array_equal(np.isneginf(got), singular)
        assert np.array_equal(np.isneginf(per_state), singular)
        assert not np.any(np.isnan(got))

    @pytest.mark.parametrize("n, m, k", [(9, 4, 1), (9, 4, 3), (10, 6, 5)])
    def test_values_depend_on_the_state_only(self, monkeypatch, n, m, k):
        rng = np.random.default_rng(n * 100 + k)
        b = rng.standard_normal((3, m, n))
        weights = column_weights(rng, n, 3, 2.0)
        idx = colex_indices(n, k)

        def along(rows):
            return subset_logdet(b, subset_plan(rows), weights, shift=0.05)

        whole = along(idx)
        assert np.array_equal([along(idx[s : s + 1])[0] for s in range(len(idx))], whole)
        perm = rng.permutation(len(idx))
        assert np.array_equal(along(idx[perm]), whole[perm])
        assert np.array_equal(along(idx[:, ::-1]), whole)
        repeats = np.sort(rng.integers(0, len(idx), 2 * len(idx)))
        assert np.array_equal(along(idx[repeats]), whole[repeats])
        for budget in (1, 64, 700):  # one state per slice, and slices cutting nodes
            monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", budget)
            assert np.array_equal(along(idx), whole)

    def test_column_weights_on_a_block(self):
        # a block builds its plan, as unweighted; k > m gathers from the columns
        rng = np.random.default_rng(32)
        panels = rng.standard_normal((2, 4, 8))
        weights = column_weights(rng, 8, 2, 1.0)
        for k in (3, 6):
            idx = colex_indices(8, k)
            got = subset_logdet(panels, idx, weights)
            assert np.array_equal(got, subset_logdet(panels, subset_plan(idx), weights))
            if k > 4:
                assert np.array_equal(got, subset_logdet(panels, idx, weights[idx]))

    def test_column_weight_shapes(self):
        b = np.ones((2, 3, 6))
        idx = colex_indices(6, 2)
        for bad in (np.ones((5, 2)), np.ones((7, 2)), np.ones((6, 3))):
            with pytest.raises(ValueError):
                subset_logdet(b, subset_plan(idx), bad)
            with pytest.raises(ValueError):
                subset_logdet(b, idx, bad)
        assert subset_logdet(b[0], subset_plan(idx), np.ones((6, 4))).shape == (len(idx),)


class TestRankFloor:
    """whiten, SamplerSpec and the experiments' draw share one rank floor."""

    @staticmethod
    def near_floor(side: float) -> np.ndarray:
        # Q Q^T = diag(1, c): lambda_min = c, floor = F (1 + c) / 2, equal at c = F / (2 - F)
        c = RANK_FLOOR_FACTOR / (2.0 - RANK_FLOOR_FACTOR) * (1.0 + side * 1e-6)
        return np.array([[1.0, 0.0, 0.0], [0.0, math.sqrt(c), 0.0]])

    def test_just_below_rejected_everywhere(self, monkeypatch):
        q = self.near_floor(-1.0)
        with pytest.raises(SingularityError):
            full_rank_gram(q)
        with pytest.raises(SingularityError):
            whiten(q)
        with pytest.raises(SingularityError):
            make_flat_sampler(q)
        monkeypatch.setattr(experiments, "draw_matrix", lambda spec: q)
        with pytest.raises(NumericalError):
            experiments._draw_full_rank(EnsembleSpec("gaussian", 2, 3, 0))

    def test_just_above_accepted_everywhere(self, monkeypatch):
        q = self.near_floor(+1.0)
        full_rank_gram(q)
        np.testing.assert_allclose(whiten(q) @ whiten(q).T, np.eye(2), atol=1e-10)
        assert make_flat_sampler(q).m == 2
        monkeypatch.setattr(experiments, "draw_matrix", lambda spec: q)
        assert experiments._draw_full_rank(EnsembleSpec("gaussian", 2, 3, 0)) is q

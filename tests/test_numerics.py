import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from conftest import spy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subnyq import experiments, numerics
from subnyq.converse import subset_det_sum_closed
from subnyq.numerics import (
    RANK_FLOOR_FACTOR,
    NumericalError,
    SingularityError,
    binary_entropy,
    colex_indices,
    colex_plan,
    det_floor,
    full_rank_gram,
    log_binomial,
    logdet_shifted,
    minimax_limit,
    rect_logdet_limit,
    spectral_decomp,
    subset_logdet,
    whiten,
)
from subnyq.samplers import EnsembleSpec, make_flat_sampler


class TestWhiten:
    def test_complex_rejected(self):
        dft = np.fft.fft(np.eye(4))[:2] / 2.0
        with pytest.raises(ValueError, match="complex"):
            whiten(dft)
        # a complex dtype is refused even when the imaginary part is zero
        with pytest.raises(ValueError, match="complex"):
            whiten(dft.real.astype(complex))

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
        v = dec.eigenvectors
        err = np.linalg.norm((v * dec.eigenvalues) @ v.T - s) / np.linalg.norm(s)
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
    """n, m, k with k <= m: the unweighted calls that run on a `SubsetPlan`,
    and a colex range lo .. hi - 1 of the C(n, k) states, often all of them."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, m))
    total = math.comb(n, k)
    if draw(st.booleans()):
        return n, m, k, 0, total
    lo = draw(st.integers(0, total - 1))
    return n, m, k, lo, draw(st.integers(lo + 1, total))


def arrange(idx, layout, rng):
    """The colex block idx as given, shuffled (rows and the columns within
    them), or with repeated rows."""
    if layout == "shuffled":
        rows = idx[rng.permutation(len(idx))]
        return np.take_along_axis(rows, rng.permuted(np.tile(np.arange(idx.shape[1]), (len(idx), 1)), axis=1), axis=1)
    if layout == "repeats":
        return idx[np.sort(rng.integers(0, len(idx), len(idx) + 3))]
    return idx


def colex_ranks(idx):
    """The colex rank sum_i C(c_i, i + 1) of each state, c_0 < c_1 < ... its columns."""
    return np.array([sum(math.comb(c, i + 1) for i, c in enumerate(row))
                     for row in np.sort(idx, axis=1).tolist()], dtype=np.intp)


def trie_plan(idx):
    """The reference for `colex_plan`: the trie of an (S, k) block of
    ascending rows, built state by state in the `SubsetPlan` layout.

    Returns (ncols, levels, leaf): each level a tuple of lists (parent,
    pivot, width, column, ab, ra, reps) with ra and reps None at the last
    level, and leaf each state's last-level entry (its Gram diagonal entry
    for k = 1).  A level-j node is a run of states sharing their top j
    columns; its rows are the columns its states hold below them.
    """
    rows = [tuple(reversed(r)) for r in idx.tolist()]  # each state's columns, descending
    k = len(rows[0])
    ncols = max(r[0] for r in rows) + 1
    if k == 1:
        return ncols, [], [r[0] * (ncols + 1) for r in rows]
    levels = []
    above = {(): (0, None, 0, 0)}  # prefix -> (node, row place of each column, first entry, first row)
    for j in range(1, k):
        last = j == k - 1
        below = {}  # each j-prefix, in order of first appearance, and its columns below
        for r in rows:
            below.setdefault(r[:j], set()).update(r[j:])

        def entry(up, x, y):  # entry (x, y), x <= y, of the node up at the level above
            if j == 1:
                return x * ncols + y
            _, place, first, _ = above[up]
            return first + place[y] * (place[y] + 1) // 2 + place[x]

        parent, pivot, width, column, ab, ra, reps = ([] for _ in range(7))
        nodes, stored = {}, 0
        for node, (prefix, cols) in enumerate(below.items()):
            up, c, cols = prefix[:-1], prefix[-1], sorted(cols)
            nodes[prefix] = (node, {a: x for x, a in enumerate(cols)}, stored, len(column))
            parent.append(above[up][0])
            pivot.append(entry(up, c, c))
            width.append(len(cols))
            for y, b in enumerate(cols):
                column.append(entry(up, b, c))
                if last:
                    ab.append(entry(up, b, b))
                    continue
                reps.append(y + 1)
                for x, a in enumerate(cols[: y + 1]):
                    ab.append(entry(up, a, b))
                    ra.append(nodes[prefix][3] + x)
            stored += len(cols) if last else len(cols) * (len(cols) + 1) // 2
        levels.append((parent, pivot, width, column, ab, None if last else ra, None if last else reps))
        above = nodes
    leaf = []
    for r in rows:
        _, place, _, row0 = above[r[:-1]]
        leaf.append(row0 + place[r[-1]])
    return ncols, levels, leaf


def stored_entries(n, k):
    """The entries of the plan of all of colex(n, k), in closed form: for
    c >= k - j, C(n - 1 - c, j - 1) level-j nodes have pivot c, and each
    stores the triangle of its c rows (their diagonal at the last level)."""
    return sum(math.comb(n - 1 - c, j - 1) * (c if j == k - 1 else c * (c + 1) // 2)
               for j in range(1, k) for c in range(k - j, n))


class TestSubsetPlan:
    @given(
        dims=plan_problems(),
        p=st.integers(1, 3),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(6, 4, 1, 2, 5), p=1, shift=0.05, duplicate=False, seed=1)  # k = 1
    @example(dims=(7, 3, 2, 4, 17), p=2, shift=1.0, duplicate=False, seed=2)  # k = 2, cut at both ends
    @example(dims=(8, 5, 5, 0, 56), p=1, shift=0.05, duplicate=False, seed=3)  # k = m
    @example(dims=(6, 6, 3, 0, 20), p=3, shift=0.05, duplicate=False, seed=4)  # m = n
    @example(dims=(7, 4, 3, 0, 35), p=1, shift=0.0, duplicate=True, seed=5)  # singular
    @example(dims=(5, 5, 5, 0, 1), p=2, shift=0.05, duplicate=False, seed=6)  # k = n
    @example(dims=(8, 4, 4, 33, 34), p=1, shift=0.05, duplicate=False, seed=7)  # one state
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_slogdet(self, dims, p, shift, duplicate, seed):
        n, m, k, lo, hi = dims
        duplicate = duplicate and n >= 2
        rng = np.random.default_rng(seed)
        panels = rng.standard_normal((p, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = colex_indices(n, k)[lo:hi]
        ones = np.ones((len(idx), k, p))
        got = subset_logdet(panels if p > 1 else panels[0], colex_plan(n, k, lo, hi), shift=shift)
        want = naive_subset_logdet(panels, idx, ones, shift)
        for s, g, w in zip(idx, got, want):
            if shift == 0.0 and duplicate and {0, 1} <= set(s.tolist()):
                # exactly singular: both sides are rounding noise below the bound
                bound = singular_logdet_bound(panels, s, ones[0])
                assert g <= bound and w <= bound
            elif g < SINGULAR_LOGDET or w < SINGULAR_LOGDET:
                assert g < SINGULAR_LOGDET and w < SINGULAR_LOGDET
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_maps_equal_the_reference_trie(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                plan = colex_plan(n, k)
                ncols, levels, leaf = trie_plan(colex_indices(n, k))
                assert plan.ncols == ncols and len(plan.levels) == len(levels)
                for lev, want in zip(plan.levels, levels):
                    for got, ref in zip(lev, want):
                        assert (got is None) == (ref is None), (n, k)
                        assert ref is None or np.array_equal(got, ref), (n, k)
                if plan.leaf is None:
                    assert k > 1 and leaf == list(range(len(leaf)))
                else:
                    assert np.array_equal(plan.leaf, leaf), (n, k)

    @given(
        n=st.integers(1, 10),
        k=st.integers(1, 10),
        cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=9, k=1, cut=(0.2, 0.7), weighted=False, seed=1)  # k = 1
    @example(n=9, k=2, cut=(0.3, 0.6), weighted=True, seed=2)  # k = 2
    @example(n=7, k=7, cut=(0.0, 1.0), weighted=False, seed=3)  # k = n
    @example(n=10, k=4, cut=(0.41, 0.41), weighted=True, seed=4)  # hi - lo = 1
    @example(n=10, k=5, cut=(0.13, 0.87), weighted=False, seed=5)  # cut at both ends
    @settings(max_examples=100, deadline=None)
    def test_ranges_are_bit_identical_to_the_whole(self, n, k, cut, weighted, seed):
        # a state's arithmetic does not depend on the range it is planned in
        k = min(k, n)
        total = math.comb(n, k)
        lo = min(int(min(cut) * total), total - 1)
        hi = max(int(max(cut) * total), lo + 1)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((2, k, n))
        weights = column_weights(rng, n, 2, 2.0) if weighted else None
        whole = subset_logdet(b, colex_plan(n, k), weights, shift=0.05)
        assert np.array_equal(subset_logdet(b, colex_plan(n, k, lo, hi), weights, shift=0.05),
                              whole[lo:hi])

    @pytest.mark.parametrize("n, m, k", [(9, 4, 1), (9, 4, 2), (9, 4, 4), (7, 7, 3), (10, 6, 5)])
    def test_values_depend_on_the_state_only(self, n, m, k):
        rng = np.random.default_rng(n * 100 + k)
        b = rng.standard_normal((2, m, n))
        total = math.comb(n, k)

        def along(lo, hi):
            return subset_logdet(b, colex_plan(n, k, lo, hi), shift=0.05)

        whole = along(0, total)
        alone = [along(s, s + 1)[0] for s in range(total)]
        assert np.array_equal(alone, whole)
        for cut in range(1, total):  # two runs, as the achievability workers split a block
            assert np.array_equal(np.concatenate([along(0, cut), along(cut, total)]), whole)
        for lo, hi in np.sort(rng.integers(0, total + 1, (20, 2)), axis=1):
            if lo < hi:
                assert np.array_equal(along(lo, hi), whole[lo:hi])

    @pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint8])
    @pytest.mark.parametrize("n, k, layout", [(9, 1, "colex"), (10, 3, "colex"), (10, 4, "shuffled"),
                                              (8, 5, "repeats")])
    def test_maps_are_native_integers(self, n, k, layout, dtype):
        # a walk gathers with the maps as stored, so none may need widening,
        # whatever integer type the bounds come in; the plan's values at the
        # colex ranks of a block, in any layout, are the block's to rounding
        idx = arrange(colex_indices(n, k), layout, np.random.default_rng(n + k)).astype(dtype)
        ranks = colex_ranks(idx)
        lo, hi = ranks.min(), ranks.max() + 1
        plan = colex_plan(*(dtype(v) for v in (n, k, lo, hi)))
        assert (plan.n, plan.k, plan.lo, plan.hi) == (n, k, lo, hi)
        assert all(type(v) is int for v in (plan.n, plan.k, plan.lo, plan.hi, plan.ncols))
        maps = [plan.leaf, *(a for lev in plan.levels for a in lev)]
        assert {a.dtype for a in maps if a is not None} == {np.dtype(np.intp)}
        b = whiten(np.random.default_rng(k).standard_normal((k, n)))
        np.testing.assert_allclose(subset_logdet(b, plan, shift=0.05)[ranks - lo],
                                   subset_logdet(b, idx, shift=0.05), rtol=1e-13)

    def test_one_plan_for_many_matrices_and_shifts(self):
        rng = np.random.default_rng(18)
        plan = colex_plan(12, 4)
        assert (plan.n, plan.k, plan.lo, plan.hi, plan.ncols) == (12, 4, 0, 495, 12)
        for shift in (0.0, 0.05, 1.0):
            b = whiten(rng.standard_normal((5, 12)))
            assert np.array_equal(subset_logdet(b, plan, shift=shift),
                                  subset_logdet(b, colex_plan(12, 4), shift=shift))

    def test_plan_serves_the_weighted_and_column_paths(self):
        # per-state weights gather, and k > m forms the Grams from the
        # columns, whether idx is a plan or its block; unweighted at k <= m,
        # only the plan runs along it, and agrees to rounding
        rng = np.random.default_rng(19)
        panels = rng.standard_normal((2, 4, 8))
        for k in (3, 6):  # gathered weighted Grams, and k > m
            idx = colex_indices(8, k)
            for lo, hi in ((0, len(idx)), (5, len(idx) - 7)):
                plan = colex_plan(8, k, lo, hi)
                weights = rng.uniform(0.5, 2.0, (hi - lo, k, 2))
                assert np.array_equal(subset_logdet(panels, plan, weights),
                                      subset_logdet(panels, idx[lo:hi], weights))
                along, alone = subset_logdet(panels[0], plan), subset_logdet(panels[0], idx[lo:hi])
                if k > 4:
                    assert np.array_equal(along, alone)
                else:
                    np.testing.assert_allclose(along, alone, rtol=1e-13)

    def test_plan_shared_by_two_threads_gives_serial_bits(self):
        rng = np.random.default_rng(20)
        panels = [whiten(rng.standard_normal((6, 16))) for _ in range(2)]
        plan = colex_plan(16, 6)
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

    def test_stored_entries_follow_the_closed_form(self):
        # all of C(16, 6) in 28,798 entries; a range stores the whole nodes
        # it cuts, so one state stores one node per level
        assert stored_entries(16, 6) == 28_798
        for n, k in [(16, 6), (12, 1), (12, 2), (11, 5), (9, 9)]:
            plan = colex_plan(n, k)
            assert sum(len(lev.ab) for lev in plan.levels) == stored_entries(n, k)
        plan = colex_plan(16, 6, 4321, 4322)
        assert [len(lev.parent) for lev in plan.levels] == [1] * 5
        assert plan.leaf is not None and len(plan.leaf) == 1

    def test_index_checks(self):
        for args in [(4, 0), (3, 4), (5, 2, -1, 3), (5, 2, 3, 3), (5, 2, 0, 11), (100, 50)]:
            with pytest.raises(ValueError):
                colex_plan(*args)  # k out of range, an empty or outside range, beyond int64
        with pytest.raises(ValueError):
            subset_logdet(np.eye(3), colex_plan(4, 2))  # beyond n
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
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        decades=st.sampled_from([0.3, 3.0]),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(6, 4, 1, 0, 6), grid=(1, 3), shift=0.05, decades=3.0, duplicate=False, seed=1)  # k = 1
    @example(dims=(8, 5, 5, 3, 50), grid=(2, 2), shift=1.0, decades=3.0, duplicate=False, seed=2)  # k = m, cut
    @example(dims=(6, 6, 3, 0, 20), grid=(3, 3), shift=0.0, decades=0.3, duplicate=False, seed=3)  # m = n
    @example(dims=(7, 4, 3, 0, 35), grid=(1, 1), shift=0.0, decades=0.3, duplicate=True, seed=4)  # singular
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_slogdet(self, dims, grid, shift, decades, duplicate, seed):
        n, m, k, lo, hi = dims
        # a repeated column with weights far from 1 leaves a pivot that is
        # all cancellation, in every elimination order: no digits to compare
        duplicate = duplicate and n >= 2 and decades < 1
        rng = np.random.default_rng(seed)
        p, q = grid
        panels = rng.standard_normal((p, m, n))
        if duplicate:
            panels[:, :, 1] = panels[:, :, 0]
        idx = colex_indices(n, k)[lo:hi]
        weights = column_weights(rng, n, q, decades)
        got = subset_logdet(panels, colex_plan(n, k, lo, hi), weights, shift=shift)
        want = naive_subset_logdet(panels, idx, weights[idx], shift)
        for s, g, w in zip(idx, got, want):
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
    @example(dims=(8, 6, 6, 0, 28), grid=(2, 2), shift=1.0, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_weights_from_1e_minus150_to_1e150(self, dims, grid, shift, seed):
        n, m, k, lo, hi = dims
        rng = np.random.default_rng(seed)
        p, q = grid
        panels = rng.standard_normal((p, m, n))
        idx = colex_indices(n, k)[lo:hi]
        weights = column_weights(rng, n, q, 150.0)
        weights[rng.integers(0, n), 0] = 1e150
        weights[rng.integers(0, n), -1] = 1e-150
        got = subset_logdet(panels, colex_plan(n, k, lo, hi), weights, shift=shift)
        assert np.all(np.isfinite(got))
        want = naive_subset_logdet(panels, idx, weights[idx], shift)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_beyond_the_range(self):
        # below: the weighted entries underflow and the shift alone is left;
        # above: an entry overflows and no value is finite, on either path
        rng = np.random.default_rng(30)
        panels = rng.standard_normal((2, 5, 9))
        idx = colex_indices(9, 3)
        plan = colex_plan(9, 3)
        tiny = np.full((9, 2), 1e-200)
        assert np.array_equal(subset_logdet(panels, plan, tiny), np.zeros(len(idx)))
        assert np.array_equal(subset_logdet(panels, idx, tiny[idx]), np.zeros(len(idx)))
        for k in (1, 3):
            huge = np.full((9, 2), 1.0)
            huge[4] = 1e160
            idx = colex_indices(9, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                along = subset_logdet(panels, colex_plan(9, k), huge)
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
            got = subset_logdet(panels, colex_plan(n, k), weights, shift=0.0)
            per_state = subset_logdet(panels, idx, weights[idx], shift=0.0)
        singular = np.any(idx == 3, axis=1) | (k > m)
        assert np.array_equal(np.isneginf(got), singular)
        assert np.array_equal(np.isneginf(per_state), singular)
        assert not np.any(np.isnan(got))

    @pytest.mark.parametrize("n, m, k", [(9, 4, 1), (9, 4, 3), (10, 6, 5)])
    def test_values_depend_on_the_state_only(self, n, m, k):
        rng = np.random.default_rng(n * 100 + k)
        b = rng.standard_normal((3, m, n))
        weights = column_weights(rng, n, 3, 2.0)
        total = math.comb(n, k)

        def along(lo, hi):
            return subset_logdet(b, colex_plan(n, k, lo, hi), weights, shift=0.05)

        whole = along(0, total)
        assert np.array_equal([along(s, s + 1)[0] for s in range(total)], whole)
        for cut in range(1, total):
            assert np.array_equal(np.concatenate([along(0, cut), along(cut, total)]), whole)
        for lo, hi in np.sort(rng.integers(0, total + 1, (20, 2)), axis=1):
            if lo < hi:
                assert np.array_equal(along(lo, hi), whole[lo:hi])

    def test_column_weights_on_a_block(self, monkeypatch):
        # a block builds no plan: it gathers from the scaled Grams, with the
        # bits of its states' own weights; only a plan runs along the plan
        rng = np.random.default_rng(32)
        panels = rng.standard_normal((2, 4, 8))
        weights = column_weights(rng, 8, 2, 1.0)
        for k in (3, 6):  # gathered Grams, and k > m from the columns
            idx = colex_indices(8, k)
            along = subset_logdet(panels, colex_plan(8, k), weights)
            plans = spy(monkeypatch, numerics.colex_plan)
            got = subset_logdet(panels, idx, weights)
            assert plans == []
            assert np.array_equal(got, subset_logdet(panels, idx, weights[idx]))
            if k > 4:
                assert np.array_equal(got, along)
            else:
                np.testing.assert_allclose(got, along, rtol=1e-13)
            monkeypatch.undo()

    @given(
        dims=subset_problems(),
        grid=st.sampled_from([(1, 1), (1, 3), (3, 3)]),  # (panels, q): p = 1 and p = q
        layout=st.sampled_from(["colex", "shuffled", "repeats"]),
        shift=st.sampled_from([0.0, 0.05, 1.0]),
        decades=st.sampled_from([0.3, 150.0]),
        one_at_a_time=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(6, 2, 4), grid=(1, 3), layout="colex", shift=0.05, decades=150.0,
             one_at_a_time=False, seed=1)  # k > m
    @example(dims=(6, 4, 3), grid=(1, 3), layout="shuffled", shift=0.0, decades=150.0,
             one_at_a_time=True, seed=2)  # one scaled Gram at a time
    @settings(max_examples=150, deadline=None)
    def test_block_with_column_weights_is_bit_identical_to_its_states_own(
        self, dims, grid, layout, shift, decades, one_at_a_time, seed
    ):
        # column weights on a block scale each grid point's Gram once, whole
        # or (beyond the Gram budget) one grid point at a time; each state's
        # own weights w[idx] scale its gathered entries: the same bits
        n, m, k = dims
        rng = np.random.default_rng(seed)
        p, q = grid
        panels = rng.standard_normal((p, m, n))
        idx = arrange(colex_indices(n, k), layout, rng)
        weights = column_weights(rng, n, q, decades)
        weights[rng.integers(0, n), 0] = 10.0**decades
        weights[rng.integers(0, n), -1] = 10.0**-decades
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            if one_at_a_time:
                mp.setattr(numerics, "_GRAM_ELEMENTS", p * n * n)
            got = subset_logdet(panels, idx, weights, shift=shift)
            want = subset_logdet(panels, idx, weights[idx], shift=shift)
        assert np.array_equal(got, want, equal_nan=True)

    def test_column_weight_shapes(self):
        b = np.ones((2, 3, 6))
        idx = colex_indices(6, 2)
        for bad in (np.ones((5, 2)), np.ones((7, 2)), np.ones((6, 3))):
            with pytest.raises(ValueError):
                subset_logdet(b, colex_plan(6, 2), bad)
            with pytest.raises(ValueError):
                subset_logdet(b, idx, bad)
        assert subset_logdet(b[0], colex_plan(6, 2), np.ones((6, 4))).shape == (len(idx),)


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
            experiments._draw_full_rank(EnsembleSpec("gaussian", 2, 3, 0), whiten)

    def test_just_above_accepted_everywhere(self, monkeypatch):
        q = self.near_floor(+1.0)
        full_rank_gram(q)
        np.testing.assert_allclose(whiten(q) @ whiten(q).T, np.eye(2), atol=1e-10)
        assert make_flat_sampler(q).m == 2
        monkeypatch.setattr(experiments, "draw_matrix", lambda spec: q)
        sampler = experiments._draw_full_rank(EnsembleSpec("gaussian", 2, 3, 0), make_flat_sampler)
        assert np.array_equal(sampler.matrix, q)

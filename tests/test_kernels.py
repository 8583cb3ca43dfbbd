"""Kernel-level tests: exactness and oracle equivalence."""

import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundle_census import _kernels_py as kpy
from bundle_census import kernels, stirling_first
from bundle_census.sweep import SweepSpec, render_chunk
from oracles import (
    binom_sum_brute,
    elem_sym_brute,
    falling_factorial,
    power_sum_brute,
    schwarz_terms_companion,
)

# every case runs on _kernels_py; the single "python" id keeps the test
# names the suite has always reported
on_kernels = pytest.mark.parametrize("kern", [kpy], ids=["python"])


def test_library_calls_the_reference_kernels():
    # the cases below exercise _kernels_py; this pins that the library
    # runs the very same functions
    for name in ("schwarz_terms", "binomial_sum_num_den", "stirling_row", "stirling_first"):
        assert getattr(kernels, name) is getattr(kpy, name), name
    assert kernels.backend_name() == "python"


@on_kernels
class TestStirling:
    def test_base_case(self, kern):
        assert kern.stirling_first(0, 0) == 1

    def test_row_three(self, kern):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert kern.stirling_first(3, 2) == -3
        assert kern.stirling_first(3, 1) == 2
        assert kern.stirling_row(3) == (0, 2, -3, 1)

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError):
            kern.stirling_first(2, 3)
        with pytest.raises(ValueError):
            kern.stirling_first(-1, 0)
        with pytest.raises(ValueError):
            kern.stirling_first(3, -1)

    def test_row_sums_are_falling_factorials(self, kern):
        for r in range(0, 9):
            row = kern.stirling_row(r)
            for m in range(-10, 11):
                value = sum(row[k] * m**k for k in range(r + 1))
                assert value == falling_factorial(m, r), (r, m)

    def test_concurrent_table_growth(self, kern):
        # many threads force the same deep rows; the memo table must stay
        # consistent (rows are checked against a fresh serial computation)
        import threading

        results = []

        def worker():
            results.append(kern.stirling_row(60))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = results[0]
        assert all(row == want for row in results)
        # spot-check the row against the defining identity at x = 3
        assert sum(want[k] * 3**k for k in range(61)) == falling_factorial(3, 60)


class TestStirlingFirst:
    # the public name, as the package exports it
    def test_empty_product(self):
        assert stirling_first(0, 0) == 1

    def test_hand_expansion(self):
        assert stirling_first(3, 2) == -3
        assert stirling_first(3, 1) == 2

    def test_rejects_k_above_r(self):
        with pytest.raises(ValueError):
            stirling_first(4, 5)


@on_kernels
class TestPowerSums:
    def test_all_zero_roots(self, kern):
        assert kern.power_sums((0, 0, 0), 7) == [0] * 7

    def test_two_unit_coefficients(self, kern):
        assert kern.power_sums((1, 1), 2) == [1, -1]

    @given(
        roots=st.lists(st.integers(-20, 20), min_size=1, max_size=10),
        extra=st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_matches_direct_powering(self, kern, roots, extra):
        coeffs = elem_sym_brute(roots)
        R = len(roots) + extra
        got = kern.power_sums(coeffs, R)
        assert got == [power_sum_brute(roots, k) for k in range(1, R + 1)]

    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_huge_inputs_stay_exact(self, kern, roots):
        coeffs = elem_sym_brute(roots)
        got = kern.power_sums(coeffs, len(roots) + 2)
        assert got == [power_sum_brute(roots, k) for k in range(1, len(roots) + 3)]


@on_kernels
class TestBinomialSum:
    def test_zero_roots(self, kern):
        assert kern.binomial_sum_num_den((0, 0, 0), 4) == (0, 1)

    def test_roots_two_three(self, kern):
        # C(2,2) + C(3,2) = 1 + 3
        assert kern.binomial_sum_num_den((5, 6), 2) == (4, 1)

    def test_half_integral_case(self, kern):
        assert kern.binomial_sum_num_den((1, 1), 2) == (-1, 1)
        assert kern.binomial_sum_num_den((1, 1, 0), 3) == (1, 2)

    @given(
        roots=st.lists(st.integers(-12, 12), min_size=1, max_size=8),
        r=st.integers(1, 10),
    )
    @settings(max_examples=200)
    def test_integer_roots_give_integers(self, kern, roots, r):
        num, den = kern.binomial_sum_num_den(elem_sym_brute(roots), r)
        want = binom_sum_brute(roots, r)
        assert den == want.denominator == 1
        assert num == want


@on_kernels
class TestSchwarzTerms:
    def test_covers_two_through_n(self, kern):
        terms = kern.schwarz_terms((1, 2, 3, 4), 4)
        assert [t[0] for t in terms] == [2, 3, 4]

    def test_length_must_match(self, kern):
        with pytest.raises(ValueError):
            kern.schwarz_terms((1, 2), 3)

    def test_n_one_is_vacuous(self, kern):
        assert kern.schwarz_terms((5,), 1) == []

    @given(
        classes=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
    )
    @settings(max_examples=200)
    def test_agrees_with_binomial_sum(self, kern, classes):
        N = len(classes)
        terms = kern.schwarz_terms(tuple(classes), N)
        for r, num, den in terms:
            assert (num, den) == kern.binomial_sum_num_den(tuple(classes), r)
            assert den >= 1



def certified_edge(order):
    """Largest max|c_i| that int64_certified admits for S_order."""
    lo, hi = 0, kernels.INT64_LIMIT
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kernels.int64_certified(order, mid) else (lo, mid)
    return lo


# every order the certificate admits at all: N * N! < 2^62 up to N = 19
ORDERS = range(2, 20)


def assert_batch_matches_reference(rows, dtype=np.int64, runs_on=np.int64):
    """The batch kernel on ``rows`` as ``dtype`` ran on ``runs_on`` and agrees with kpy."""
    classes = np.array(rows, dtype=dtype)
    num, den = kernels.schwarz_terms_batch(classes)
    order = classes.shape[1]
    assert num.shape == den.shape == (len(rows), order - 1)
    assert num.dtype == den.dtype == runs_on
    for row, nums, dens in zip(rows, num.tolist(), den.tolist()):
        got = [(r, n, d) for r, n, d in zip(range(2, order + 1), nums, dens)]
        assert got == kpy.schwarz_terms(tuple(row), order), row


class TestBatchKernel:
    def test_certificate_is_the_stated_bound(self):
        for order in ORDERS:
            m = certified_edge(order)
            for max_abs, safe in ((m, True), (m + 1, False)):
                R = 1 + max_abs
                assert (order * math.prod(range(R, R + order)) < 2**62) == safe
        assert certified_edge(19) == 0
        assert not kernels.int64_certified(20, 0)

    @pytest.mark.parametrize("order", ORDERS)
    def test_edges_match_reference(self, order):
        m = certified_edge(order)
        rows = [[0] * order, [m] * order, [-m] * order,
                [m if k % 2 else -m for k in range(order)],
                [-m if k % 2 else m for k in range(order)],
                [m] + [0] * (order - 1), [0] * (order - 1) + [-m],
                [(k % 3 - 1) * m for k in range(order)]]
        assert_batch_matches_reference(rows)

    @given(data=st.data(), order=st.sampled_from(ORDERS), count=st.integers(1, 12))
    @settings(max_examples=300)
    def test_random_rows_match_reference(self, data, order, count):
        m = certified_edge(order)
        # half the draws hug the edge, where the partial sums come closest to 2^62
        edges = [v for v in (-m, -m + 1, 0, m - 1, m) if abs(v) <= m]
        entry = st.one_of(st.integers(-m, m), st.sampled_from(edges))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assert_batch_matches_reference(rows)

    def test_uncertified_int64_batch_runs_on_python_ints(self):
        for order in (2, 3, 7):
            m = certified_edge(order)
            assert_batch_matches_reference([[m] * order, [-m] * order])
            for bad in (m + 1, -(m + 1)):
                assert_batch_matches_reference([[0] * (order - 1) + [bad], [m] * order],
                                               runs_on=object)
        assert_batch_matches_reference([[0] * 20], runs_on=object)

    def test_empty_batch(self):
        for order in (1, 4, 25):
            runs_on = np.int64 if kernels.int64_certified(order, 0) else object
            for dtype in (np.int64, object):
                num, den = kernels.schwarz_terms_batch(np.zeros((0, order), dtype=dtype))
                assert num.shape == den.shape == (0, order - 1)
                assert num.dtype == den.dtype == runs_on

    @pytest.mark.parametrize("order", range(1, 31))
    def test_object_rows_match_reference(self, order):
        # from N = 21 the Stirling weights and N! leave int64 too
        huge = 10**40
        rows = [[0] * order, [huge] * order, [-huge] * order,
                [huge if k % 2 else -huge for k in range(order)],
                [huge - k for k in range(order)],
                [1] + [0] * (order - 1), [0] * (order - 1) + [-huge],
                [(k % 5 - 2) * 7 for k in range(order)]]
        assert_batch_matches_reference(rows, dtype=object, runs_on=object)

    @given(data=st.data(), order=st.integers(1, 30), count=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_random_object_rows_match_reference(self, data, order, count):
        rows = data.draw(st.lists(st.lists(st.integers(-10**40, 10**40), min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        extent = max(abs(c) for row in rows for c in row)
        runs_on = np.int64 if kernels.int64_certified(order, extent) else object
        assert_batch_matches_reference(rows, dtype=object, runs_on=runs_on)


@given(order=st.integers(1, 40), max_abs=st.integers(0, 10**30), cap=st.integers(0, 200))
@settings(max_examples=300)
def test_certificate_bits_is_the_capped_bit_length(order, max_abs, cap):
    full = order * math.prod(range(1 + max_abs, 1 + max_abs + order))
    assert kernels.certificate_bits(order, max_abs, cap) == min(full.bit_length(), cap + 1)
    assert kernels.int64_certified(order, max_abs) == (full < kernels.INT64_LIMIT)


def non_integral(terms):
    return any(den != 1 for _, _, den in terms)


class TestCompanionReference:
    """Every exact kernel path against the companion-matrix route on classes whose B_r are not all integers.

    The route shares neither Newton's identities nor the Stirling weights
    with the kernels, so it also checks their sign conventions.
    """

    @given(classes=st.lists(st.integers(-10**30, 10**30), min_size=3, max_size=12))
    @settings(max_examples=100)
    def test_reference_kernel(self, classes):
        want = schwarz_terms_companion(classes, len(classes))
        assume(non_integral(want))
        assert kpy.schwarz_terms(tuple(classes), len(classes)) == want

    def assert_batch_matches_route(self, rows, runs_on):
        wants = [schwarz_terms_companion(row, len(row)) for row in rows]
        assume(any(map(non_integral, wants)))
        num, den = kernels.schwarz_terms_batch(np.array(rows, dtype=runs_on))
        assert num.dtype == den.dtype == runs_on
        for want, nums, dens in zip(wants, num.tolist(), den.tolist()):
            assert list(zip(range(2, len(nums) + 2), nums, dens)) == want

    @given(data=st.data(), order=st.integers(3, 18), count=st.integers(1, 6))
    @settings(max_examples=60)
    def test_int64_batch_at_the_certificate_edge(self, data, order, count):
        m = certified_edge(order)
        entry = st.one_of(st.integers(-m, m), st.sampled_from([-m, m]))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assume(any(abs(c) == m for row in rows for c in row))
        self.assert_batch_matches_route(rows, np.int64)

    @given(data=st.data(), order=st.integers(3, 12), count=st.integers(1, 6))
    @settings(max_examples=60)
    def test_batch_on_python_ints_past_2_62(self, data, order, count):
        big = st.integers(2**62, 10**30)
        entry = st.one_of(big, big.map(operator.neg), st.integers(-50, 50))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assume(any(abs(c) >= 2**62 for row in rows for c in row))
        self.assert_batch_matches_route(rows, object)


class TestChunkPath:
    """The certificate decides, chunk by chunk, the dtype the batch kernel runs on."""

    @pytest.fixture
    def dtypes(self, monkeypatch):
        seen = []
        batch = kernels.schwarz_terms_batch

        def spy(classes):
            num, den = batch(classes)
            seen.append((num.dtype, len(num)))
            return num, den

        monkeypatch.setattr(kernels, "schwarz_terms_batch", spy)
        # the sweep makes no single-tuple kernel call on either dtype
        monkeypatch.setattr(kernels, "schwarz_terms", None)
        return seen

    def chunk(self, c1_lo, c1_hi):
        # rank 2 on CP^3 tests S_3 on (c1, c2, 0)
        spec = SweepSpec(2, 3, ((c1_lo, c1_hi), (-2, 2)))
        return render_chunk(spec, "json", 0, spec.tuple_count())

    def test_just_below_runs_int64(self, dtypes):
        m = certified_edge(3)
        self.chunk(m - 3, m)
        assert dtypes == [(np.int64, 20)]

    def test_just_above_runs_bignum(self, dtypes):
        m = certified_edge(3)
        self.chunk(m - 3, m + 1)  # one class past the edge sends all 25 tuples
        assert dtypes == [(object, 25)]
        self.chunk(-m - 1, -m)
        assert dtypes == [(object, 25), (object, 10)]

    def test_certificate_function_decides(self, dtypes, monkeypatch):
        m = certified_edge(3)
        below = self.chunk(m - 3, m)
        asked = []

        def refuse(order, max_abs):
            asked.append((order, max_abs))
            return False

        monkeypatch.setattr(kernels, "int64_certified", refuse)
        assert self.chunk(m - 3, m) == below
        assert asked == [(3, m)]
        assert dtypes == [(np.int64, 20), (object, 20)]

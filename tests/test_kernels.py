"""Kernel-level tests: exactness and oracle equivalence."""

import json
import math
import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundle_census import _kernels_py as kpy
from bundle_census import kernels, stirling_first, sweep
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
    for name in ("schwarz_terms", "binomial_sum_num_den", "power_sums", "stirling_row", "stirling_first"):
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
    """Largest max|c_i| whose certificate order R(R+1)...(R+order-1), R = 1 + max|c_i|, is below 2^62."""
    bits = kernels.INT64_LIMIT.bit_length() - 1
    lo, hi = 0, kernels.INT64_LIMIT
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kernels.certificate_bits(order, mid, bits) <= bits else (lo, mid)
    return lo


# every order whose certificate is below 2^62 on some classes: N * N! < 2^62 up to N = 19
ORDERS = range(2, 20)


def assert_sweep_matches(rows, reference, length=4):
    """Each row, and the ``length - 1`` rows after it along its last class, on the sweep's chunk path.

    Row (c_1, ..., c_N) opens a one-chunk box of S_N in the stable range
    whose last class takes ``length`` values, and every tuple's failing
    B_r are those of ``reference(classes, N)``.
    """
    for row in rows:
        order = len(row)
        bounds = tuple((c, c) for c in row[:-1]) + ((row[-1], row[-1] + length - 1),)
        _, _, failing, terms, _ = sweep.classify(SweepSpec(order, order, bounds), 0, length)
        want = [t for k in range(length) for t in reference((*row[:-1], row[-1] + k), order) if t[2] != 1]
        assert list(zip(terms[::3], terms[1::3], terms[2::3])) == want, row
        assert sum(failing) == len(want)


class TestBatchKernel:
    """The sweep's chunk classification, its one bulk kernel, against the reference kernel.

    The rows at the int64 certificate's edge are where a fixed-width kernel
    would come closest to overflowing; the walk runs them on Python ints
    like every other row.
    """

    def test_certificate_is_the_stated_bound(self):
        for order in ORDERS:
            m = certified_edge(order)
            for max_abs, safe in ((m, True), (m + 1, False)):
                R = 1 + max_abs
                assert (order * math.prod(range(R, R + order)) < 2**62) == safe
        assert certified_edge(19) == 0
        assert kernels.certificate_bits(20, 0, 62) > 62

    @pytest.mark.parametrize("order", ORDERS)
    def test_edges_match_reference(self, order):
        m = certified_edge(order)
        rows = [[0] * order, [m] * order, [-m] * order,
                [m if k % 2 else -m for k in range(order)],
                [-m if k % 2 else m for k in range(order)],
                [m] + [0] * (order - 1), [0] * (order - 1) + [-m],
                [(k % 3 - 1) * m for k in range(order)]]
        assert_sweep_matches(rows, kpy.schwarz_terms)

    @given(data=st.data(), order=st.sampled_from(ORDERS), count=st.integers(1, 12))
    @settings(max_examples=300)
    def test_random_rows_match_reference(self, data, order, count):
        m = certified_edge(order)
        # half the draws hug the edge, where the partial sums come closest to 2^62
        edges = [v for v in (-m, -m + 1, 0, m - 1, m) if abs(v) <= m]
        entry = st.one_of(st.integers(-m, m), st.sampled_from(edges))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assert_sweep_matches(rows, kpy.schwarz_terms, length=2)

    def test_uncertified_int64_batch_runs_on_python_ints(self):
        # one past the edge, and S_20, past the certificate even on zeros
        for order in (2, 3, 7):
            m = certified_edge(order)
            for bad in (m + 1, -(m + 1)):
                first = bad - 3 if bad > 0 else bad  # the box's last class takes 4 values, bad among them
                assert_sweep_matches([[0] * (order - 1) + [first], [m] * order], kpy.schwarz_terms)
        assert_sweep_matches([[0] * 20], kpy.schwarz_terms)

    def test_empty_batch(self):
        for order in (1, 4, 25):
            spec = SweepSpec(order, order, ((0, 2),) + ((0, 0),) * (order - 1))
            assert sweep.classify(spec, 1, 1) == sweep.Verdicts([[]] * order, [], [], [], (0, 0, 0, 0))

    @pytest.mark.parametrize("order", range(1, 31))
    def test_object_rows_match_reference(self, order):
        # past 2^62, and from N = 21, where the Stirling weights and N! are past it too
        huge = 10**40
        rows = [[0] * order, [huge] * order, [-huge] * order,
                [huge if k % 2 else -huge for k in range(order)],
                [huge - k for k in range(order)],
                [1] + [0] * (order - 1), [0] * (order - 1) + [-huge],
                [(k % 5 - 2) * 7 for k in range(order)]]
        assert_sweep_matches(rows, kpy.schwarz_terms)

    @given(data=st.data(), order=st.integers(1, 30), count=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_random_object_rows_match_reference(self, data, order, count):
        rows = data.draw(st.lists(st.lists(st.integers(-10**40, 10**40), min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assert_sweep_matches(rows, kpy.schwarz_terms)


@given(order=st.integers(1, 40), max_abs=st.integers(0, 10**30), cap=st.integers(0, 200))
@settings(max_examples=300)
def test_certificate_bits_is_the_capped_bit_length(order, max_abs, cap):
    full = order * math.prod(range(1 + max_abs, 1 + max_abs + order))
    assert kernels.certificate_bits(order, max_abs, cap) == min(full.bit_length(), cap + 1)


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

    @given(data=st.data(), order=st.integers(3, 18), count=st.integers(1, 6))
    @settings(max_examples=60)
    def test_int64_batch_at_the_certificate_edge(self, data, order, count):
        m = certified_edge(order)
        entry = st.one_of(st.integers(-m, m), st.sampled_from([-m, m]))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assume(any(abs(c) == m for row in rows for c in row))
        assume(any(non_integral(schwarz_terms_companion(row, order)) for row in rows))
        assert_sweep_matches(rows, schwarz_terms_companion, length=1)

    @given(data=st.data(), order=st.integers(3, 12), count=st.integers(1, 6))
    @settings(max_examples=60)
    def test_batch_on_python_ints_past_2_62(self, data, order, count):
        # the sweep walks each row and the two after it
        big = st.integers(2**62, 10**30)
        entry = st.one_of(big, big.map(operator.neg), st.integers(-50, 50))
        rows = data.draw(st.lists(st.lists(entry, min_size=order, max_size=order),
                                  min_size=count, max_size=count))
        assume(any(abs(c) >= 2**62 for row in rows for c in row))
        assume(any(non_integral(schwarz_terms_companion(row, order)) for row in rows))
        assert_sweep_matches(rows, schwarz_terms_companion, length=3)


class TestChunkPath:
    """Chunks at the int64 certificate's edge for S_3, on the walk like every other."""

    def test_just_above_runs_bignum(self):
        # rank 2 on CP^3 tests S_3 on (c1, c2, 0); one class past the edge
        m = certified_edge(3)
        for bounds in (((m - 3, m + 1), (-2, 2)), ((-m - 1, -m), (-2, 2))):
            spec = SweepSpec(2, 3, bounds)
            got = render_chunk(spec, "json", 0, spec.tuple_count())
            records = [json.loads(line) for line in got.data.splitlines()]
            assert [r["classes"] for r in records] == [list(c) for c in sweep.iter_box(bounds)]
            for record in records:
                want = [t for t in kpy.schwarz_terms((*record["classes"], 0), 3) if t[2] != 1]
                assert [(t["r"], t["value"]) for t in record["failing_r"]] == [
                    (r, f"{n}/{d}") for r, n, d in want]

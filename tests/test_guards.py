"""Library entry points refuse an empty or non-positive size by name."""

import pytest

from bundle_census import _kernels_py, chern, enumeration, oracle
from bundle_census.chern import ChernVector


@pytest.mark.parametrize("call, message", [
    (lambda: oracle.find_roots(()), "need a polynomial of degree >= 1"),
    (lambda: chern.from_line_bundles([], 3), "need at least one line bundle"),
    (lambda: ChernVector(2, 3, (1, 2)).padded(1), "cannot pad 2 classes to length 1"),
    (lambda: enumeration.binomial_sum((1, 2), 0), "need r >= 1, got 0"),
    (lambda: _kernels_py.stirling_row(-1), "row index must be nonnegative, got -1"),
    (lambda: _kernels_py.power_sums((1, 2), -1), "power sum count must be nonnegative, got -1"),
    (lambda: _kernels_py.binomial_sum_num_den((1, 2), 0), "binomial degree must be >= 1, got 0"),
    (lambda: _kernels_py.schwarz_terms((1, 2), 0), "condition order must be >= 1, got 0"),
], ids=["find_roots", "from_line_bundles", "padded", "binomial_sum", "stirling_row",
        "power_sums", "binomial_sum_num_den", "schwarz_terms"])
def test_degenerate_size_is_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

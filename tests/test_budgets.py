"""Every public callable with a size-like parameter refuses an out-of-budget
size quickly: the budget plus one, a bool, a float and -1 each raise
ValueError within 0.1 s, before any work.

``GUARDED`` names each (callable, parameter) with a call that puts the size
in that parameter and its budget; ``UNGUARDED`` lists the callables that
need no guard, each with its reason.  Both are kept current: a public
callable with a size-like parameter in neither table fails the completeness
test.
"""

import inspect
import time

import pytest

import fishburn
from fishburn import ALL
from fishburn.series import eval_marker

SIZE_PARAMS = {"n", "order", "size", "count", "n_max", "samples", "terms", "k"}

# (callable, parameter) -> (call with the size x, its budget: budget + 1 is refused)
GUARDED = {
    ("lambda_series", "order"): (lambda x: fishburn.lambda_series(ALL, x), 500),
    ("family_gf", "order"): (lambda x: fishburn.family_gf("fishburn", ALL, x), 500),
    ("family_series", "order"): (lambda x: fishburn.family_series("fishburn", ALL, x), 500),
    ("stat_gf", "order"): (lambda x: fishburn.stat_gf(
        "fishburn", "first_row", ALL, x, eval_marker(2)), 500),
    ("stat_profile", "order"): (lambda x: fishburn.stat_profile(
        "fishburn", "first_row", ALL, x), 500),
    ("stat_jet", "order"): (lambda x: fishburn.stat_jet("fishburn", "first_row", ALL, x), 500),
    # A fixed point makes order + 1 builds.
    ("recursive_gf", "order"): (lambda x: fishburn.recursive_gf("A186737", x), 100),
    ("named_gf", "order"): (lambda x: fishburn.named_gf("A022493", x), 500),
    # The terms of a series of order count - 1.
    ("named_sequence", "count"): (lambda x: fishburn.named_sequence("A022493", x), 501),
    ("fishburn_numbers", "order"): (fishburn.fishburn_numbers, 500),
    ("labeled_numbers", "n_max"): (fishburn.labeled_numbers, 500),
    ("labeled_profile", "n"): (fishburn.labeled_profile, 500),
    # Glaisher's identity builds at order 2 order.
    ("identity_suite", "order"): (lambda x: fishburn.identity_suite(order=x), 250),
    ("identity_suite", "aj_order"): (lambda x: fishburn.identity_suite(aj_order=x), 500),
    ("verify_andrews_jelinek", "order"): (
        lambda x: fishburn.verify_andrews_jelinek(ALL, x), 500),
    ("verify_glaisher", "count"): (fishburn.verify_glaisher, 250),
    ("verify_a158690_forms", "order"): (fishburn.verify_a158690_forms, 500),
    ("verify_a035378_pairing", "order"): (fishburn.verify_a035378_pairing, 500),
    ("enumerate_matrices", "size"): (
        lambda x: fishburn.enumerate_matrices("fishburn", ALL, x), 8),
    ("a158690_expansion", "terms"): (fishburn.a158690_expansion, 500),
    ("solve_saddle", "n"): (lambda x: fishburn.solve_saddle(x, 1), 500),
    # k < n.
    ("solve_saddle", "k"): (lambda x: fishburn.solve_saddle(500, x), 499),
    ("an_approx", "n"): (fishburn.an_approx, 500),
    ("llt_distance", "n"): (fishburn.llt_distance, 500),
    ("window_tail", "n"): (fishburn.window_tail, 500),
    ("profile_rows", "n"): (fishburn.profile_rows, 500),
    ("check_bounds", "samples"): (fishburn.check_bounds, 10_000),
    ("distribution", "n"): (
        lambda x: fishburn.distribution("fishburn", "first_row", ALL, x), 150),
    ("stat_mean_variance", "n"): (
        lambda x: fishburn.stat_mean_variance("fishburn", "first_row", ALL, x), 400),
}

# Public callables with a size-like parameter and no guard, each with its reason.
UNGUARDED = {
    "TruncatedSeries": "the series carrier: it holds the coefficients it is given",
    "exp_linear": "a kernel series; the builders call it at their order + 1 "
                  "(z/(e^z - 1) needs one more term), after checking that order",
    "sum_product": "the kernel: its factors' valuations bound its loop, and its "
                   "callers check their orders",
    "IdentityReport": "a result record, which computes nothing",
    "SaddleState": "a result record, which computes nothing",
    "DistributionTable": "a result record, which computes nothing",
    "limit_law_for": "a closed form in n, as cheap at n = 10**6 as at n = 1",
}

BAD_SIZES = {"over": None, "bool": True, "float": 2.0, "negative": -1}


def _size_params():
    """(name, parameter) for every public callable with a size-like parameter."""
    out = set()
    for name in fishburn.__all__:
        obj = getattr(fishburn, name)
        if callable(obj):
            out |= {(name, p) for p in inspect.signature(obj).parameters if p in SIZE_PARAMS}
    return out


def test_tables_cover_every_size_parameter():
    missing = {(name, p) for name, p in _size_params() - set(GUARDED) if name not in UNGUARDED}
    assert not missing, f"size parameters in neither table: {sorted(missing)}"
    for name, p in GUARDED:
        assert p in inspect.signature(getattr(fishburn, name)).parameters
    assert not {name for name, _ in GUARDED} & set(UNGUARDED)
    assert set(UNGUARDED) <= {name for name, _ in _size_params()}


@pytest.mark.parametrize("bad", list(BAD_SIZES))
@pytest.mark.parametrize("entry", sorted(GUARDED), ids="/".join)
def test_out_of_budget_size_is_refused_quickly(entry, bad):
    call, budget = GUARDED[entry]
    size = budget + 1 if bad == "over" else BAD_SIZES[bad]
    start = time.perf_counter()
    with pytest.raises(ValueError):
        call(size)
    assert time.perf_counter() - start < 0.1

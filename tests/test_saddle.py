"""Saddle-point machinery: special functions against independent oracles,
solver residuals, window approximations against the exact integer profile,
the exponent surface, and the integral-truncation bounds."""

import time
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fishburn.asymptotics import named_form
from fishburn.cli import main
from fishburn.families import labeled_numbers, labeled_profile
from fishburn.saddle import (
    BoundReport,
    CentralConstants,
    I_func,
    PhiEvaluation,
    SaddleState,
    an_approx,
    bound_margins,
    check_bounds,
    dilog,
    em_log_product,
    llt_distance,
    log_product,
    optimum,
    phi_surface,
    profile_rows,
    solve_saddle,
    window_tail,
)
import fishburn.saddle as saddle_module
from fishburn.saddle import (
    _WINDOW_WIDTH,
    _k_range,
    _log_ank,
    _phi_terms,
    _summation_range,
    _sweep,
)

mp.mp.dps = 40

CC = optimum()


def agree(x, y, rel=mp.mpf("1e-12")):
    return mp.almosteq(x, y, rel_eps=rel, abs_eps=0)


class _ProfileRows:
    """rows[n][k] = n![z^n] prod_{j<=k}(e^{jz}-1), the row labeled_profile(n)."""

    def __getitem__(self, n):
        return labeled_profile(n)


def exact_rows(n_max=200):
    """(totals, rows): totals[n] = n! a_n for n <= n_max, and the integer
    profile rows[n][k], built per n on first use."""
    return labeled_numbers(n_max), _ProfileRows()


def window_ints(n):
    return _k_range(n, _WINDOW_WIDTH)


# ---------------------------------------------------------------------------
# dilog and the saddle integral I
# ---------------------------------------------------------------------------

def test_dilog_special_values():
    assert dilog(0) == 0
    assert abs(dilog(1) - mp.pi ** 2 / 6) < mp.mpf("1e-38")
    half = dilog(Fraction(1, 2))
    assert abs(half - (mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2)) < mp.mpf("1e-38")


@pytest.mark.parametrize("x", [0.03, 0.2, 0.45, 0.5, 0.55, 0.8, 0.97, 0.999])
def test_dilog_matches_polylog(x):
    assert abs(dilog(x) - mp.polylog(2, mp.mpf(x))) < mp.mpf("1e-35")


@pytest.mark.parametrize("x", [-0.01, 1.01, 2])
def test_dilog_rejects_out_of_range(x):
    with pytest.raises(ValueError):
        dilog(x)


def test_dilog_rejects_complex():
    with pytest.raises(TypeError):
        dilog(0.5 + 0.1j)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_dilog_reflection_property(x):
    t = mp.mpf(x)
    lhs = dilog(t) + dilog(1 - t)
    rhs = mp.pi ** 2 / 6 - mp.log(t) * mp.log(1 - t)
    assert abs(lhs - rhs) < mp.mpf("1e-30")


def test_saddle_integral_special_values():
    assert I_func(0) == 0
    assert abs(I_func(mp.log(2)) - mp.pi ** 2 / 12) < mp.mpf("1e-38")


@pytest.mark.parametrize("x", ["0.3", "0.7", "1.5"])
def test_saddle_integral_derivative_matches_integrand(x):
    t = mp.mpf(x)
    h = mp.mpf("1e-12")
    numeric = (I_func(t + h) - I_func(t - h)) / (2 * h)
    integrand = t / -mp.expm1(-t)
    assert abs(numeric - integrand) < mp.mpf("1e-8")


def test_saddle_integral_rejects_negative():
    with pytest.raises(ValueError):
        I_func(-0.5)


@pytest.mark.parametrize("x", ["0.1", "1", "5"])
def test_saddle_integral_dominates_identity(x):
    # I(x) > x for x > 0 is what pins varrho = 0 at the q = 1 endpoint.
    t = mp.mpf(x)
    assert I_func(t) > t


# ---------------------------------------------------------------------------
# Product logs, direct and Euler-Maclaurin
# ---------------------------------------------------------------------------

def test_log_product_single_factor():
    r = mp.mpf("0.3")
    assert agree(log_product(1, r), mp.log(mp.expm1(r)))


def test_log_product_recurrence():
    r = mp.mpf("0.11")
    assert agree(log_product(7, r) - log_product(6, r), mp.log(mp.expm1(7 * r)))


def test_log_product_validation():
    with pytest.raises(ValueError):
        log_product(0, 0.1)
    with pytest.raises(ValueError):
        log_product(3, 0)
    with pytest.raises(ValueError):
        log_product(3, -0.2)


def test_em_matches_direct_at_saddle_scale():
    k = 50
    r = mp.log(2) / k
    assert abs(em_log_product(k, r) - log_product(k, r)) < mp.mpf("1e-6")


def test_em_error_fitted_bound():
    # Fit the error constant on one grid, then check the k^-3 + r^3 model
    # holds with that constant on a disjoint grid.
    def err(k, r):
        return abs(em_log_product(k, r) - log_product(k, r))

    def model(k, r):
        return mp.mpf(k) ** -3 + mp.mpf(r) ** 3

    fit_grid = [(25, mp.log(2) / 25), (50, mp.log(2) / 50),
                (10, mp.mpf("0.05")), (30, mp.mpf("0.1")), (50, mp.mpf("0.002"))]
    constant = mp.mpf("1.5") * max(err(k, r) / model(k, r) for k, r in fit_grid)
    check_grid = [(100, mp.log(2) / 100), (200, mp.log(2) / 200),
                  (20, mp.mpf("0.025")), (40, mp.mpf("0.0125")),
                  (60, mp.mpf("0.05"))]
    for k, r in check_grid:
        assert err(k, r) <= constant * model(k, r)


@pytest.mark.parametrize("k,r", [(25, None), (50, None), (10, 0.05)])
def test_em_error_scaling_under_halving(k, r):
    # (k, r) -> (2k, r/2) shrinks both k^-3 and r^3 terms eightfold.
    rr = mp.log(2) / k if r is None else mp.mpf(r)
    coarse = abs(em_log_product(k, rr) - log_product(k, rr))
    fine = abs(em_log_product(2 * k, rr / 2) - log_product(2 * k, rr / 2))
    assert 6 < coarse / fine < 10


def test_em_single_factor_close():
    r = mp.mpf("0.01")
    assert abs(em_log_product(1, r) - mp.log(mp.expm1(r))) < mp.mpf("0.01")


def test_em_rejects_kr_outside_validity():
    with pytest.raises(ValueError, match="Euler-Maclaurin"):
        em_log_product(10, 1.0)


@given(st.integers(min_value=5, max_value=60),
       st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_em_accuracy_property(k, kr):
    r = mp.mpf(kr) / k
    assert abs(em_log_product(k, r) - log_product(k, r)) < mp.mpf("0.01")


@pytest.mark.parametrize("x", ["0.01", "0.4", "0.84", "3", "12"])
def test_phi_terms_match_numeric_euler_derivatives(x):
    # (x d/dx)^m f(x) is the m-th t-derivative of f(e^t) at t = log x.
    with mp.workdps(60):
        t = mp.log(mp.mpf(x))
        for m, phi in enumerate(_phi_terms(mp.mpf(x)), start=1):
            numeric = mp.diff(lambda s: mp.log(mp.expm1(mp.exp(s))), t, m)
            assert abs(phi - numeric) <= mp.mpf("1e-50") * abs(numeric)


# ---------------------------------------------------------------------------
# The saddle solver
# ---------------------------------------------------------------------------

def test_saddle_state_fields():
    state = solve_saddle(100, 84)
    assert state.n == 100 and state.k == 84
    assert state.r > 0


def test_saddle_radius_matches_continuum_limit():
    state = solve_saddle(100, 84)
    assert abs(100 * state.r / CC.xi - 1) <= mp.mpf("0.15")


@pytest.mark.parametrize("n", [50, 100, 200])
def test_saddle_residuals_throughout_window(n):
    tol = mp.mpf("1e-9") * n
    for k in window_ints(n):
        state = solve_saddle(n, k)
        assert abs(state.upsilon[0] - n) <= tol
        assert state.upsilon[1] > 0


def test_saddle_rejects_degenerate_indices():
    with pytest.raises(ValueError):
        solve_saddle(5, 5)          # r = 0 boundary
    with pytest.raises(ValueError):
        solve_saddle(5, 6)
    with pytest.raises(ValueError):
        solve_saddle(5, 0)
    with pytest.raises(ValueError):
        solve_saddle(5.0, 2)
    with pytest.raises(ValueError):
        solve_saddle(5, True)


def test_cached_saddle_does_not_answer_a_float():
    # The cache is typed: an equal float is checked, not served as the int.
    solve_saddle(30, 20)
    with pytest.raises(ValueError):
        solve_saddle(30.0, 20)


def test_saddle_far_below_window():
    # k = 1 pushes the radius far beyond the 2*pi/k bracket seed: the
    # single-term equation r/(1 - e^{-r}) = n has its root at ~n.
    state = solve_saddle(100, 1)
    assert abs(state.r - 100) < mp.mpf("1e-5")
    assert abs(state.upsilon[0] - 100) <= mp.mpf("1e-7")


def test_curvature_per_summand_approaches_limit():
    limit = mp.pi ** 2 * CC.sigma ** 2 / 6
    gaps = []
    for n in (100, 200, 400):
        state = solve_saddle(n, round(float(CC.mu) * n))
        gaps.append(abs(state.upsilon[1] / n - limit))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] / limit < mp.mpf("0.01")


@given(st.integers(min_value=25, max_value=120),
       st.floats(min_value=0.3, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_saddle_residual_property(n, frac):
    k = min(n - 1, max(1, int(frac * n)))
    state = solve_saddle(n, k)
    assert state.r > 0
    assert abs(state.upsilon[0] - n) <= mp.mpf("1e-9") * n
    assert state.upsilon[1] > 0


# ---------------------------------------------------------------------------
# Coefficient approximations against the exact integer profile
# ---------------------------------------------------------------------------

def test_summand_approximation_improves_with_n():
    errors = {}
    for n in (50, 100):
        k = round(float(CC.mu) * n)
        row = {k_row: (exact, approx) for k_row, exact, approx in profile_rows(n)}
        log_exact, log_approx = row[k]
        errors[n] = abs(mp.exp(log_exact - log_approx) - 1)
    assert errors[50] < mp.mpf("0.02")
    assert errors[100] < errors[50]


@pytest.mark.parametrize("n", [50, 100, 200])
def test_summand_peak_near_center(n):
    best = max(window_ints(n), key=lambda k: _log_ank(n, k))
    assert abs(best - CC.mu * n) <= 1


def test_summand_gaussian_shape():
    n = 200
    k0 = round(float(CC.mu) * n)
    x0 = (k0 - CC.mu * n) / (CC.sigma * mp.sqrt(n))
    base = _log_ank(n, k0)
    for k in window_ints(n):
        x = (k - CC.mu * n) / (CC.sigma * mp.sqrt(n))
        if abs(x) > 2:
            continue
        ratio = mp.exp(_log_ank(n, k) - base)
        predicted = mp.exp(-(x ** 2 - x0 ** 2) / 2)
        assert abs(ratio / predicted - 1) <= mp.mpf("0.10")


def test_total_approximation_at_100():
    totals, _rows = exact_rows()
    exact = mp.mpf(totals[100]) / mp.mpf(factorial(100))
    assert abs(an_approx(100) / exact - 1) <= mp.mpf("0.05")


def test_total_approximation_error_decays():
    totals, _rows = exact_rows()
    errors = {}
    for n in (100, 200):
        exact = mp.mpf(totals[n]) / mp.mpf(factorial(n))
        errors[n] = abs(an_approx(n) / exact - 1)
    assert errors[200] < errors[100]


def test_total_approximation_error_decays_monotonically():
    totals, _rows = exact_rows()
    errors = []
    for n in (50, 100, 150, 200):
        exact = mp.mpf(totals[n]) / mp.mpf(factorial(n))
        errors.append(abs(an_approx(n) / exact - 1))
    assert errors == sorted(errors, reverse=True)
    assert errors[1] < mp.mpf("1e-4")


def test_upsilon_holds_four_cumulants():
    state = solve_saddle(100, 84)
    with mp.workdps(60):
        sums = [mp.fsum(_phi_terms(j * state.r)[m] for j in range(1, 85))
                for m in range(4)]
    assert len(state.upsilon) == 4
    for got, want in zip(state.upsilon, sums):
        assert agree(got, want, rel=mp.mpf("1e-40"))


def _direct_sweep(k, r):
    """upsilon_1..upsilon_4 and log A_k(r) at 150 digits, one expm1 and log per j."""
    with mp.workdps(150):
        r = mp.mpf(r)
        terms = [_phi_terms(j * r) for j in range(1, k + 1)]
        upsilon = [mp.fsum(t[m] for t in terms) for m in range(4)]
        return upsilon, mp.fsum(mp.log(mp.expm1(j * r)) for j in range(1, k + 1))


def _sweep_points():
    for n in (20, 500):
        ks = _summation_range(n)
        for k in (1, n - 1, ks[len(ks) // 2]):
            yield k, solve_saddle(n, k).r
    for r in ("1e-16", "1e-8", "1e-3", "3", "50"):
        for k in (1, 30):
            with mp.workdps(60):
                yield k, mp.mpf(r)


def test_sweep_matches_direct_evaluation_at_150_digits():
    # Each value is the 60-digit rounding of a 150-digit reference.  Small r
    # needs both log2(1/r) guard terms: one for 1 - e^{-r} ~ r and one for
    # phi_2..phi_4 ~ r/2; with one of them, r = 1e-16 misses by 1e-54.
    for k, r in _sweep_points():
        with mp.workdps(60):
            upsilon, log_a = _sweep(k, r)
        want_upsilon, want_log_a = _direct_sweep(k, r)
        with mp.workdps(150):
            for got, want in zip((*upsilon, log_a), (*want_upsilon, want_log_a)):
                assert abs(got / want - 1) <= mp.mpf("1e-55"), (k, r)


@pytest.mark.parametrize("k,r", [(1, "0.002"), (84, "0.0098"), (30, "0.7"), (400, "0.0012")])
def test_sweep_matches_phi_terms_at_60_digits(k, r):
    with mp.workdps(60):
        rr = mp.mpf(r)
        upsilon, _ = _sweep(k, rr)
        for m, got in enumerate(upsilon):
            want = mp.fsum(_phi_terms(j * rr)[m] for j in range(1, k + 1))
            assert abs(got / want - 1) <= mp.mpf("1e-50")


def test_state_carries_the_log_product_of_its_radius():
    state = solve_saddle(100, 84)
    assert state.log_product == log_product(84, state.r)


def test_an_approx_sweeps_once_per_summand(monkeypatch):
    # The float radius passes the residual check at n = 100, so no Newton
    # step sweeps again, and _log_ank reuses the sweep of solve_saddle.
    sweeps = []
    expm1_calls = []
    sweep = saddle_module._sweep
    expm1 = mp.expm1

    def counting_sweep(k, r):
        sweeps.append(k)
        return sweep(k, r)

    def counting_expm1(*args, **kwargs):
        expm1_calls.append(args)
        return expm1(*args, **kwargs)

    monkeypatch.setattr(saddle_module, "_sweep", counting_sweep)
    monkeypatch.setattr(mp, "expm1", counting_expm1)
    solve_saddle.cache_clear()
    _log_ank.cache_clear()
    an_approx(100)
    assert sweeps == list(_summation_range(100))
    assert expm1_calls == []


def test_total_approximation_budget():
    with pytest.raises(ValueError, match=r"exceeds the series budget \(500\)"):
        an_approx(501)


def test_saddle_solver_budget():
    # The solver's time grows linearly in k; n caps it before any sweep.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"exceeds the series budget \(500\)"):
        solve_saddle(10**6, 200_000)
    assert time.perf_counter() - start < 0.1


def test_total_matches_leading_asymptotic_form():
    form = named_form("A158690")
    assert abs(an_approx(200) / form.evaluate(200) - 1) <= mp.mpf("0.10")


def test_total_approximation_boundary():
    totals, _rows = exact_rows()
    exact = mp.mpf(totals[20]) / mp.mpf(factorial(20))
    assert abs(an_approx(20) / exact - 1) <= mp.mpf("0.05")
    with pytest.raises(ValueError):
        an_approx(19)
    with pytest.raises(ValueError):
        an_approx(20.0)


# ---------------------------------------------------------------------------
# The exponent surface and its optimum
# ---------------------------------------------------------------------------

def test_surface_optimum_point():
    point = phi_surface(CC.mu)
    assert abs(point.varrho - CC.xi) < mp.mpf("1e-40")
    assert abs(mp.exp(point.phi) - 12 / (mp.e * mp.pi ** 2)) < mp.mpf("1e-40")


@pytest.mark.parametrize("q", ["0.5", "0.7", "0.95"])
def test_surface_below_maximum(q):
    assert phi_surface(mp.mpf(q)).phi < phi_surface(CC.mu).phi


@pytest.mark.parametrize("q", ["0.05", "0.3", "0.84", "0.999"])
def test_surface_constraint_satisfied(q):
    point = phi_surface(mp.mpf(q))
    assert abs(I_func(point.q * point.varrho) - point.varrho) < mp.mpf("1e-35")


def test_surface_degenerate_endpoint():
    point = phi_surface(1)
    assert point.varrho == 0
    assert point.phi == -1
    # Continuity into the endpoint.
    assert abs(phi_surface(mp.mpf("0.999")).phi + 1) < mp.mpf("0.02")


def test_surface_monotone_left_of_maximum():
    values = [phi_surface(mp.mpf(q)).phi for q in ("0.05", "0.2", "0.5")]
    assert values[0] < values[1] < values[2] < phi_surface(CC.mu).phi


@pytest.mark.parametrize("q", [0, -0.5, 1.5])
def test_surface_domain_errors(q):
    with pytest.raises(ValueError):
        phi_surface(q)


def test_surface_rejects_complex():
    with pytest.raises(TypeError):
        phi_surface(0.5 + 0.1j)


@given(st.floats(min_value=0.02, max_value=0.999))
@settings(max_examples=30, deadline=None)
def test_surface_concavity_property(q):
    assume(abs(q - float(CC.mu)) > 1e-3)
    assert phi_surface(q).phi < phi_surface(CC.mu).phi


def test_optimum_closed_forms():
    log2 = mp.log(2)
    assert agree(CC.mu, 12 * log2 / mp.pi ** 2)
    assert agree(CC.xi, mp.pi ** 2 / 12)
    assert agree(CC.tau_aux, 2 * log2 ** 2 - mp.pi ** 2 / 12)
    assert abs(mp.exp(CC.mu * CC.xi) - 2) < mp.mpf("1e-40")
    assert abs(CC.sigma ** 2 - 72 * mp.pi ** -4 * CC.tau_aux) < mp.mpf("1e-40")
    assert abs(CC.sigma - mp.mpf("0.31988")) < mp.mpf("1e-5")
    assert CC.xi1 < 0 and CC.xi2 < 0 and CC.xi3 > 0 and CC.tau_aux > 0


def test_optimum_decimal_snapshots():
    snapshots = {
        "mu": "0.842765913272195",
        "xi": "0.822467033424113",
        "sigma": "0.319886359070670",
        "xi1": "-6.77382572993827",
        "xi2": "-0.943771667862134",
        "xi3": "12.2632690689857",
        "tau_aux": "0.138438994412290",
    }
    for name, decimal in snapshots.items():
        assert agree(getattr(CC, name), mp.mpf(decimal), rel=mp.mpf("1e-13"))


# ---------------------------------------------------------------------------
# Truncation bounds
# ---------------------------------------------------------------------------

def test_bounds_equality_on_real_axis():
    factor, product = bound_margins(mp.mpf("0.7"), 0, 5)
    assert abs(factor) < mp.mpf("1e-45")
    assert abs(product) < mp.mpf("1e-45")
    # At angle = +-pi both bounds are equalities as well (z is real
    # negative); passing pi at 40 digits leaves ~1e-41 of angle error.
    with mp.workdps(60):
        angles = (+mp.pi, -mp.pi)
    for angle in angles:
        factor, product = bound_margins(mp.mpf("0.7"), angle, 5)
        assert abs(factor) < mp.mpf("1e-45")
        assert abs(product) < mp.mpf("1e-45")


@pytest.mark.parametrize("angle", ["0.5", "1.5", "2.9"])
def test_bounds_strict_inside(angle):
    factor, product = bound_margins(1, mp.mpf(angle), 3)
    assert factor > mp.mpf("1e-6")
    assert product > mp.mpf("1e-6")


@pytest.mark.parametrize("modulus,angle,k", [
    ("0.7", "0.5", 5), ("0.001", "3.0", 30), ("3.0", "-2.9", 30), ("1.3", "1.1", 1),
    ("0.05", "0.01", 17),
])
def test_product_margin_matches_the_per_factor_sum(modulus, angle, k):
    # the reference takes one exponential and one logarithm per factor
    with mp.workdps(60):
        t, theta = mp.mpf(modulus), mp.mpf(angle)
    factor, product = bound_margins(t, theta, k)
    with mp.workdps(60):
        z = mp.mpc(t * mp.cos(theta), t * mp.sin(theta))
        decay = t * theta ** 2 / mp.pi ** 2
        log_abs = mp.fsum(mp.log(abs(mp.exp(j * z) - 1)) for j in range(1, k + 1))
        want = (log_product(k, t) - k * (k + 1) * decay / 2) - log_abs
        want_factor = (mp.log(mp.expm1(t)) - decay) - mp.log(abs(mp.exp(z) - 1))
    assert abs(product - want) < mp.mpf("1e-40")
    assert abs(factor - want_factor) < mp.mpf("1e-40")


def test_bounds_clean_sweep():
    report = check_bounds(1000)
    assert isinstance(report, BoundReport)
    assert report.samples == 1000
    assert report.ok
    assert report.factor_violations == 0
    assert report.product_violations == 0
    assert report.min_factor_margin > -mp.mpf("1e-40")
    assert report.min_product_margin > -mp.mpf("1e-40")


def test_bounds_reproducible():
    assert check_bounds(64) == check_bounds(64)
    assert check_bounds(64, seed=7) != check_bounds(64, seed=8)


@pytest.mark.parametrize("samples", [10_001, True, 2.0, -1])
def test_bounds_refuse_out_of_budget_samples_fast(samples):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="samples"):
        check_bounds(samples)
    assert time.perf_counter() - start < 0.1


def test_bounds_validation():
    with pytest.raises(ValueError):
        check_bounds(0)
    with pytest.raises(ValueError):
        bound_margins(0, 0.3, 4)
    with pytest.raises(ValueError):
        bound_margins(1, 3.5, 4)


# ---------------------------------------------------------------------------
# Exact-profile diagnostics
# ---------------------------------------------------------------------------

def test_local_limit_profile_tightens():
    d60 = llt_distance(60)
    d120 = llt_distance(120)
    assert d120 < d60 < mp.mpf("0.02")


def test_window_tail_exact_and_shrinking():
    tail60 = window_tail(60)
    tail120 = window_tail(120)
    assert isinstance(tail60, Fraction) and isinstance(tail120, Fraction)
    assert 0 < tail120 < tail60 < Fraction(1, 50)


def test_window_tail_complements_summation_range():
    n = 60
    totals, rows = exact_rows()
    ks = _summation_range(n)
    assert ks.start >= 1 and ks.stop <= n
    window = _k_range(n, _WINDOW_WIDTH)
    assert ks.start < window.start and window.stop < ks.stop
    outside = totals[n] - sum(rows[n][k] for k in ks)
    assert window_tail(n) == Fraction(outside, totals[n])


def test_profile_dump_contents():
    profile = profile_rows(60)
    ks = list(window_ints(60))
    spread = mp.sqrt(2) * CC.sigma * mp.mpf(60) ** (mp.mpf(5) / 8)
    assert ks == [k for k in range(1, 60) if abs(k - CC.mu * 60) <= spread]
    assert len(profile) == len(ks)
    _totals, rows = exact_rows()
    for (k_row, got_exact, got_approx), k in zip(profile, ks):
        assert k_row == k
        log_exact = mp.log(mp.mpf(rows[60][k])) - mp.log(mp.factorial(60))
        assert abs(got_exact - log_exact) < mp.mpf("1e-9") * abs(log_exact)
        assert abs(got_approx - log_exact) < mp.mpf("0.05")


def test_profile_dump_writes_file(tmp_path):
    target = tmp_path / "profile.csv"
    argv = ["saddle", "--n", "60", "--profile", "--format", "csv"]
    assert main(argv + ["--output", str(target)]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,log_exact,log_approx"
    assert lines[1:] == [f"{k},{mp.nstr(a, 12)},{mp.nstr(b, 12)}"
                         for k, a, b in profile_rows(60)]


def test_profile_dump_validation():
    with pytest.raises(ValueError):
        profile_rows(19)

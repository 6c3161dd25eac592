"""Saddle-point evaluation of the labeled-matrix coefficients.

The exponential generating series of the prototype family,

    A(z) = sum_{k>=1} A_k(z),        A_k(z) = prod_{1<=j<=k} (e^{jz} - 1),

has rational coefficients a_n = [z^n] A(z) (the integers n! * a_n are
A158690).  This module implements the two-parameter saddle-point method
that produces a_n ~ (12/pi^(3/2)) * (12/(e*pi^2))^n * n^(n+1/2): for every
k the coefficient a_{n,k} = [z^n] A_k(z) is approximated by a saddle-point
integral at the radius r = r(n, k) solving

    sum_{1<=j<=k} j*r / (1 - e^{-j*r}) = n,

and the sum over k concentrates on a central window k ~ mu*n of width
O(n^(5/8)) with Gaussian profile.  Each summand carries the second-order
term of the saddle expansion, and a_n is approximated by summing them over
k in mu*n -+ 3*sigma*n^(5/8), which leaves out a mass that decays faster
than any power of n; the relative error is ~2e-5 at n = 100 and falls
monotonically in n.  A narrower window, mu*n -+ sqrt(2)*sigma*n^(5/8),
bounds the indices at which single summands are reported.  The exposed
pieces are the saddle solver itself, the per-summand and total
coefficient approximations, the per-k window profile of exact against
approximate log a_{n,k} (as rows; the CLI formats them), the constrained
exponent surface phi(q) whose maximum yields the growth constants, and
numeric checks of the modulus bounds used to truncate the integrals.  The
same scheme ports to the other product families (replace e^{jz} - 1 by the
corresponding factor); only the prototype channel is wired up here because
every closed-form constant of the generic regime is calibrated against it.

The saddle radius is located in float64 and then checked, and refined if
needed, in mpmath arithmetic at 60 digits, where all other numeric work
happens; exact integer data comes from
:func:`fishburn.families.labeled_profile`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import mpmath as mp

from .asymptotics import _mpf, _require_positive_int, _require_real
from .families import labeled_profile

__all__ = [
    "BoundReport",
    "CentralConstants",
    "PhiEvaluation",
    "SaddleState",
    "an_approx",
    "ank_approx",
    "bound_margins",
    "check_bounds",
    "dilog",
    "em_log_product",
    "I_func",
    "llt_distance",
    "log_product",
    "optimum",
    "phi_surface",
    "profile_rows",
    "solve_saddle",
    "window_tail",
]

# Working precision (decimal digits).  Saddle residuals are checked against
# 1e-9 * n and bound margins are resolved down to ~1e-40, both far above
# the 60-digit noise floor.
_DPS = 60

# A margin this far below zero counts as a genuine bound violation rather
# than rounding noise (margins are O(1) quantities computed at 60 digits).
_MARGIN_SLACK = mp.mpf("1e-40")


# ---------------------------------------------------------------------------
# Special functions of the saddle analysis
# ---------------------------------------------------------------------------

def dilog(x) -> mp.mpf:
    """Real dilogarithm sum_{k>=1} x^k / k^2 on the interval [0, 1].

    Evaluated as mpmath's ``mp.polylog(2, x)`` at the working precision.
    """
    _require_real("x", x)
    with mp.workdps(_DPS):
        t = _mpf(x)
        if t < 0 or t > 1:
            raise ValueError(f"dilog is defined on [0, 1] only, got {x!r}")
        return mp.polylog(2, t)


def I_func(x) -> mp.mpf:
    """The saddle integral I(x) = int_0^x t / (1 - e^{-t}) dt for x >= 0.

    Closed form I(x) = x^2/2 + dilog(1 - e^{-x}); in particular I(0) = 0
    and I(log 2) = pi^2/12, the radius of the optimal saddle.  Since the
    integrand exceeds 1 for t > 0, I(x) > x for all x > 0, which is what
    makes the constraint I(q*rho) = rho degenerate at q = 1.
    """
    _require_real("x", x)
    with mp.workdps(_DPS):
        t = _mpf(x)
        if t < 0:
            raise ValueError(f"I_func needs x >= 0, got {x!r}")
        if t == 0:
            return mp.mpf(0)
        return t * t / 2 + dilog(-mp.expm1(-t))


def log_product(k: int, r) -> mp.mpf:
    """log prod_{1<=j<=k} (e^{jr} - 1) by direct summation, r > 0."""
    _require_positive_int("k", k)
    _require_real("r", r)
    with mp.workdps(_DPS):
        rr = _mpf(r)
        if rr <= 0:
            raise ValueError(f"r must be positive, got {r!r}")
        return mp.fsum(mp.log(mp.expm1(j * rr)) for j in range(1, k + 1))


def em_log_product(k: int, r) -> mp.mpf:
    """Euler-Maclaurin closed form for log prod_{1<=j<=k} (e^{jr} - 1).

    Evaluates

        k*log(e^{kr} - 1) - I(kr)/r + (1/2)*log(2*pi*(e^{kr} - 1)/r)
            + r*(e^{kr} + 1) / (24*(e^{kr} - 1)),

    the expansion of :func:`log_product` through the first Bernoulli
    correction; the truncation error is O(k^-3 + r^3).  The derivation
    needs k*r bounded away from 2*pi (where e^{kz} - 1 would hit a zero
    on the circle |z| = r), so arguments with k*r > 2*pi - 0.1 are
    rejected.
    """
    _require_positive_int("k", k)
    _require_real("r", r)
    with mp.workdps(_DPS):
        rr = _mpf(r)
        if rr <= 0:
            raise ValueError(f"r must be positive, got {r!r}")
        kr = k * rr
        if kr > 2 * mp.pi - mp.mpf("0.1"):
            raise ValueError(
                f"k*r = {mp.nstr(kr, 6)} is outside the Euler-Maclaurin "
                "range (need k*r <= 2*pi - 0.1)")
        em1 = mp.expm1(kr)
        return (k * mp.log(em1)
                - I_func(kr) / rr
                + mp.log(2 * mp.pi * em1 / rr) / 2
                + rr * (em1 + 2) / (24 * em1))


def _phi_terms(x: mp.mpf) -> Tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """First four Euler-operator derivatives of log(e^{jz} - 1) at x = j*z.

    With w = x/(1 - e^{-x}) and u = e^{-x},

        phi1 = w,
        phi2 = w - u*w^2,
        phi3 = phi2*(1 - 2*u*w) + u*(1 - u)*w^3,
        phi4 = phi3*(1 - 2*u*w) + phi2*(2*x*u*w - 2*u*phi2)
               - x*u*(1 - 2*u)*w^3 + 3*u*(1 - u)*w^2*phi2,

    so that (z d/dz)^m log(e^{jz} - 1) = phi_m(jz).  Summing phi_m(j*r)
    over j gives the cumulants upsilon_m of the saddle integrand.  The
    evaluation below uses (1 - u)*w = x to share products between the
    terms; u = 1 + expm1(-x) is exact to the working precision in absolute
    terms, which is all the u-weighted terms need.
    """
    em = mp.expm1(-x)
    u = 1 + em
    w = x / -em
    uw = u * w
    xuw = x * uw
    damp = 1 - 2 * uw
    phi2 = w - uw * w
    phi3 = phi2 * damp + xuw * w
    phi4 = phi3 * damp + xuw * (4 * phi2 + w * (1 - x)) - 2 * u * phi2 * phi2
    return w, phi2, phi3, phi4


# ---------------------------------------------------------------------------
# Central constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralConstants:
    """Constants of the central saddle regime k ~ mu*n, r ~ xi/n.

    (mu, xi) maximizes the constrained exponent surface of
    :func:`phi_surface` (so e^{mu*xi} = 2 and I(mu*xi) = xi), sigma is the
    Gaussian spread of the summand profile over k, and xi1..xi3 refine the
    saddle radius along the window:

        n*r = xi + xi1*x/sqrt(n) + (xi2 + xi3*x^2)/n + ...,
        k   = mu*n + x*sigma*sqrt(n).

    ``tau_aux = 2*log(2)^2 - pi^2/12`` is the recurring denominator of the
    refinements and satisfies sigma^2 = 72 * pi^-4 * tau_aux.
    """

    mu: mp.mpf
    xi: mp.mpf
    sigma: mp.mpf
    xi1: mp.mpf
    xi2: mp.mpf
    xi3: mp.mpf
    tau_aux: mp.mpf


@lru_cache(maxsize=1)
def optimum() -> CentralConstants:
    """The stationary point of the exponent surface and its refinements."""
    with mp.workdps(_DPS):
        log2 = mp.log(2)
        pi2 = mp.pi ** 2
        pi4 = pi2 ** 2
        tau = 2 * log2 ** 2 - pi2 / 12
        return CentralConstants(
            mu=12 * log2 / pi2,
            xi=pi2 / 12,
            sigma=mp.sqrt(6 * (24 * log2 ** 2 - pi2)) / pi2,
            xi1=-pi4 * log2 / (72 * tau),
            xi2=-pi4 * (2 * log2 - 1) / (288 * tau),
            xi3=pi2 ** 3 * (288 * tau ** 2 + log2 * pi4 + 24 * pi2 * tau - pi4)
                / (248832 * tau ** 3),
            tau_aux=tau,
        )


def _window_bounds(n: int) -> Tuple[mp.mpf, mp.mpf]:
    """Per-summand validity window (k_-, k_+) = mu*n -+ sqrt(2)*sigma*n^(5/8).

    This is the range over which :func:`ank_approx` accepts k and over
    which :func:`profile_rows` reports rows.  It is only sqrt(2)*n^(1/8)
    standard deviations wide (about 2.6 at n = 120), so it leaves ~1e-2 of
    the mass of a_n outside; :func:`an_approx` therefore sums over the wider
    :func:`_summation_range`.
    """
    constants = optimum()
    with mp.workdps(_DPS):
        center = constants.mu * n
        spread = mp.sqrt(2) * constants.sigma * mp.power(n, mp.mpf(5) / 8)
        return center - spread, center + spread


def _summation_range(n: int) -> range:
    """Integer k in mu*n -+ 3*sigma*n^(5/8), capped to [1, n - 1].

    The range summed by :func:`an_approx` and complemented by
    :func:`window_tail`.  Its half-width is 3*n^(1/8) standard deviations
    of the Gaussian profile (5.5 at n = 120), so the mass it leaves out
    decays faster than any power of n while the n^(5/8) scale of the
    analysis is kept.
    """
    constants = optimum()
    with mp.workdps(_DPS):
        center = constants.mu * n
        spread = 3 * constants.sigma * mp.power(n, mp.mpf(5) / 8)
        k_lo = max(1, int(mp.ceil(center - spread)))
        k_hi = min(n - 1, int(mp.floor(center + spread)))
    return range(k_lo, k_hi + 1)


# ---------------------------------------------------------------------------
# The saddle solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleState:
    """Solved saddle point for the coefficient [z^n] A_k(z).

    ``r`` is the positive root of sum_{1<=j<=k} j*r/(1 - e^{-j*r}) = n
    (residual below 1e-9 * n at 60 digits).  ``upsilon`` holds the first
    four Euler-operator cumulants of log A_k at r; upsilon[0] reproduces n,
    upsilon[1] = r^2 L_k''(r) + r L_k'(r) is the Gaussian curvature that
    normalizes the saddle integral, and upsilon[2], upsilon[3] enter its
    second-order correction.  ``window`` is the per-summand validity window
    (k_-, k_+) of :func:`_window_bounds`, and ``theta0 = 6*n^(-3/8)`` is
    the matching cutoff angle of the integration arc.
    """

    n: int
    k: int
    r: mp.mpf
    upsilon: Tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]
    window: Tuple[mp.mpf, mp.mpf]
    theta0: mp.mpf


def _float_radius(n: int, k: int) -> float:
    """Root of sum_{j<=k} j*r/(1 - e^{-j*r}) = n in float64 arithmetic.

    The left side is increasing and convex in r, so Newton steps taken
    from the right end of a sign-change bracket decrease monotonically to
    the root; a step that leaves the bracket is replaced by bisection.
    The bracket starts at [1e-15, 2*pi/k] and doubles its upper end until
    the sign changes, which it must do for k < n.
    """

    def residual(radius: float) -> Tuple[float, float]:
        total = 0.0
        curvature = 0.0
        for j in range(1, k + 1):
            x = j * radius
            w = x / -math.expm1(-x)
            total += w
            curvature += w - math.exp(-x) * w * w
        return total - n, curvature

    lo = 1e-15
    hi = 2 * math.pi / k
    gap, curvature = residual(hi)
    for _ in range(200):
        if gap >= 0:
            break
        lo = hi
        hi *= 2
        gap, curvature = residual(hi)
    else:
        raise RuntimeError(f"could not bracket the saddle radius for n={n}, k={k}")
    r = hi
    for _ in range(200):
        if abs(gap) <= 1e-13 * n or hi - lo <= 4e-16 * hi:
            break
        if gap > 0:
            hi = r
        else:
            lo = r
        step = r - gap * r / curvature if curvature > 0 else lo
        if not lo < step < hi:
            step = (lo + hi) / 2
        if step == r:
            break
        r = step
        gap, curvature = residual(r)
    return r


def _upsilon(k: int, r: mp.mpf) -> Tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """The cumulants upsilon_1..upsilon_4 = sum_{j<=k} phi_m(j*r)."""
    ups1 = ups2 = ups3 = ups4 = mp.mpf(0)
    for j in range(1, k + 1):
        phi1, phi2, phi3, phi4 = _phi_terms(j * r)
        ups1 += phi1
        ups2 += phi2
        ups3 += phi3
        ups4 += phi4
    return ups1, ups2, ups3, ups4


# Each (n, k) cache holds 1024 entries: `verify --full` leaves 102, the tests 220.
@lru_cache(maxsize=1024)
def solve_saddle(n: int, k: int) -> SaddleState:
    """Solve the saddle equation sum_{j<=k} j*r/(1 - e^{-j*r}) = n for r.

    The left side increases from k (at r = 0+) without bound, so for
    1 <= k < n there is a unique positive root.  It is located by bracketed
    float64 Newton steps (:func:`_float_radius`); one pass at 60 digits then
    evaluates upsilon_1..upsilon_4 at that radius and checks the residual
    |upsilon_1 - n| <= 1e-9 * n.  Only if the check fails are 60-digit
    Newton steps taken (200-step cap), each followed by the same check.
    """
    _require_positive_int("n", n)
    _require_positive_int("k", k)
    if not k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    with mp.workdps(_DPS):
        tol = mp.mpf("1e-9") * n
        r = mp.mpf(_float_radius(n, k))
        upsilon = _upsilon(k, r)
        for _ in range(200):
            gap = upsilon[0] - n
            if abs(gap) <= tol:
                break
            # The sum is convex in r, so Newton converges from either side.
            r -= gap * r / upsilon[1]
            upsilon = _upsilon(k, r)
        else:
            raise RuntimeError(
                f"saddle equation for n={n}, k={k} did not converge in 200 steps")
        theta0 = 6 * mp.power(n, -mp.mpf(3) / 8)
        return SaddleState(n=n, k=k, r=r, upsilon=upsilon,
                           window=_window_bounds(n), theta0=theta0)


# ---------------------------------------------------------------------------
# Coefficient approximations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _log_ank(n: int, k: int) -> mp.mpf:
    state = solve_saddle(n, k)
    with mp.workdps(_DPS):
        _, ups2, ups3, ups4 = state.upsilon
        correction = 1 + ups4 / (8 * ups2 ** 2) - 5 * ups3 ** 2 / (24 * ups2 ** 3)
        return (-n * mp.log(state.r)
                + log_product(k, state.r)
                - mp.log(2 * mp.pi * ups2) / 2
                + mp.log(correction))


def ank_approx(n: int, k: int) -> mp.mpf:
    """Second-order saddle approximation to a_{n,k} = [z^n] prod_{j<=k}(e^{jz}-1).

    Computes

        r^{-n} A_k(r) / sqrt(2*pi*upsilon_2)
            * (1 + upsilon_4/(8*upsilon_2^2) - 5*upsilon_3^2/(24*upsilon_2^3))

    in log space at the solved saddle radius.  The factor in parentheses
    is the next term of the Gaussian expansion of the Cauchy integral; it
    removes the O(1/n) overshoot of the Gaussian term, leaving an O(n^-2)
    relative error at the centre of the window.  Only indices inside the
    per-summand validity window of :func:`_window_bounds` are accepted,
    the range over which the analysis makes the expansion uniform in k.
    :func:`an_approx` applies the same formula over its wider summation
    range, where the summands beyond this window add ~1e-2 of a_n.
    """
    _require_positive_int("n", n)
    _require_positive_int("k", k)
    k_minus, k_plus = _window_bounds(n)
    if not k_minus <= k <= k_plus:
        raise ValueError(
            f"k={k} lies outside the central window "
            f"[{mp.nstr(k_minus, 6)}, {mp.nstr(k_plus, 6)}] for n={n}")
    with mp.workdps(_DPS):
        return mp.exp(_log_ank(n, k))


def an_approx(n: int) -> mp.mpf:
    """Range-summed saddle approximation to a_n = [z^n] A(z).

    Adds the second-order summand of :func:`ank_approx` over every k of
    :func:`_summation_range`, mu*n -+ 3*sigma*n^(5/8) capped to [1, n-1],
    in increasing k with the largest term factored out, so the reduction
    order is fixed and the result deterministic.  The exact mass outside
    that range is :func:`window_tail`.  The relative error falls from
    ~2e-2 at n = 20 to ~2e-5 at n = 100 and ~4e-6 at n = 200; the central
    window is too thin to be meaningful below n = 20.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 20:
        raise ValueError(f"n must be an integer >= 20, got {n!r}")
    with mp.workdps(_DPS):
        logs = [_log_ank(n, k) for k in _summation_range(n)]
        top = max(logs)
        total = mp.mpf(0)
        for value in logs:
            total += mp.exp(value - top)
        return mp.exp(top) * total


# ---------------------------------------------------------------------------
# The constrained exponent surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiEvaluation:
    """One point of the exponent surface along the constraint curve.

    ``varrho`` > 0 solves I(q*varrho) = varrho (the continuum limit of the
    saddle equation with k = q*n, r = varrho/n) and

        phi = -log(varrho) + q*log(e^{q*varrho} - 1) - 1

    so that the k ~ q*n summand contributes e^{n*phi(q)} * n^n up to
    polynomial factors.  phi is concave in q with its maximum at q = mu,
    where e^{phi} = 12/(e*pi^2).  At q = 1 the constraint degenerates
    (I(x) > x for x > 0 leaves only varrho = 0) and the limiting value
    phi = -1 is reported.
    """

    q: mp.mpf
    varrho: mp.mpf
    phi: mp.mpf


def phi_surface(q) -> PhiEvaluation:
    """Evaluate the exponent surface at q in (0, 1] along the constraint."""
    _require_real("q", q)
    with mp.workdps(_DPS):
        qq = _mpf(q)
        if not 0 < qq <= 1:
            raise ValueError(f"q must lie in (0, 1], got {q!r}")
        if qq == 1:
            return PhiEvaluation(q=qq, varrho=mp.mpf(0), phi=mp.mpf(-1))

        def gap(v: mp.mpf) -> mp.mpf:
            return I_func(qq * v) - v

        # gap has slope q - 1 < 0 at v = 0 and grows like q^2 v^2 / 2, so
        # the positive root is bracketed once gap turns positive; the
        # small-v expansion puts it near 4*(1 - q)/q^2.
        hi = max(mp.mpf(1), 4 * (1 - qq) / qq ** 2)
        grew = 0
        while gap(hi) <= 0:
            hi *= 2
            grew += 1
            if grew > 200:
                raise RuntimeError(f"could not bracket the saddle radius for q={q!r}")
        lo = mp.mpf(0)
        v = hi
        value = gap(v)
        converged = False
        for _ in range(200):
            if abs(value) <= mp.mpf("1e-45"):
                converged = True
                break
            if value > 0:
                hi = v
            else:
                lo = v
            x = qq * v
            slope = qq * (x / -mp.expm1(-x)) - 1
            step = v - value / slope if slope != 0 else (lo + hi) / 2
            if not lo < step < hi:
                step = (lo + hi) / 2
            v = step
            value = gap(v)
        if not converged:
            raise RuntimeError(f"radius iteration for q={q!r} did not converge")
        phi = -mp.log(v) + qq * mp.log(mp.expm1(qq * v)) - 1
        return PhiEvaluation(q=qq, varrho=v, phi=phi)


# ---------------------------------------------------------------------------
# Modulus bounds used to truncate the saddle integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Outcome of sampling the two truncation inequalities.

    Margins are log(bound) - log(value); they are nonnegative when the
    bounds hold and vanish at real z.  A sample counts as a violation
    only when its margin drops below -1e-40, i.e. far outside rounding
    noise of the 60-digit evaluation.
    """

    samples: int
    factor_violations: int
    product_violations: int
    min_factor_margin: mp.mpf
    min_product_margin: mp.mpf

    @property
    def ok(self) -> bool:
        return self.factor_violations == 0 and self.product_violations == 0


def bound_margins(modulus, angle, k: int) -> Tuple[mp.mpf, mp.mpf]:
    """Log-margins of the two modulus inequalities at z = modulus*e^{i*angle}.

    Returns ``(factor, product)`` where

        factor  = log[(e^|z| - 1) e^{-|z| angle^2 / pi^2}] - log|e^z - 1|,
        product = log[A_k(|z|) e^{-k(k+1)|z| angle^2 / (2 pi^2)}] - log|A_k(z)|,

    both of which are >= 0 for |angle| <= pi, with equality exactly when
    z is real (angle 0 or +-pi); the product bound follows by applying
    the factor bound to each e^{jz} - 1.
    """
    _require_positive_int("k", k)
    _require_real("modulus", modulus)
    _require_real("angle", angle)
    with mp.workdps(_DPS):
        t = _mpf(modulus)
        theta = _mpf(angle)
        if t <= 0:
            raise ValueError(f"modulus must be positive, got {modulus!r}")
        if abs(theta) > mp.pi:
            raise ValueError(f"|angle| must not exceed pi, got {angle!r}")
        z = mp.mpc(t * mp.cos(theta), t * mp.sin(theta))
        decay = t * theta ** 2 / mp.pi ** 2
        factor = (mp.log(mp.expm1(t)) - decay) - mp.log(abs(mp.exp(z) - 1))
        log_abs_prod = mp.fsum(
            mp.log(abs(mp.exp(j * z) - 1)) for j in range(1, k + 1))
        product = (log_product(k, t) - k * (k + 1) * decay / 2) - log_abs_prod
        return factor, product


def check_bounds(samples: int = 1000, seed: int = 1859) -> BoundReport:
    """Sample the truncation bounds at random (modulus, angle, k) triples.

    Triples are drawn with modulus in (0, 3], angle uniform in [-pi, pi]
    and k in 1..30, covering the regime the saddle integrals actually
    visit (|z| = r with k*r of order 1).  The draw is seeded, so reports
    are reproducible.
    """
    _require_positive_int("samples", samples)
    rng = random.Random(seed)
    factor_bad = 0
    product_bad = 0
    min_factor = mp.inf
    min_product = mp.inf
    for _ in range(samples):
        modulus = rng.uniform(1e-3, 3.0)
        angle = rng.uniform(-math.pi, math.pi)
        k = rng.randint(1, 30)
        factor, product = bound_margins(modulus, angle, k)
        min_factor = min(min_factor, factor)
        min_product = min(min_product, product)
        if factor < -_MARGIN_SLACK:
            factor_bad += 1
        if product < -_MARGIN_SLACK:
            product_bad += 1
    return BoundReport(samples=samples, factor_violations=factor_bad,
                       product_violations=product_bad,
                       min_factor_margin=min_factor,
                       min_product_margin=min_product)


# ---------------------------------------------------------------------------
# Exact-profile diagnostics and dumps
# ---------------------------------------------------------------------------

def llt_distance(n: int) -> mp.mpf:
    """Sup over k of |a_{n,k}/a_n - normal density| (local limit gap).

    The reference is the N(mu*n, sigma^2*n) density evaluated at integer
    k; the exact probabilities come from the integer coefficient profile,
    so the n! normalizations cancel.
    """
    _require_positive_int("n", n)
    totals, rows = labeled_profile(n)
    constants = optimum()
    with mp.workdps(_DPS):
        total = mp.mpf(totals[n])
        variance = constants.sigma ** 2 * n
        center = constants.mu * n
        norm = 1 / mp.sqrt(2 * mp.pi * variance)
        worst = mp.mpf(0)
        for k in range(1, n + 1):
            density = norm * mp.exp(-(k - center) ** 2 / (2 * variance))
            gap = abs(mp.mpf(rows[n][k]) / total - density)
            worst = max(worst, gap)
        return worst


def window_tail(n: int) -> Fraction:
    """Exact mass sum_k a_{n,k}/a_n outside the range :func:`an_approx` sums.

    The range is :func:`_summation_range`, mu*n -+ 3*sigma*n^(5/8) capped
    to [1, n-1]; the mass it leaves out is the truncation error of
    :func:`an_approx` (2e-7 at n = 120).
    """
    _require_positive_int("n", n)
    totals, rows = labeled_profile(n)
    ks = _summation_range(n)
    inside = sum(rows[n][ks.start:ks.stop])
    return Fraction(totals[n] - inside, totals[n])


def profile_rows(n: int) -> List[Tuple[int, mp.mpf, mp.mpf]]:
    """Rows ``(k, log_exact, log_approx)`` over the central window.

    ``log_exact`` is log(a_{n,k}) from the integer profile (scaled back by
    n!), ``log_approx`` is the log of :func:`ank_approx`; both are natural
    logs at 60 digits.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 20:
        raise ValueError(f"n must be an integer >= 20, got {n!r}")
    _totals, rows = labeled_profile(n)
    with mp.workdps(_DPS):
        log_factorial = mp.log(mp.factorial(n))
        k_minus, k_plus = _window_bounds(n)
        k_lo = max(1, int(mp.ceil(k_minus)))
        k_hi = min(n - 1, int(mp.floor(k_plus)))
        return [
            (k, mp.log(mp.mpf(rows[n][k])) - log_factorial, _log_ank(n, k))
            for k in range(k_lo, k_hi + 1)
        ]

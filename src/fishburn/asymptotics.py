"""Closed-form growth constants for the matrix-counting sequences.

Every family handled by :mod:`fishburn.families` grows superexponentially:
the coefficients behave like

    a_n ~ c * rho^n * n^(n + theta)            (generic regime)
    a_n ~ c * e^(beta*sqrt(n)) * rho^(n/2) * n^(n/2 + theta)
                                               (self-dual / smallest-entry-2)

for explicit constants that depend only on the first few weights of the
entry multiset.  This module evaluates those constants exactly (in high
precision mpmath arithmetic), packages them as :class:`AsymptoticForm`
objects, and provides Richardson-extrapolated convergence checks of exact
coefficients against the predicted forms.  :func:`family_form` is the one
place that picks the form, and names its regime, for a matrix family and
entry multiset; the CLI and the verification battery both ask it.

Naming convention for the inputs: ``lam1, lam2, ...`` are the weights
``Lambda(z) = 1 + lam1*z + lam2*z^2 + ...`` of the entry multiset, while
``d1, d2, e1, ...`` are Taylor coefficients of the auxiliary series
``d(z) = 1 + d1*z + ...`` and ``e(z) = 1 + e1*z + ...`` appearing in the
general sums ``sum_k d(z)^(k+omega0) * prod_j (e(z)^(j+omega) - 1)^alpha``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import mpmath as mp

if TYPE_CHECKING:
    from .families import LambdaSpec

__all__ = [
    "AsymptoticForm",
    "ConvergenceReport",
    "RefinedExpansion",
    "TABLE_IDS",
    "a158690_expansion",
    "blr_expansion",
    "constants_ext",
    "constants_fishburn",
    "constants_fractional",
    "constants_general",
    "constants_proto",
    "constants_row_fishburn",
    "constants_self_dual",
    "constants_small2",
    "family_form",
    "named_form",
    "ratio_sequence",
    "refined_a158690",
    "refined_blr",
]

# Working precision (decimal digits) for all constant evaluation.  The
# closed forms involve nothing worse than Gamma values and exponentials,
# so 60 digits leaves a huge margin over the 12 digits we ever report.
_DPS = 60


def _mpf(value) -> mp.mpf:
    """Convert ints, Fractions and floats to mpf at working precision."""
    if isinstance(value, Rational) and not isinstance(value, int):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def _require_real(name: str, value) -> None:
    if isinstance(value, complex):
        raise TypeError(f"{name} must be real, got {value!r}")


def _require_positive_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _is_negative_integer(value) -> bool:
    try:
        as_fraction = Fraction(value)
    except (TypeError, ValueError):
        return False
    return as_fraction.denominator == 1 and as_fraction <= -1


@dataclass(frozen=True)
class AsymptoticForm:
    """First-order asymptotic shape ``c * e^(beta*sqrt(n)) * rho^g * n^h``.

    ``half_exponent`` selects the exponent convention:

    * ``False``: ``g = n`` and ``h = n + n_power``;
    * ``True``:  ``g = n/2`` and ``h = n/2 + n_power``.

    ``n_power`` is therefore always the *offset* theta of the power of n,
    never the full exponent.  ``parity`` (when present) holds a pair of
    forms ``(even, odd)`` used for sequences whose even- and odd-indexed
    terms obey different first-order asymptotics; the top-level fields
    then mirror the even branch.  ``bound_only`` marks parameter choices
    where the leading constant degenerates to zero and the form is only
    an upper bound (this happens when the shift omega is a negative
    integer, killing the reciprocal Gamma factor).
    """

    c: mp.mpf
    rho: mp.mpf
    n_power: mp.mpf
    beta: mp.mpf = mp.mpf(0)
    half_exponent: bool = False
    bound_only: bool = False
    parity: Optional[Tuple["AsymptoticForm", "AsymptoticForm"]] = None
    label: str = ""

    def branch(self, n: int) -> "AsymptoticForm":
        """The parity branch governing index ``n`` (self if no split)."""
        if self.parity is None:
            return self
        return self.parity[n % 2]

    def log_evaluate(self, n: int) -> mp.mpf:
        """Natural log of the predicted value at ``n``."""
        if n < 1:
            raise ValueError("asymptotic forms are evaluated at n >= 1")
        form = self.branch(n)
        if form.bound_only or form.c <= 0:
            raise ValueError(
                "bound-only form (c = 0) has no finite predicted value"
            )
        with mp.workdps(_DPS):
            n_ = mp.mpf(n)
            out = mp.log(form.c) + form.beta * mp.sqrt(n_)
            if form.half_exponent:
                out += (n_ / 2) * mp.log(form.rho)
                out += (n_ / 2 + form.n_power) * mp.log(n_)
            else:
                out += n_ * mp.log(form.rho)
                out += (n_ + form.n_power) * mp.log(n_)
            return out

    def evaluate(self, n: int) -> mp.mpf:
        """Predicted value at ``n`` (a huge number; computed via logs)."""
        with mp.workdps(_DPS):
            return mp.exp(self.log_evaluate(n))

    def describe(self) -> str:
        """Human-readable shape, e.g. ``c * rho^n * n^(n + 1/2)``."""
        form = self
        parts = ["c"]
        if form.parity is not None:
            return "parity pair: even {}; odd {}".format(
                form.parity[0].describe(), form.parity[1].describe()
            )
        if form.beta != 0:
            parts.append("exp(beta*sqrt(n))")
        power = mp.nstr(form.n_power, 6)
        if form.half_exponent:
            parts.append("rho^(n/2)")
            parts.append(f"n^(n/2 + {power})")
        else:
            parts.append("rho^n")
            parts.append(f"n^(n + {power})")
        text = " * ".join(parts)
        if form.bound_only:
            text += "  [upper bound only: c = 0]"
        return text


def constants_proto(alpha: int, omega) -> AsymptoticForm:
    """Constants for ``sum_k prod_{j<=k} (e^((j+omega)z) - 1)^alpha``.

    This is the exponential prototype every other regime reduces to.
    Returns the form c * rho^n * n^(n + alpha*omega + alpha/2).  When
    ``omega`` is a negative integer the reciprocal Gamma factor vanishes
    and the result is flagged ``bound_only``.
    """
    _require_positive_int("alpha", alpha)
    _require_real("omega", omega)
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        om = _mpf(omega)
        base = (
            2 * mp.sqrt(6) / mp.sqrt(a * mp.pi)
            * mp.rgamma(1 + om)
            * (12 / (a * mp.pi**2)) ** om
        )
        c = mp.sqrt(6) / (a * mp.pi) * base**alpha
        rho = 12 / (mp.e * a * mp.pi**2)
        theta = a * om + a / 2
    return AsymptoticForm(
        c=c, rho=rho, n_power=theta,
        bound_only=_is_negative_integer(omega),
    )


def constants_general(alpha: int, omega, d1, e1, e2) -> AsymptoticForm:
    """Constants for ``sum_k d(z)^(k+omega0) prod_j (e(z)^(j+omega)-1)^alpha``.

    Only ``d1 = [z] d(z)`` and ``e1, e2`` of ``e(z)`` enter the first-order
    answer; the shift omega0 and all higher coefficients are irrelevant,
    which is why they do not appear in the signature.  Requires ``e1 > 0``;
    the degenerate case ``e1 = 0`` changes the growth scale entirely and is
    handled by :func:`constants_ext`.
    """
    _require_positive_int("alpha", alpha)
    for nm, val in (("omega", omega), ("d1", d1), ("e1", e1), ("e2", e2)):
        _require_real(nm, val)
    if e1 == 0:
        raise ValueError(
            "e1 = 0 puts the sum in the square-root-exponent regime; "
            "use constants_ext instead"
        )
    if e1 < 0:
        raise ValueError("e1 must be positive for a dominant singularity")
    proto = constants_proto(alpha, omega)
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        one_half = mp.mpf(1) / 2
        c = (
            proto.c
            * mp.power(2, _mpf(d1) / _mpf(e1))
            * mp.exp((a * mp.pi**2 / 12) * (_mpf(e2) / _mpf(e1) ** 2 - one_half))
        )
        rho = 12 * _mpf(e1) / (mp.e * a * mp.pi**2)
    return AsymptoticForm(
        c=c, rho=rho, n_power=proto.n_power, bound_only=proto.bound_only,
    )


def constants_row_fishburn(lam1, lam2) -> AsymptoticForm:
    """Constants for row-Fishburn matrix counts with entry weights Lambda.

    ``lam1`` and ``lam2`` are the weights of the values 1 and 2.  The count
    grows like c * rho^n * n^(n + 1/2) with rho = 12*lam1/(e*pi^2).
    """
    if lam1 <= 0:
        raise ValueError(
            "lam1 = 0 (no 1s allowed) leaves the square-root-exponent "
            "regime; use constants_small2"
        )
    return constants_general(1, 0, 0, lam1, lam2)


def constants_fishburn(lam1, lam2) -> AsymptoticForm:
    """Constants for (complete) Fishburn matrix counts with weights Lambda.

    Same conventions as :func:`constants_row_fishburn`; the complete family
    squares the product factors, so alpha = 2 and the growth is
    c * rho^n * n^(n+1) with rho = 6*lam1/(e*pi^2).
    """
    if lam1 <= 0:
        raise ValueError(
            "lam1 = 0 (no 1s allowed) leaves the square-root-exponent "
            "regime; use constants_small2"
        )
    return constants_general(2, 0, lam1, lam1, lam2)


def constants_fractional(p, s) -> AsymptoticForm:
    """Constants for products over a residue class: factors ``(1+z)^(pj-s)-1``.

    Requires ``0 < s < p``.  The growth is c * rho^n * n^(n + 1/2 - s/p),
    a genuinely fractional power shift; this is
    ``constants_general(1, -s/p, 0, p, p*(p-1)/2)``.
    """
    _require_real("p", p)
    _require_real("s", s)
    if not 0 < s < p:
        raise ValueError(f"need 0 < s < p, got s={s!r}, p={p!r}")
    with mp.workdps(_DPS):
        omega, e2 = -_mpf(s) / _mpf(p), _mpf(p) * (_mpf(p) - 1) / 2
    return constants_general(1, omega, 0, p, e2)


def constants_ext(alpha: int, omega, d1, d2, e2, e3, e4) -> AsymptoticForm:
    """Constants in the ``e1 = 0`` regime (smallest product entry is 2).

    Covers ``sum_k d(z)^(k+omega0) prod_j (e(z)^(j+omega)-1)^alpha`` with
    ``[z] e(z) = 0`` and ``[z^2] e(z) = e2 > 0``.  The growth switches to

        c * e^(beta*sqrt(n)) * rho^(n/2) * n^(n/2 + alpha/2 + alpha*omega)

    and requires ``alpha*e3*pi^2 + 12*d1*e2*log(2) > 0`` so that beta > 0.
    When that combination vanishes or goes negative the even/odd terms
    decouple; use the parity-aware :func:`constants_small2` path instead.
    """
    _require_positive_int("alpha", alpha)
    for nm, val in (
        ("omega", omega), ("d1", d1), ("d2", d2),
        ("e2", e2), ("e3", e3), ("e4", e4),
    ):
        _require_real(nm, val)
    if e2 <= 0:
        raise ValueError("e2 must be positive in the e1 = 0 regime")
    with mp.workdps(_DPS):
        condition = alpha * _mpf(e3) * mp.pi**2 + 12 * _mpf(d1) * _mpf(e2) * mp.ln2
    if condition <= 0:
        raise ValueError(
            "beta would not be positive for these coefficients; the "
            "even/odd subsequences separate -- use the parity-aware "
            "constants_small2 path"
        )
    return _ext_core(alpha, omega, d1, d2, e2, e3, e4)


def _ext_core(alpha: int, omega, d1, d2, e2, e3, e4) -> AsymptoticForm:
    """The ``e1 = 0`` constants of :func:`constants_ext`, without its checks."""
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        om = _mpf(omega)
        D1, D2 = _mpf(d1), _mpf(d2)
        E2, E3, E4 = _mpf(e2), _mpf(e3), _mpf(e4)
        beta = (
            mp.sqrt(6) * D1 * mp.ln2 / (mp.sqrt(E2 * a) * mp.pi)
            + mp.sqrt(a) * E3 * mp.pi / (2 * mp.sqrt(6) * E2 ** mp.mpf("1.5"))
        )
        rho = 6 * E2 / (mp.e * mp.pi**2 * a)
        prefactor = (
            mp.sqrt(3) / (mp.sqrt(2) * a * mp.pi)
            * (
                mp.rgamma(1 + om)
                * mp.sqrt(12 / (a * mp.pi))
                * (6 / (a * mp.pi**2)) ** om
            ) ** alpha
        )
        two_power = mp.power(
            2,
            -D1**2 / (2 * E2) - 3 * D1 * E3 / (4 * E2**2) + D2 / E2,
        )
        exp_power = mp.exp(
            -D1**2 / (4 * a * E2)
            - (a * mp.pi**2 / 12)
            * (7 * E3**2 / (8 * E2**3) - E4 / E2**2 + mp.mpf(1) / 2)
            + 3 * D1**2 * mp.ln2**2 / (2 * E2 * a * mp.pi**2)
        )
        c = prefactor * two_power * exp_power
        theta = a / 2 + a * om
    return AsymptoticForm(
        c=c, rho=rho, n_power=theta, beta=beta,
        half_exponent=True, bound_only=_is_negative_integer(omega),
    )


def constants_self_dual(lam1, lam2) -> AsymptoticForm:
    """Constants for self-dual Fishburn matrix counts with weights Lambda.

    Specializes :func:`constants_ext` with d = Lambda(z), e = Lambda(z^2):
    d1 = e2 = lam1, d2 = e4 = lam2 and e3 = 0.
    """
    if lam1 <= 0:
        raise ValueError(
            "lam1 = 0 (no 1s allowed) leaves the square-root-exponent "
            "regime; use constants_small2"
        )
    return constants_ext(1, 0, lam1, lam2, lam1, 0, lam2)


def constants_small2(lam2, lam3, lam4, lam_odd=None, m: int = 1,
                     parity: Optional[str] = None) -> AsymptoticForm:
    """Fishburn constants when 1s are forbidden (smallest entry 2).

    ``m`` is the number of leading odd weights that vanish: lam_{2i-1} = 0
    for i <= m while lam2 and lam_{2m+1} = ``lam_odd`` are positive.

    * ``m = 1`` (3s allowed): a single smooth form
      c * e^(beta*sqrt(n)) * rho^(n/2) * n^(n/2 + 1) with
      beta = lam3*pi / (2*sqrt(3)*lam2^(3/2)).  This is :func:`constants_ext`
      with d = e = Lambda (d1 = 0, d2 = e2 = lam2, e3 = lam3, e4 = lam4) and
      alpha = 2, without its beta > 0 check, so lam3 = 0 gives beta = 0.
    * ``m >= 2``: even and odd indices follow different forms; the result
      carries the pair in ``parity`` (pass ``parity="even"``/``"odd"`` to
      get one bare branch).  The even branch is the ``m = 1`` form at
      lam3 = 0 with c doubled; the odd branch is smaller by n^(m - 3/2).
    """
    _require_positive_int("m", m)
    for nm, val in (("lam2", lam2), ("lam3", lam3), ("lam4", lam4)):
        _require_real(nm, val)
    if lam2 <= 0:
        raise ValueError("lam2 must be positive (the value 2 must be allowed)")
    if parity not in (None, "even", "odd"):
        raise ValueError("parity must be None, 'even' or 'odd'")

    if m == 1:
        if lam_odd is not None and lam_odd != lam3:
            raise ValueError("for m = 1 the smallest odd weight is lam3 itself")
        if parity is not None:
            raise ValueError("parity splitting only arises for m >= 2")
        return _ext_core(2, 0, 0, lam2, lam2, lam3, lam4)

    # m >= 2: all odd entries below 2m+1 are forbidden.
    if lam3 != 0:
        raise ValueError("m >= 2 requires lam3 = 0 (the value 3 is forbidden)")
    if lam_odd is None or lam_odd <= 0:
        raise ValueError("m >= 2 requires the weight of the value 2m+1")
    _require_real("lam_odd", lam_odd)
    single = _ext_core(2, 0, 0, lam2, lam2, 0, lam4)
    with mp.workdps(_DPS):
        L2, L4, Lodd = _mpf(lam2), _mpf(lam4), _mpf(lam_odd)
        shared_exp = mp.exp((mp.pi**2 / 6) * (L4 / L2**2 - mp.mpf(1) / 2))
        c_even = 2 * single.c
        c_odd = (
            mp.sqrt(2) * mp.pi ** (2 * m - 3) / mp.mpf(3) ** (m - 2)
            * Lodd / L2 ** (m + mp.mpf(1) / 2)
            * shared_exp
        )
        theta_odd = mp.mpf(5) / 2 - m
    even_form = dataclasses.replace(single, c=c_even)
    odd_form = dataclasses.replace(even_form, c=c_odd, n_power=theta_odd)
    if parity == "even":
        return even_form
    if parity == "odd":
        return odd_form
    return dataclasses.replace(even_form, parity=(even_form, odd_form))


def family_form(family: str, lam: LambdaSpec) -> Tuple[AsymptoticForm, str]:
    """Leading-order form of a family's counts for entry multiset ``lam``,
    with a label of its regime: the family's own constants when 1s are
    allowed, else (Fishburn only) :func:`constants_small2` with ``m`` set by
    the smallest allowed odd value 2m+1."""
    lam1, lam2 = lam.weight(1), lam.weight(2)
    if lam1 > 0:
        builders = {
            "row-fishburn": constants_row_fishburn,
            "fishburn": constants_fishburn,
            "self-dual": constants_self_dual,
        }
        return builders[family](lam1, lam2), "1s allowed"
    if family != "fishburn":
        raise ValueError(
            f"no catalogued asymptotic form for {family} matrices without 1s"
        )
    if lam2 <= 0:
        raise ValueError("entries of value 2 must be allowed when 1s are barred")
    first_odd = lam.smallest_odd_entry()
    if first_odd is None:
        raise ValueError(
            "every allowed entry value is even, so odd sizes are empty and "
            "even sizes reduce to a smaller family: divide the entries by 2 "
            "and rerun with the halved multiset"
        )
    m = (first_odd - 1) // 2
    form = constants_small2(
        lam2, lam.weight(3), lam.weight(4), lam_odd=lam.weight(first_odd), m=m,
    )
    return form, f"no 1s, smallest odd value {first_odd} (m = {m})"


# ---------------------------------------------------------------------------
# Refined (multi-term) expansions


@dataclass(frozen=True)
class RefinedExpansion:
    """A truncated asymptotic series ``c * rho^n * n! * (1 + sum_j c_j/den_j(n))``.

    ``falling`` selects the denominators of the correction terms: falling
    factorials ``n(n-1)...(n-j+1)`` when True, plain powers ``n^j`` when
    False.
    """

    c: mp.mpf
    rho: mp.mpf
    coefficients: Tuple[mp.mpf, ...]
    falling: bool = False

    def correction(self, n: int) -> mp.mpf:
        """The bracket ``1 + sum_j c_j / den_j(n)``."""
        with mp.workdps(_DPS):
            total = mp.mpf(1)
            for j, cj in enumerate(self.coefficients, start=1):
                if self.falling:
                    den = mp.ff(mp.mpf(n), j)
                else:
                    den = mp.mpf(n) ** j
                total += cj / den
            return total

    def evaluate(self, n: int) -> mp.mpf:
        if n < 1:
            raise ValueError("refined expansions are evaluated at n >= 1")
        with mp.workdps(_DPS):
            return self.c * self.rho ** n * mp.factorial(n) * self.correction(n)


def a158690_expansion(terms: int = 3) -> RefinedExpansion:
    """Refined expansion of the prototype sequence A158690.

    ``a_n = c * rho^n * n! * (1 + sum_{1<=j<terms} c_j / (n)_j)`` with
    ``(n)_j`` the falling factorial, ``(c, rho) = (6*sqrt(2)/pi^2, 12/pi^2)``
    and ``c_j = (-pi^2/288)^j / j!``.  With ``terms`` kept terms the
    relative error is O(n^-terms); ``terms = 1`` is the bare first-order
    form c * rho^n * n!.
    """
    _require_positive_int("terms", terms)
    with mp.workdps(_DPS):
        c = 6 * mp.sqrt(2) / mp.pi**2
        rho = 12 / mp.pi**2
        seed = -(mp.pi**2) / 288
        coeffs = tuple(seed**j / mp.factorial(j) for j in range(1, terms))
    return RefinedExpansion(c=c, rho=rho, coefficients=coeffs, falling=True)


def refined_a158690(n: int, terms: int = 3) -> mp.mpf:
    """Evaluate the refined A158690 expansion at ``n``."""
    return a158690_expansion(terms).evaluate(n)


def blr_expansion() -> RefinedExpansion:
    """Four-term refined expansion of ``[z^n] sum_k prod_j ((1+z)^j - 1)``.

    The corrections here run over plain powers 1/n^j (not falling
    factorials); the coefficients are about 0.43333, -0.056127 and -0.033679.
    The paper prints c2 = -0.056119 and c3 = -0.033780; extrapolation from
    the exact counts to n = 300 gives c3 = -0.0336792952932924327, which is
    this closed form to 25 digits.
    """
    with mp.workdps(_DPS):
        pi2 = mp.pi**2
        c = 6 * mp.sqrt(2) / pi2 * mp.exp(-pi2 / 24)
        rho = 12 / pi2
        c1 = pi2 * (pi2 + 66) / 1728
        c2 = pi2**2 * (pi2**2 - 12 * pi2 - 3420) / 5971968
        c3 = -(pi2**2) * (
            -40 * pi2**4 + 9360 * pi2**3 - 232416 * pi2**2
            - 27051840 * pi2 + 709171200
        ) / 1238347284480
    return RefinedExpansion(c=c, rho=rho, coefficients=(c1, c2, c3))


def refined_blr(n: int) -> mp.mpf:
    """Evaluate the refined binary-labeled-row expansion at ``n``."""
    return blr_expansion().evaluate(n)


# ---------------------------------------------------------------------------
# Convergence reporting


@dataclass(frozen=True)
class ConvergenceReport:
    """Ratios of exact terms to an asymptotic form, with extrapolation.

    ``ratios[i] = exact[n_values[i]] / form(n_values[i])``; the limit is
    obtained by Richardson extrapolation in ``1/h`` where ``h = n`` for
    full-exponent forms and ``h = sqrt(n)`` for half-exponent ones.  The
    ``correction_exponent`` is the fitted p in ``|ratio - limit| ~ h^-p``
    (None when it cannot be estimated).
    """

    n_values: Tuple[int, ...]
    ratios: Tuple[mp.mpf, ...]
    extrapolated_limit: mp.mpf
    correction_exponent: Optional[mp.mpf]
    half_exponent: bool = False

    def rows(self):
        """(n, ratio) pairs, in increasing n, for serialization."""
        return list(zip(self.n_values, self.ratios))


def _richardson(hs: Sequence[mp.mpf], rs: Sequence[mp.mpf]) -> mp.mpf:
    """Extrapolate r(h) = L + a/h + b/h^2 from the last 2-3 samples."""
    if len(hs) >= 3:
        (h1, h2, h3), (r1, r2, r3) = hs[-3:], rs[-3:]
        first_12 = (h2 * r2 - h1 * r1) / (h2 - h1)
        first_23 = (h3 * r3 - h2 * r2) / (h3 - h2)
        # After one level the residual error is ~ -b/(h_i*h_j); eliminate it.
        g12, g23 = h1 * h2, h2 * h3
        return (g23 * first_23 - g12 * first_12) / (g23 - g12)
    (h1, h2), (r1, r2) = hs[-2:], rs[-2:]
    return (h2 * r2 - h1 * r1) / (h2 - h1)


def ratio_sequence(exact: Sequence, form: AsymptoticForm,
                   n_values: Sequence[int]) -> ConvergenceReport:
    """Compare exact coefficients against an asymptotic form.

    ``exact`` is indexed by n (``exact[n]`` is the n-th coefficient), so a
    plain coefficient list works directly.  All requested terms must be
    positive; Richardson extrapolation uses the largest two or three
    requested n.
    """
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 2:
        raise ValueError("need at least two distinct n values")
    if ns[0] < 1:
        raise ValueError("n values must be >= 1")
    if ns[-1] >= len(exact):
        raise ValueError(
            f"exact sequence too short: need index {ns[-1]}, "
            f"have {len(exact) - 1}"
        )
    with mp.workdps(_DPS):
        ratios = []
        for n in ns:
            value = exact[n]
            if value <= 0:
                raise ValueError(
                    f"exact[{n}] = {value!r} is not positive; ratios would "
                    "be meaningless"
                )
            ratios.append(_mpf(value) / form.evaluate(n))
        if form.half_exponent:
            hs = [mp.sqrt(mp.mpf(n)) for n in ns]
        else:
            hs = [mp.mpf(n) for n in ns]
        limit = _richardson(hs, ratios)
        exponent = None
        e1 = abs(ratios[0] - limit)
        e2 = abs(ratios[1] - limit)
        if e1 > 0 and e2 > 0 and hs[1] != hs[0]:
            exponent = mp.log(e1 / e2) / mp.log(hs[1] / hs[0])
    return ConvergenceReport(
        n_values=tuple(ns),
        ratios=tuple(ratios),
        extrapolated_limit=limit,
        correction_exponent=exponent,
        half_exponent=form.half_exponent,
    )


# ---------------------------------------------------------------------------
# Named forms for the catalogued sequences

def _explicit(c_expr: Callable[[], mp.mpf], rho_expr: Callable[[], mp.mpf],
              n_power, label: str = "") -> AsymptoticForm:
    with mp.workdps(_DPS):
        return AsymptoticForm(
            c=c_expr(), rho=rho_expr(), n_power=_mpf(n_power), label=label,
        )


def _named_builders() -> Dict[str, Callable[[], AsymptoticForm]]:
    F = Fraction
    pi = mp.pi
    return {
        # Exponential prototype and its d(z)-weighted relatives.
        "A158690": lambda: constants_proto(1, 0),
        "A196194": lambda: constants_general(1, 0, F(-1, 2), 1, F(1, 2)),
        "A207214": lambda: constants_general(1, 0, 1, 1, F(1, 2)),
        "A207386": lambda: constants_general(1, 0, 0, 1, 0),
        "A207397": lambda: constants_general(1, 0, 0, 1, -1),
        "A207556": lambda: constants_general(1, 0, 1, 1, 0),
        # Row-Fishburn counts for various entry multisets.
        "A158691": lambda: constants_row_fishburn(1, 1),
        "A179525": lambda: constants_row_fishburn(1, 0),
        "A207433": lambda: constants_row_fishburn(1, 1),
        "A289316": lambda: constants_row_fishburn(1, 0),
        "A289313": lambda: constants_row_fishburn(2, 2),
        # Complete Fishburn counts.
        "A022493": lambda: constants_fishburn(1, 1),
        "A138265": lambda: constants_fishburn(1, 0),
        "A289317": lambda: constants_fishburn(1, 0),
        "A289312": lambda: constants_fishburn(2, 2),
        # Shifted-index products (Table of omega != 0 examples).
        "A215066": lambda: constants_general(1, F(-1, 2), 0, 2, 2),
        "A209832": lambda: constants_general(1, F(-1, 2), 1, 2, 2),
        "A214687": lambda: constants_general(1, F(-1, 2), 2, 2, 2),
        "A207569": lambda: constants_fractional(2, 1),
        "A207570": lambda: constants_fractional(3, 2),
        "A207571": lambda: constants_fractional(3, 1),
        # Variants sharing the primitive row-Fishburn constants.
        "A207652": lambda: constants_row_fishburn(1, 0),
        "A207653": lambda: constants_row_fishburn(1, 1),
        "A207651": lambda: constants_fishburn(1, 1),
        "A207434": lambda: dataclasses.replace(
            constants_row_fishburn(1, 0), n_power=mp.mpf(3) / 2,
        ),
        # Row-Fishburn sums weighted by the sequence's own series f:
        # Lambda = 1 + z*f (lam1 = f_0, lam2 = f_1) and Lambda = f
        # (lam1 = f_1, lam2 = f_2).
        "A186737": lambda: constants_row_fishburn(1, 1),
        "A224885": lambda: constants_row_fishburn(1, 2),
        # Sequences with their own printed constants.
        "A035378": lambda: _explicit(
            lambda: 48 * mp.sqrt(3) / pi**2 * mp.exp(pi**2 / 48),
            lambda: 24 / (mp.e * pi**2),
            1,
        ),
        "A207557": lambda: _explicit(
            lambda: 24 * mp.sqrt(6) / pi**3 * mp.exp(-(pi**2) / 24),
            lambda: 12 / (mp.e * pi**2),
            1,
        ),
    }


_NAMED_FORMS = _named_builders()

TABLE_IDS: Tuple[str, ...] = tuple(sorted(_NAMED_FORMS))


def named_form(name: str) -> AsymptoticForm:
    """Asymptotic form for a catalogued OEIS id (see ``TABLE_IDS``)."""
    try:
        builder = _NAMED_FORMS[name]
    except KeyError:
        raise KeyError(
            f"no tabulated asymptotic form for {name!r}; "
            f"known ids: {', '.join(TABLE_IDS)}"
        ) from None
    return dataclasses.replace(builder(), label=name)

"""Exact statistic distributions at fixed size, and their limit laws.

The bivariate series of :mod:`.families` carry, at every size ``n``, the full
distribution of a statistic (first-row sum, diagonal sum, number of 1s or 2s)
over a matrix family.  This module packages those coefficients as exact
probability tables, instantiates the predicted limit laws (zero-truncated
Poisson, Poisson, normal, degenerate, and the lattice-Poisson convolution
arising for self-dual matrices), and measures the distance between the two.

Everything touching a table is exact rational arithmetic; laws and distance
metrics are evaluated with mpmath.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath as mp

from .asymptotics import _mpf, _require_positive_int
from .families import (
    STATS,
    LambdaSpec,
    canonical_family,
    family_series,
    stat_jet,
    stat_profile,
)

__all__ = [
    "ComparisonReport",
    "DistributionTable",
    "LimitLaw",
    "ParityEntry",
    "ParityReport",
    "compare",
    "distribution",
    "histogram_rows",
    "limit_law_for",
    "parity_report",
    "report_json",
    "stat_mean_variance",
]

_DPS = 40

# Full-table extraction needs the whole bivariate profile up to n, whose cost
# grows steeply (the v-polynomials are as long as the series is deep).  The
# budget below is the documented ceiling for distribution(); moments stay
# cheap far beyond it through the jet representation.
_ENUM_BUDGET = 150
_JET_BUDGET = 400
# parity_report adds distance metrics, which need the full table, up to here.
_PARITY_PROFILE_BUDGET = 60

# Profiles are built on a fixed grid of truncation orders so that nearby
# sizes share one cached series instead of rebuilding per n.
_PROFILE_GRID = (8, 16, 30, 60, 90, 120, 150)


def _profile_order(n: int) -> int:
    for cut in _PROFILE_GRID:
        if n <= cut:
            return cut
    raise ValueError(f"size {n} beyond the exact-enumeration budget {_ENUM_BUDGET}")


def _jet_order(n: int) -> int:
    return 50 * ((max(n, 1) + 49) // 50)


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of one statistic over a family at fixed size.

    ``support`` lists the statistic values with nonzero count, ``counts`` the
    matching weighted matrix counts, and ``pmf`` their exact fractions of the
    family count ``total``.  ``mean`` and ``variance`` are exact rationals.
    """

    family: str
    stat: str
    entries: str
    n: int
    support: Tuple[int, ...]
    counts: Tuple[int, ...]
    total: int
    pmf: Tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction

    def prob(self, value) -> Fraction:
        for s, p in zip(self.support, self.pmf):
            if s == value:
                return p
        return Fraction(0)


def distribution(family: str, stat: str, lam: LambdaSpec, n: int) -> DistributionTable:
    """Exact distribution of ``stat`` over the family at size ``n``.

    Normalizes the z^n row of the bivariate statistic series by the family
    count, all in integer arithmetic.  Sizes with no matrices at all (parity
    gaps of even-entry multisets, for instance) are an error, not an empty
    table.  The enumeration budget is ``n <= 150``; for bare moments at
    larger sizes use :func:`stat_mean_variance`.
    """
    family = canonical_family(family)
    _require_positive_int("n", n)
    if n > _ENUM_BUDGET:
        raise ValueError(
            f"size {n} beyond the exact-enumeration budget {_ENUM_BUDGET}; "
            "stat_mean_variance covers moments further out"
        )
    order = _profile_order(n)
    poly = stat_profile(family, stat, lam, order).coeff(n)
    total = family_series(family, lam, order).coeff(n)
    if total == 0:
        raise ValueError(
            f"no {family} matrices of size {n} with entries {lam.describe()}"
        )
    if sum(poly) != total:
        raise ValueError("statistic marginal does not match the family count")
    support = tuple(k for k, c in enumerate(poly) if c)
    counts = tuple(int(poly[k]) for k in support)
    pmf = tuple(Fraction(c, total) for c in counts)
    m1 = Fraction(sum(k * c for k, c in zip(support, counts)), total)
    m2 = Fraction(sum(k * k * c for k, c in zip(support, counts)), total)
    return DistributionTable(
        family=family,
        stat=stat,
        entries=lam.describe(),
        n=n,
        support=support,
        counts=counts,
        total=int(total),
        pmf=pmf,
        mean=m1,
        variance=m2 - m1 * m1,
    )


def stat_mean_variance(family: str, stat: str, lam: LambdaSpec, n: int):
    """Exact mean and variance of a statistic, without the full table.

    Works from the second-order jet (v = 1 + eps), so the cost stays flat in
    the statistic's range; sizes up to 400 are in budget.
    """
    family = canonical_family(family)
    _require_positive_int("n", n)
    if n > _JET_BUDGET:
        raise ValueError(f"size {n} beyond the moment budget {_JET_BUDGET}")
    jet = stat_jet(family, stat, lam, _jet_order(n))
    total = jet.coeff_vm(n, 0)
    if total == 0:
        raise ValueError(
            f"no {family} matrices of size {n} with entries {lam.describe()}"
        )
    m1 = Fraction(jet.coeff_vm(n, 1), total)
    fact2 = Fraction(jet.coeff_vm(n, 2), total)  # E C(stat, 2)
    return m1, 2 * fact2 + m1 - m1 * m1


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

_KINDS = ("ztp", "poisson", "normal", "degenerate", "convolution")


@dataclass(frozen=True)
class LimitLaw:
    """A reference law for an affinely transformed statistic.

    The law describes x = shift + slope*s, where s is the raw statistic;
    ``variable`` spells the transformation out for reports.  Exactly one
    parameter group is populated: ``rate`` (ztp/poisson), ``center`` and
    ``spread`` (normal mean/variance), ``point`` (degenerate atom), or
    ``components`` (lattice-step/rate pairs whose convolution is taken).
    """

    kind: str
    shift: Fraction = Fraction(0)
    slope: Fraction = Fraction(1)
    variable: str = "s"
    rate: Optional[object] = None
    center: Optional[object] = None
    spread: Optional[object] = None
    point: Optional[Fraction] = None
    components: Tuple[Tuple[int, object], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown law kind {self.kind!r}; expected one of {_KINDS}")
        if self.slope == 0:
            raise ValueError("the statistic transformation must be invertible")

    def transform(self, value) -> Fraction:
        """Map a raw statistic value to the law's coordinate."""
        return self.shift + self.slope * Fraction(value)

    def mean(self) -> mp.mpf:
        with mp.workdps(_DPS):
            if self.kind == "ztp":
                t = _mpf(self.rate)
                return t * mp.exp(t) / mp.expm1(t)
            if self.kind == "poisson":
                return _mpf(self.rate)
            if self.kind == "normal":
                return _mpf(self.center)
            if self.kind == "degenerate":
                return _mpf(self.point)
            return mp.fsum(step * _mpf(rate) for step, rate in self.components)

    def variance(self) -> mp.mpf:
        with mp.workdps(_DPS):
            if self.kind == "ztp":
                t = _mpf(self.rate)
                m1 = t * mp.exp(t) / mp.expm1(t)
                return m1 * (1 + t - m1)
            if self.kind == "poisson":
                return _mpf(self.rate)
            if self.kind == "normal":
                return _mpf(self.spread)
            if self.kind == "degenerate":
                return mp.mpf(0)
            return mp.fsum(step * step * _mpf(rate) for step, rate in self.components)

    def support_probs(self) -> Dict[Fraction, mp.mpf]:
        """Probability table of a discrete law on its lattice.

        Poisson-type tails close once the missed mass drops below 1e-16
        (1e-13 per convolution factor, keeping at least 1 - 1e-12 overall).
        """
        with mp.workdps(_DPS):
            if self.kind == "degenerate":
                return {Fraction(self.point): mp.mpf(1)}
            if self.kind == "poisson":
                return _poisson_table(self.rate, 1, mp.mpf("1e-16"))
            if self.kind == "ztp":
                plain = _poisson_table(self.rate, 1, mp.mpf("1e-16"))
                scale = 1 / -mp.expm1(-_mpf(self.rate))
                return {k: p * scale for k, p in plain.items() if k != 0}
            if self.kind == "convolution":
                out: Dict[Fraction, mp.mpf] = {Fraction(0): mp.mpf(1)}
                for step, rate in self.components:
                    comp = _poisson_table(rate, step, mp.mpf("1e-13"))
                    nxt: Dict[Fraction, mp.mpf] = {}
                    for x, p in out.items():
                        for y, q in comp.items():
                            key = x + y
                            nxt[key] = nxt.get(key, mp.mpf(0)) + p * q
                    out = nxt
                return out
        raise TypeError("a normal law has a density, not a lattice pmf")

    def pmf(self, x) -> mp.mpf:
        table = self.support_probs()
        return table.get(Fraction(x), mp.mpf(0))


def _poisson_table(rate, step: int, tail) -> Dict[Fraction, mp.mpf]:
    rate = _mpf(rate)
    if rate < 0:
        raise ValueError("Poisson rates are nonnegative")
    table: Dict[Fraction, mp.mpf] = {}
    term = mp.exp(-rate)
    kept = mp.mpf(0)
    k = 0
    while True:
        table[Fraction(step * k)] = term
        kept += term
        if kept >= 1 - tail:
            return table
        k += 1
        if k > 4000:
            raise RuntimeError("Poisson tail did not close; rate out of scale")
        term = term * rate / k


def _uncovered(family: str, stat: str, lam: LambdaSpec, why: str) -> ValueError:
    return ValueError(
        f"no covered limit law for {family}/{stat} with entries "
        f"{lam.describe()}: {why}"
    )


def limit_law_for(family: str, stat: str, lam: LambdaSpec, n: int) -> LimitLaw:
    """The predicted limit law for (family, stat), instantiated at size n.

    Coverage: families with 1s allowed (zero-truncated Poisson first row for
    row-type matrices, log-normal first row/diagonal otherwise, Poisson laws
    for the 1s and 2s counts, and the two-component lattice convolution for
    self-dual matrices), plus the no-1s regime where the smallest entry is 2
    (logarithmic normal laws again, and a root-n normal or shifted Poisson
    for the 2s count depending on whether 3s are allowed).  Anything else
    raises.
    """
    family = canonical_family(family)
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STATS}")
    _require_positive_int("n", n)
    lam1, lam2 = lam.weight(1), lam.weight(2)
    with mp.workdps(_DPS):
        log2 = mp.log(2)
        logn = mp.log(n)
        pisq = mp.pi ** 2

        if family == "row-fishburn":
            if lam1 == 0:
                raise _uncovered(family, stat, lam, "the row results need 1s allowed")
            if stat == "first_row":
                return LimitLaw("ztp", rate=log2, variable="X_n")
            if stat == "diagonal":
                return LimitLaw("normal", center=logn, spread=logn, variable="Y_n")
            if lam2 == 0:
                if stat == "ones":
                    return LimitLaw("degenerate", point=Fraction(n), variable="Z_n")
                return LimitLaw("degenerate", point=Fraction(0), variable="#2s")
            rate = pisq * lam2 / (12 * _mpf(lam1) ** 2)
            if stat == "ones":
                return LimitLaw(
                    "poisson",
                    shift=Fraction(n, 2),
                    slope=Fraction(-1, 2),
                    rate=rate,
                    variable="(n - Z_n)/2",
                )
            return LimitLaw("poisson", rate=rate, variable="#2s")

        if family == "self-dual":
            if lam1 == 0:
                raise _uncovered(family, stat, lam, "the self-dual results need 1s allowed")
            if stat == "first_row":
                return LimitLaw("normal", center=logn, spread=logn, variable="X_n")
            if stat == "diagonal":
                return LimitLaw(
                    "normal",
                    slope=Fraction(1, 2),
                    center=logn,
                    spread=logn,
                    variable="Y_n/2",
                )
            if stat == "twos":
                raise _uncovered(family, stat, lam, "no 2s-marking series exists")
            if lam2 == 0:
                return LimitLaw("degenerate", point=Fraction(n), variable="Z_n")
            comps = (
                (2, _mpf(Fraction(lam2, lam1)) * log2),
                (4, pisq * lam2 / (12 * _mpf(lam1) ** 2)),
            )
            return LimitLaw(
                "convolution",
                shift=Fraction(n),
                slope=Fraction(-1),
                components=comps,
                variable="n - Z_n",
            )

        # fishburn
        if lam1 > 0:
            if stat == "first_row":
                return LimitLaw("normal", center=logn, spread=logn, variable="X_n")
            if stat == "diagonal":
                return LimitLaw(
                    "normal", center=2 * logn, spread=2 * logn, variable="Y_n"
                )
            if lam2 == 0:
                if stat == "ones":
                    return LimitLaw("degenerate", point=Fraction(n), variable="Z_n")
                return LimitLaw("degenerate", point=Fraction(0), variable="#2s")
            rate = pisq * lam2 / (6 * _mpf(lam1) ** 2)
            if stat == "ones":
                return LimitLaw(
                    "poisson",
                    shift=Fraction(n, 2),
                    slope=Fraction(-1, 2),
                    rate=rate,
                    variable="(n - Z_n)/2",
                )
            return LimitLaw("poisson", rate=rate, variable="#2s")

        if lam2 == 0:
            raise _uncovered(family, stat, lam, "the smallest entry must be 1 or 2")

        # smallest entry 2
        if stat == "first_row":
            return LimitLaw("normal", center=logn, spread=logn, variable="X_n")
        if stat == "diagonal":
            return LimitLaw("normal", center=2 * logn, spread=2 * logn, variable="Y_n")
        if stat == "ones":
            raise _uncovered(family, stat, lam, "no 1 entries exist in this regime")

        first_odd = lam.smallest_odd_entry()
        if first_odd == 3:
            lam3 = lam.weight(3)
            tau = lam3 * mp.pi / (2 * mp.sqrt(3) * _mpf(lam2) ** mp.mpf("1.5"))
            center = tau * mp.sqrt(n)
            return LimitLaw(
                "normal",
                shift=Fraction(n, 3),
                slope=Fraction(-2, 3),
                center=center,
                spread=center,
                variable="(n - 2 Z_n)/3",
            )
        # All odd values below first_odd are barred; 2s dominate and the
        # shifted count Z* picks up the 4s, with a parity-dependent shift.
        if n % 2 == 0:
            shift = Fraction(n, 4)
        else:
            if first_odd is None:
                raise ValueError(
                    f"no fishburn matrices of odd size {n} with purely even "
                    f"entries {lam.describe()}"
                )
            shift = Fraction(n - first_odd, 4)
        lam4 = lam.weight(4)
        if lam4 == 0:
            return LimitLaw(
                "degenerate",
                shift=shift,
                slope=Fraction(-1, 2),
                point=Fraction(0),
                variable="Z*_n",
            )
        rate = pisq * lam4 / (6 * _mpf(lam2) ** 2)
        return LimitLaw(
            "poisson",
            shift=shift,
            slope=Fraction(-1, 2),
            rate=rate,
            variable="Z*_n",
        )


# ---------------------------------------------------------------------------
# Distance metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    sup_distance: mp.mpf
    total_variation: mp.mpf
    mean_gap: mp.mpf
    variance_gap: mp.mpf


def compare(dist: DistributionTable, law: LimitLaw) -> ComparisonReport:
    """Distance metrics between an exact table and its reference law.

    Discrete laws are compared pointwise on the union of supports after the
    law's transformation of the statistic.  Normal laws are discretized by
    interval probabilities on unit-width bins around the raw integer
    support -- the lattice analogue of comparing the centered statistic,
    e.g. (Y_n - log n)/sqrt(log n), against a standard normal.
    """
    with mp.workdps(_DPS):
        mean_gap = abs(_mpf(law.transform(dist.mean)) - law.mean())
        variance_gap = abs(
            _mpf(law.slope * law.slope * dist.variance) - law.variance()
        )
        if law.kind == "normal":
            sup, tv = _normal_metrics(dist, law)
        else:
            sup, tv = _lattice_metrics(dist, law)
        return ComparisonReport(sup, tv, mean_gap, variance_gap)


def _lattice_metrics(dist, law):
    exact = {law.transform(s): _mpf(p) for s, p in zip(dist.support, dist.pmf)}
    ref = law.support_probs()
    covered = mp.fsum(ref.values())
    zero = mp.mpf(0)
    gaps = [
        abs(exact.get(x, zero) - ref.get(x, zero)) for x in set(exact) | set(ref)
    ]
    return max(gaps), (mp.fsum(gaps) + (1 - covered)) / 2


def _normal_metrics(dist, law):
    # Pull the law back to the raw lattice: s = (x - shift)/slope.
    slope = _mpf(law.slope)
    mu = (law.center - _mpf(law.shift)) / slope
    sd = mp.sqrt(law.spread) / abs(slope)
    lo = min(min(dist.support), int(mp.floor(mu - 10 * sd)))
    hi = max(max(dist.support), int(mp.ceil(mu + 10 * sd)))
    exact = dict(zip(dist.support, dist.pmf))
    half = mp.mpf(1) / 2
    sup = mp.mpf(0)
    gaps = []
    covered = mp.mpf(0)
    for s in range(lo, hi + 1):
        bin_prob = mp.ncdf((s + half - mu) / sd) - mp.ncdf((s - half - mu) / sd)
        covered += bin_prob
        gap = abs(_mpf(exact.get(s, 0)) - bin_prob)
        gaps.append(gap)
        if gap > sup:
            sup = gap
    return sup, (mp.fsum(gaps) + (1 - covered)) / 2


# ---------------------------------------------------------------------------
# Parity splitting when 1s are barred
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityEntry:
    n: int
    parity: str
    count: int
    mean: Optional[Fraction]
    variance: Optional[Fraction]
    law: Optional[LimitLaw]
    metrics: Optional[ComparisonReport]


@dataclass(frozen=True)
class ParityReport:
    entries: str
    stat: str
    gap: Optional[int]  # half the index gap before the first allowed odd value
    rows: Tuple[ParityEntry, ...]


def parity_report(lam: LambdaSpec, stat: str, ns: Iterable[int]) -> ParityReport:
    """Per-parity behavior of the 2s count when 1s are barred.

    For each requested size: the exact matrix count, exact mean/variance of
    the statistic, the predicted law (root-n normal when 3s are allowed, a
    shifted Poisson or degenerate count otherwise), and distance metrics
    for sizes up to ``_PARITY_PROFILE_BUDGET``.  Sizes with no matrices are
    reported with count 0 rather than skipped.
    """
    if lam.weight(1) != 0:
        raise ValueError("parity analysis applies when 1s are barred")
    if lam.weight(2) == 0:
        raise ValueError("the value 2 must be allowed")
    if stat != "twos":
        raise ValueError("the tracked statistic is the 2s count, stat='twos'")
    first_odd = lam.smallest_odd_entry()
    gap = None if first_odd is None else (first_odd - 1) // 2
    rows: List[ParityEntry] = []
    for n in ns:
        _require_positive_int("n", n)
        parity = "even" if n % 2 == 0 else "odd"
        count = family_series("fishburn", lam, _jet_order(n)).coeff(n)
        if count == 0:
            rows.append(ParityEntry(n, parity, 0, None, None, None, None))
            continue
        mean, variance = stat_mean_variance("fishburn", "twos", lam, n)
        law = limit_law_for("fishburn", "twos", lam, n)
        metrics = None
        if n <= _PARITY_PROFILE_BUDGET:
            metrics = compare(distribution("fishburn", "twos", lam, n), law)
        rows.append(ParityEntry(n, parity, int(count), mean, variance, law, metrics))
    return ParityReport(lam.describe(), stat, gap, tuple(rows))


# ---------------------------------------------------------------------------
# Plot-ready exports
# ---------------------------------------------------------------------------

def histogram_rows(dist: DistributionTable, law: Optional[LimitLaw] = None):
    """(value, exact pmf, limit pmf) triples; limit column None without a law."""
    if law is None:
        return [(s, p, None) for s, p in zip(dist.support, dist.pmf)]
    with mp.workdps(_DPS):
        if law.kind == "normal":
            slope = _mpf(law.slope)
            mu = (law.center - _mpf(law.shift)) / slope
            sd = mp.sqrt(law.spread) / abs(slope)
            half = mp.mpf(1) / 2
            return [
                (
                    s,
                    p,
                    mp.ncdf((s + half - mu) / sd) - mp.ncdf((s - half - mu) / sd),
                )
                for s, p in zip(dist.support, dist.pmf)
            ]
        table = law.support_probs()
        zero = mp.mpf(0)
        return [
            (s, p, table.get(law.transform(s), zero))
            for s, p in zip(dist.support, dist.pmf)
        ]


def _law_payload(law: LimitLaw) -> dict:
    payload = {
        "kind": law.kind,
        "variable": law.variable,
        "transform": [str(law.shift), str(law.slope)],
    }
    if law.rate is not None:
        payload["rate"] = mp.nstr(_mpf(law.rate), 15)
    if law.center is not None:
        payload["mean"] = mp.nstr(_mpf(law.center), 15)
        payload["variance"] = mp.nstr(_mpf(law.spread), 15)
    if law.point is not None:
        payload["point"] = str(law.point)
    if law.components:
        payload["components"] = [
            {"step": step, "rate": mp.nstr(_mpf(rate), 15)}
            for step, rate in law.components
        ]
    return payload


def report_json(dist: DistributionTable, law: Optional[LimitLaw] = None) -> str:
    """JSON report of a table, with its law and distance metrics if a law is given."""
    payload = {
        "schema": "fishburn.distribution/1",
        "family": dist.family,
        "stat": dist.stat,
        "entries": dist.entries,
        "n": dist.n,
        "total": str(dist.total),
        "support": list(dist.support),
        "counts": [str(c) for c in dist.counts],
        "pmf": [str(p) for p in dist.pmf],
        "mean": str(dist.mean),
        "variance": str(dist.variance),
    }
    if law is not None:
        payload["law"] = _law_payload(law)
        metrics = compare(dist, law)
        payload["metrics"] = {
            "sup_distance": mp.nstr(metrics.sup_distance, 12),
            "total_variation": mp.nstr(metrics.total_variation, 12),
            "mean_gap": mp.nstr(metrics.mean_gap, 12),
            "variance_gap": mp.nstr(metrics.variance_gap, 12),
        }
    return json.dumps(payload, indent=2)

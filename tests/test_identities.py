import pytest
from fractions import Fraction

from fishburn.series import TruncatedSeries
from fishburn.families import (
    ALL,
    PRIMITIVE,
    LambdaSpec,
    family_gf,
    named_sequence,
    ramanujan_r,
)
from fishburn import identities
from fishburn.identities import (
    _compare,
    glaisher_product_terms,
    glaisher_trig_terms,
    identity_suite,
    verify_a035378_pairing,
    verify_a079144_transform,
    verify_a158690_forms,
    verify_a207557_transform,
    verify_andrews_jelinek,
    verify_glaisher,
    verify_log_derivative,
    verify_r_series,
)

# Classical values of the odd-index tangent-like numbers.
GLAISHER_T = [1, 23, 1681, 257543, 67637281, 27138236663]


@pytest.mark.parametrize(
    "lam",
    [ALL, PRIMITIVE, LambdaSpec("even+"), LambdaSpec("custom", (2, 1))],
    ids=["all", "01", "even+", "2-1"],
)
def test_inverse_product_transform(lam):
    rep = verify_andrews_jelinek(lam, 40)
    assert rep.ok, str(rep)


@pytest.mark.parametrize("stat", ["first_row", "diagonal", "ones", "twos"])
def test_transform_names_a_failing_statistic(stat, monkeypatch):
    direct = identities._direct_stat

    def perturbed(s, spec, order, marker):
        g = direct(s, spec, order, marker)
        return g + TruncatedSeries.x(order).pow(5) if s == stat else g

    monkeypatch.setattr(identities, "_direct_stat", perturbed)
    rep = verify_andrews_jelinek(ALL, 12)
    assert not rep.ok
    assert rep.first_mismatch == 5
    assert f"[{stat}]" in str(rep)


def test_transform_report_carries_first_mismatch():
    lhs = TruncatedSeries([1, 1, 3], 2)
    rhs = TruncatedSeries([1, 1, 2], 2)
    rep = _compare("probe", lhs, rhs)
    assert not rep.ok
    assert rep.first_mismatch == 2
    assert (rep.lhs_value, rep.rhs_value) == (3, 2)
    assert "z^2" in str(rep)


class TestGlaisher:
    def test_product_route_values(self):
        assert list(glaisher_product_terms(6)) == GLAISHER_T

    def test_trig_route_values(self):
        assert list(glaisher_trig_terms(6)) == GLAISHER_T

    def test_pair(self):
        rep = verify_glaisher(15)
        assert rep.ok
        assert rep.first_mismatch is None
        assert rep.order == 14

    def test_mismatch_detection(self, monkeypatch):
        monkeypatch.setattr(identities, "glaisher_trig_terms", lambda count: (1, 24))
        rep = verify_glaisher(2)
        assert not rep.ok
        assert rep.first_mismatch == 1
        assert (rep.lhs_value, rep.rhs_value) == (23, 24)

    def test_catalog_sequence(self):
        assert named_sequence("A002439", 6) == GLAISHER_T

    def test_no_terms(self):
        assert glaisher_product_terms(0) == glaisher_trig_terms(0) == ()
        for verify in (verify_glaisher, verify_log_derivative):
            rep = verify(0)
            assert rep.ok
            assert rep.order == -1
            assert rep.first_mismatch is None

    @pytest.mark.parametrize(
        "route",
        [glaisher_product_terms, glaisher_trig_terms, verify_glaisher,
         verify_log_derivative],
    )
    def test_negative_count(self, route):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            route(-1)


def test_labeled_forms_agree():
    rep = verify_a158690_forms(22)
    assert rep.ok, str(rep)


class TestLostNotebook:
    def test_q_expansion_prefix(self):
        # hand expansion of 1 + sum (-1)^k q^{k+1} (1-q)...(1-q^k)
        f = ramanujan_r(8)
        assert [int(f.coeff(n)) for n in range(8)] == [1, 1, -1, 2, -2, 1, 0, 1]

    def test_two_expansions_agree(self):
        assert ramanujan_r(40) == identities._r_quotient(40)

    def test_report(self):
        rep = verify_r_series(30)
        assert rep.ok, str(rep)

    def test_binomial_row_half_relation_explicitly(self):
        # [z^n] sum prod ((1+z)^j - 1) equals (-1)^n/2 [z^n] R(1-z)
        n = 15
        prim = family_gf("row-fishburn", PRIMITIVE, n)  # weight series 1 + z
        r = identities._r_at_one_minus(n)
        for m in range(n + 1):
            assert prim.coeff(m) == Fraction((-1) ** m, 2) * r.coeff(m)


def test_pairing_identity():
    rep = verify_a035378_pairing(30)
    assert rep.ok, str(rep)


def test_quadratic_prefactor_transform():
    rep = verify_a207557_transform(30)
    assert rep.ok, str(rep)


def test_labeled_transform():
    rep = verify_a079144_transform(25)
    assert rep.ok, str(rep)


def test_log_derivative_recurrence():
    rep = verify_log_derivative(25)
    assert rep.ok, str(rep)


@pytest.mark.parametrize("verify", [
    lambda n: verify_andrews_jelinek(ALL, n), verify_glaisher, verify_a158690_forms,
    verify_r_series, verify_a035378_pairing, verify_a207557_transform,
    verify_a079144_transform, verify_log_derivative,
], ids=["andrews_jelinek", "glaisher", "a158690_forms", "r_series", "a035378_pairing",
        "a207557_transform", "a079144_transform", "log_derivative"])
def test_every_verifier_checks_the_budget(verify):
    with pytest.raises(ValueError, match="exceeds the series budget"):
        verify(501)


def test_full_suite():
    results = identity_suite(order=25, aj_order=40)
    assert len(results) >= 8
    for name, rep in results:
        assert rep.ok, f"{name}: {rep}"

"""End-to-end acceptance battery.

One test per numbered criterion; the pytest line of each test is its
pass/fail verdict.  Tests 1-11 run the checks of ``fishburn.checks``, the
battery that ``fishburn verify`` prints, and assert each verdict with the
check's detail line as the message.  Every tolerance is asserted exactly as
stated in that module.
"""

import time

import mpmath as mp

from fishburn import checks
from fishburn.cli import main as cli_main
from fishburn.oeis import ENV_OFFLINE

mp.mp.dps = 40


def run_check(check, budget=None):
    """Run one check, assert its verdict and, if given, its time budget."""
    start = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - start
    assert ok, detail
    if budget is not None:
        assert elapsed < budget
    return detail, elapsed


# ---------------------------------------------------------------------------
# 1. Exact series prefixes


def test_01_series_prefixes():
    detail, elapsed = run_check(checks.check_series_prefixes, budget=1.0)
    print(f"PASS 1: {detail} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence


def test_02_oracle_equivalence():
    detail, elapsed = run_check(checks.check_oracle, budget=30.0)
    print(f"PASS 2: {detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Identity suite


def test_03_identity_suite():
    detail, elapsed = run_check(checks.check_identities, budget=120.0)
    print(f"PASS 3: {detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Refined triangle tables


def test_04_triangle_tables():
    detail, _ = run_check(checks.check_triangles)
    print(f"PASS 4: {detail}")


# ---------------------------------------------------------------------------
# 5. Printed constants


def test_05_printed_constants():
    detail, _ = run_check(checks.check_constants)
    print(f"PASS 5: {detail}")


# ---------------------------------------------------------------------------
# 6. Convergence to the leading form


def test_06_zagier_convergence():
    detail, elapsed = run_check(checks.check_convergence, budget=300.0)
    print(f"PASS 6: {detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. Refined expansion decay


def test_07_refined_expansion_decay():
    detail, _ = run_check(checks.check_refined_decay)
    print(f"PASS 7: three-term {detail}")


# ---------------------------------------------------------------------------
# 8. Saddle channel


def test_08_saddle_channel():
    detail, _ = run_check(checks.check_saddle_accuracy)
    print(f"PASS 8: {detail}")


# ---------------------------------------------------------------------------
# 9. Local limit profile


def test_09_local_limit_profile():
    detail, _ = run_check(checks.check_local_limit)
    print(f"PASS 9: profile {detail} from n=60 to n=120")


# ---------------------------------------------------------------------------
# 10. Limit-law trends


def test_10_limit_law_trends():
    detail, _ = run_check(checks.check_trends)
    print(f"PASS 10: {detail}")


# ---------------------------------------------------------------------------
# 11. Parity-split behavior without 1s


def test_11_parity_split():
    detail, _ = run_check(checks.check_parity_split)
    print(f"PASS 11: {detail}")


# ---------------------------------------------------------------------------
# 12. Offline verification command


def test_12_offline_verify(capsys, monkeypatch):
    monkeypatch.setenv(ENV_OFFLINE, "1")
    code = cli_main(["verify"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verify: 7 checks, 0 failures" in out
    for name, _ in checks.BASE:
        assert f"ok    {name}:" in out
    with capsys.disabled():
        print("\nPASS 12: offline verify exits 0")

"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one pass/fail line with the measured margin; the bodies
live in :mod:`drivenbath.verify` so the CLI ``verify`` subcommand and this
module exercise the same code.
"""

from drivenbath import verify


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: worst = {result.worst:.3e} "
          f"(tolerance {result.tolerance:.3e})")
    return result


def test_criterion_01_jarzynski_pure_bath():
    result = report(verify.check_jarzynski_pure_bath())
    assert result.passed, result.detail


def test_criterion_02_crooks_pure_bath():
    result = report(verify.check_crooks_pure_bath())
    assert result.passed, result.detail


def test_criterion_03_passivity():
    result = report(verify.check_passivity_pure_bath())
    assert result.passed, result.detail


def test_criterion_04_gapless_reduction():
    result = report(verify.check_gapless_reduction())
    assert result.passed, result.detail


def test_criterion_05a_population_averaging():
    result = report(verify.check_p_averaging())
    assert result.passed, result.detail


def test_criterion_05b_half_population_mean_work():
    """Stated bound |W(1/2)| <= 1e-10 |W(1)| at beta = 1e-6.

    Known red: for the spin coupling W(1/2) is exactly beta-independent,
    so the achievable ratio is O(beta * gap) ~ 3e-8 at the reference
    parameters; only the absolute reading (|W(1/2)| < 1e-10) holds.  See
    the check's detail for both measured numbers.
    """
    result = report(verify.check_half_population_mean_work())
    assert result.passed, result.detail


def test_criterion_06_lambda4_scaling():
    result = report(verify.check_lambda4_scaling())
    assert result.passed, result.detail


def test_criterion_07_moment_cross_check():
    result = report(verify.check_moment_cross_check())
    assert result.passed, result.detail


def test_criterion_08_modal_structure():
    result = report(verify.check_modal_structure())
    assert result.passed, result.detail


def test_criterion_09_sign_map_topology():
    result = report(verify.check_sign_map_topology())
    assert result.passed, result.detail


def test_criterion_10_statistics_ordering():
    result = report(verify.check_statistics_ordering())
    assert result.passed, result.detail


def test_criterion_11_engine_bounds():
    result = report(verify.check_engine_bounds())
    assert result.passed, result.detail


def test_criterion_11_engine_bounds_population():
    """The cells the bounds hold over, by mode: a bookkeeping change that
    moves cells between modes, or refuses them, shows here."""
    detail = verify.check_engine_bounds().detail
    assert detail.startswith(
        "modes: ['heat-engine:8286', 'refrigerator:2128', "
        "'dissipator:1874', 'degenerate:0'], refused 0, "), detail


def test_criterion_12_quadrature_oracle():
    result = report(verify.check_quadrature_oracle())
    assert result.passed, result.detail

import math

import numpy as np
import pytest

from zenocool import (
    VARIANTS,
    PhysicalParams,
    build_table,
    coefficient,
    cooling_free_report,
    first_protected_index,
)
from zenocool.coefficients import switches, variant_of, variant_params

# Dimensionless reference point: weak coupling, strong driving, long interval.
P_REF = PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.02)


# The paper's special forms, written out independently of the one formula.
def resonant_conventional(n, params):
    """cos(g_m sqrt(n) tau): driving off, no detuning."""
    return math.cos(params.g_m * math.sqrt(n) * params.tau)


def resonant_driven(n, params):
    """1 + x (cos(W tau) - 1), x = n g_m^2 / W^2, W^2 = g_f^2 + n g_m^2."""
    w2 = params.g_f ** 2 + n * params.g_m ** 2
    x = n * params.g_m ** 2 / w2
    return 1.0 + x * (math.cos(math.sqrt(w2) * params.tau) - 1.0)


def detuned_two_level(n, params):
    """exp(-i delta tau / 2) (cos(Wc tau) + i (delta / 2 Wc) sin(Wc tau))."""
    wc = math.sqrt(n * params.g_m ** 2 + params.delta_e ** 2 / 4.0)
    return complex(math.cos(params.delta_e * params.tau / 2.0),
                   -math.sin(params.delta_e * params.tau / 2.0)) * complex(
        math.cos(wc * params.tau),
        params.delta_e / (2.0 * wc) * math.sin(wc * params.tau))


def random_params(rng, g_f=None, delta_e=None):
    g_m = 10.0 ** rng.uniform(-5, -3)
    return PhysicalParams(
        g_m=g_m,
        tau=rng.uniform(10.0, 1000.0),
        g_f=g_m * rng.uniform(0.0, 100.0) if g_f is None else g_f,
        delta_e=g_m * rng.uniform(-50.0, 50.0) if delta_e is None else delta_e,
    )


def test_alpha_ground_state():
    assert coefficient("driven", P_REF, 0) == 1.0
    assert coefficient("driven", PhysicalParams(g_m=1e-4, tau=5.0), 0) == 1.0  # g_f = 0 corner


def test_alpha_protected_point_exact():
    # W_n tau = 2 pi at n = 12 for g_m = pi/2, g_f = pi, tau = 1.
    params = PhysicalParams(g_m=math.pi / 2.0, tau=1.0, g_f=math.pi)
    assert coefficient("driven", params, 12) == pytest.approx(1.0, abs=1e-12)


def test_alpha_reduces_to_beta_at_zero_driving():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = random_params(rng, g_f=0.0, delta_e=0.0)
        n = int(rng.integers(0, 500))
        assert coefficient("driven", params, n) == pytest.approx(
            resonant_conventional(n, params), abs=1e-14)


def test_first_protected_driven_index():
    idx = first_protected_index("driven", P_REF)
    assert idx == pytest.approx(((6 * math.pi) ** 2 - 14.0 ** 2) / 0.28 ** 2, rel=1e-12)
    assert abs(idx - 1971.0) / 1971.0 < 0.05


def test_beta_examples():
    assert coefficient("conventional", P_REF, 0) == 1.0
    n_protected = (math.pi / P_REF.gm_tau) ** 2
    assert coefficient("conventional", P_REF, n_protected) == pytest.approx(-1.0, abs=1e-12)
    assert first_protected_index("conventional", P_REF) == pytest.approx(
        n_protected, rel=1e-12)
    assert 123.0 < n_protected < 126.0


def test_alpha_tilde_resonant_reduction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = random_params(rng, delta_e=0.0)
        n = int(rng.integers(0, 300))
        assert coefficient("driven-detuned", params, n) == pytest.approx(
            resonant_driven(n, params), abs=1e-14)


def test_alpha_tilde_ground_state():
    rng = np.random.default_rng(8)
    for _ in range(20):
        assert coefficient("driven-detuned", random_params(rng), 0) == 1.0


def test_beta_tilde_reductions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        params = random_params(rng, g_f=0.0, delta_e=0.0)
        n = int(rng.integers(0, 300))
        assert coefficient("conventional-detuned", params, n) == pytest.approx(
            resonant_conventional(n, params), abs=1e-14)
    # phase cancellation at n = 0 with nonzero detuning
    params = random_params(rng, g_f=0.0)
    assert coefficient("conventional-detuned", params, 0) == 1.0


def test_alpha_tilde_matches_beta_tilde_without_driving():
    rng = np.random.default_rng(10)
    for _ in range(50):
        params = random_params(rng, g_f=0.0)
        n = int(rng.integers(0, 300))
        assert coefficient("driven-detuned", params, n) == pytest.approx(
            detuned_two_level(n, params), abs=1e-12)


def test_magnitude_bound_and_ground_value_all_variants():
    rng = np.random.default_rng(12)
    n = np.arange(0, 2001, dtype=float)
    for _ in range(20):
        params = random_params(rng)
        for variant in ("conventional", "driven", "conventional-detuned",
                        "driven-detuned"):
            values = coefficient(variant, params, n)
            assert values[0] == 1.0
            assert np.abs(values).max() <= 1.0 + 1e-12


def test_build_table_trivial_and_errors():
    table = build_table("driven", P_REF, 0)
    assert table.values.tolist() == [1.0 + 0.0j]
    with pytest.raises(ValueError):
        build_table("zeno", P_REF, 10)
    with pytest.raises(ValueError):
        build_table("driven", P_REF, -1)


def test_conventional_equals_driven_without_driving():
    params = PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.0)
    a = build_table("driven", params, 800).values
    b = build_table("conventional", params, 800).values
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_strong_driving_suppression_window():
    # ten measurements wipe out three decades of population over a wide band
    table = build_table("driven", P_REF, 1400)
    window = np.abs(table.values[501:1350]) ** 20
    assert window.max() < 1e-3


def test_cooling_free_report_driven():
    report = cooling_free_report("driven", P_REF, 2500)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.generator == 3  # smallest integer above g_f tau / 2 pi = 2.23
    assert entry.index == pytest.approx(2031.96, abs=0.01)
    assert entry.quasi_period == pytest.approx(
        4.0 * 7.0 * math.pi ** 2 / P_REF.gm_tau ** 2, rel=1e-12)
    assert entry.coef_magnitude == pytest.approx(1.0, abs=1e-6)


def test_cooling_free_report_conventional():
    report = cooling_free_report("conventional", P_REF, 600)
    indices = report.indices
    assert indices[0] == pytest.approx(125.888, abs=1e-2)
    assert indices[1] == pytest.approx(4 * indices[0], rel=1e-12)
    assert report.entries[0].quasi_period == pytest.approx(
        3.0 * math.pi ** 2 / P_REF.gm_tau ** 2, rel=1e-12)
    assert report.entries[0].quasi_period == pytest.approx(
        indices[1] - indices[0], rel=1e-12)


def test_cooling_free_boundary_integer_ratio():
    # g_f tau an exact multiple of 2 pi, or delta tau / 2 one of pi, puts a
    # protected index on the ground state
    for variant, params, generator in (
            ("driven", PhysicalParams(g_m=0.001, tau=100.0, g_f=2.0 * math.pi / 100.0), 1),
            ("conventional-detuned", PhysicalParams(g_m=0.1, tau=1.0, delta_e=4.0 * math.pi), 2)):
        report = cooling_free_report(variant, params, 1000)
        assert report.entries[0].index == 0.0
        assert report.entries[0].generator == generator


@pytest.mark.parametrize("variant, params, levels", [
    ("conventional", PhysicalParams(g_m=math.pi / 10.0, tau=1.0),
     [100 * k**2 for k in range(1, 8)]),
    ("driven", PhysicalParams(g_m=math.pi / 10.0, tau=1.0, g_f=math.pi),
     [300, 1500, 3500]),
    ("conventional-detuned", PhysicalParams(g_m=math.pi / 10.0, tau=1.0, delta_e=math.pi),
     [100 * k**2 - 25 for k in range(1, 8)]),
])
def test_cooling_free_report_finds_every_unit_magnitude_level(variant, params, levels):
    # g_m tau = pi / 10 puts every cooling-free level on an integer
    table = build_table(variant, params, 5000)
    found = np.flatnonzero(table.magnitude[1:] >= 1.0 - 1e-12) + 1
    report = cooling_free_report(variant, params, 5000)
    assert found.tolist() == levels
    assert [e.nearest for e in report.entries if e.index > 0.0] == levels


def test_protected_indices_have_unit_magnitude():
    rng = np.random.default_rng(13)
    for _ in range(20):
        params = random_params(rng, delta_e=0.0)
        for variant in ("driven", "conventional"):
            report = cooling_free_report(variant, params, 5000)
            for entry in report.entries:
                value = coefficient(variant, params, entry.index)
                assert abs(value) == pytest.approx(1.0, abs=1e-10)


def test_conventional_detuned_protected_indices():
    params = PhysicalParams(g_m=0.0004, tau=700.0, delta_e=0.004)
    report = cooling_free_report("conventional-detuned", params, 600)
    assert report.entries
    for entry in report.entries:
        value = coefficient("conventional-detuned", params, entry.index)
        assert abs(value) == pytest.approx(1.0, abs=1e-10)


def test_driven_detuned_report_empty():
    params = PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.02, delta_e=0.001)
    assert cooling_free_report("driven-detuned", params, 5000).entries == ()
    assert first_protected_index("driven-detuned", params) is None


def test_detuned_driving_bounded_by_resonant_case():
    # over the first quasi-period the detuned magnitudes stay below the
    # resonant maximum
    n_hi = int(first_protected_index("driven", P_REF)) - 1
    n = np.arange(1, n_hi + 1, dtype=float)
    resonant_max = np.abs(coefficient("driven", P_REF, n)).max()
    for mult in (2.0, 5.0, 10.0, 20.0):
        detuned = PhysicalParams(g_m=P_REF.g_m, tau=P_REF.tau, g_f=P_REF.g_f,
                                 delta_e=mult * P_REF.g_m)
        detuned_max = np.abs(coefficient("driven-detuned", detuned, n)).max()
        assert detuned_max <= resonant_max + 1e-12


def test_negative_index_rejected():
    for variant in VARIANTS:
        with pytest.raises(ValueError):
            coefficient(variant, P_REF, -1)


def test_driven_detuned_without_driving_has_conventional_detuned_set():
    params = PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.0, delta_e=0.002)
    driven = cooling_free_report("driven-detuned", params, 1200)
    conventional = cooling_free_report("conventional-detuned", params, 1200)
    assert driven.indices == conventional.indices
    np.testing.assert_allclose(driven.indices, [119.64, 497.30, 1126.74], atol=5e-3)
    assert first_protected_index("driven-detuned", params) == driven.indices[0]
    for entry in driven.entries:
        value = coefficient("driven-detuned", params, entry.index)
        assert abs(value) == pytest.approx(1.0, abs=1e-10)


def test_first_protected_index_is_first_positive_report_entry():
    rng = np.random.default_rng(17)
    cases = [PhysicalParams(g_m=0.001, tau=100.0, g_f=2.0 * math.pi / 100.0)]
    cases += [random_params(rng, delta_e=d) for d in (0.0, None) for _ in range(10)]
    for params in cases:
        for variant in ("driven", "conventional", "conventional-detuned"):
            first = first_protected_index(variant, params)
            report = cooling_free_report(variant, params, math.ceil(first) + 1)
            assert first == next(i for i in report.indices if i > 0.0)


def test_log_survival_is_shared_and_read_only():
    table = build_table("driven", P_REF, 300)
    log_s = table.log_survival
    assert log_s is table.log_survival
    np.testing.assert_array_equal(log_s, 2.0 * np.log(np.abs(table.values)))
    assert log_s[0] == 0.0
    with pytest.raises(ValueError):
        log_s[1] = 0.0
    mags = table.magnitude
    assert mags is table.magnitude
    np.testing.assert_array_equal(mags, np.abs(table.values))
    assert mags[0] == 1.0
    with pytest.raises(ValueError):
        mags[1] = 0.0


def test_variant_switch_rule_and_inverse():
    params = PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.02, delta_e=0.001)
    expected = {"conventional": (0.0, 0.0), "driven": (0.02, 0.0),
                "conventional-detuned": (0.0, 0.001),
                "driven-detuned": (0.02, 0.001)}
    for variant, (g_f, delta_e) in expected.items():
        switched = variant_params(variant, params)
        assert (switched.g_f, switched.delta_e) == (g_f, delta_e)
        assert switches(variant) == (g_f > 0.0, delta_e != 0.0)
        assert variant_of(switched) == variant
        np.testing.assert_array_equal(
            build_table(variant, params, 50).values,
            build_table(variant, switched, 50).values)
    with pytest.raises(ValueError, match="unknown variant"):
        variant_params("zeno", params)
    with pytest.raises(ValueError, match="unknown variant"):
        coefficient("zeno", params, 1)


@pytest.mark.parametrize("params", [
    PhysicalParams(g_m=1e-200, tau=700.0),   # (g_m tau)^2 underflows to 0
    PhysicalParams(g_m=1e200, tau=1e200),    # g_m tau overflows to inf
    PhysicalParams(g_m=1e160, tau=1.0),      # finite g_m tau, (g_m tau)^2 overflows
    PhysicalParams(g_m=1.0, tau=1.0, g_f=1e160),      # (g_f tau)^2 overflows
    PhysicalParams(g_m=1.0, tau=1.0, delta_e=1e160),  # (delta tau / 2)^2 overflows
])
def test_non_finite_coupling_is_a_value_error(params):
    # warnings are errors: neither may warn or divide by zero on the way
    variant = variant_of(params)
    for call in (lambda: cooling_free_report(variant, params, 10),
                 lambda: first_protected_index(variant, params),
                 lambda: coefficient(variant, params, 3),
                 lambda: build_table(variant, params, 3)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_non_finite_coefficient_names_the_product_that_overflowed():
    # g_m tau = 0.7 is harmless; (g_f tau)^2 = (7e202)^2 overflows
    params = PhysicalParams(g_m=1e-3, tau=700.0, g_f=1e200)
    with pytest.raises(ValueError, match="not finite") as info:
        coefficient("driven", params, 3)
    assert "g_f tau = 7e+202" in str(info.value)
    assert "delta tau = 0.0" in str(info.value)

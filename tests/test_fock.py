import math
import re

import numpy as np
import pytest

from zenocool import (
    CapacityError,
    PhysicalParams,
    PopulationDistribution,
    ThermalSpec,
    thermal_distribution,
    thermal_occupation,
)
from engine_reference import mean_occupation

OMEGA = 1.56e10


@pytest.mark.parametrize("temperature, expected, rel", [
    (0.1, 0.44, 0.02),
    (10.0, 83.4, 0.01),
    (100.0, 838.7, 0.001),
])
def test_thermal_occupation_reference_points(temperature, expected, rel):
    n_bar = thermal_occupation(OMEGA, temperature)
    assert n_bar == pytest.approx(expected, rel=rel)


def test_thermal_occupation_monotone():
    temps = np.linspace(0.05, 120.0, 40)
    values = [thermal_occupation(OMEGA, t) for t in temps]
    assert all(b > a for a, b in zip(values, values[1:]))
    freqs = np.linspace(1e9, 1e11, 40)
    values = [thermal_occupation(w, 10.0) for w in freqs]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("omega, temp", [(0.0, 1.0), (-1e9, 1.0), (1e9, 0.0), (1e9, -2.0)])
def test_thermal_occupation_domain(omega, temp):
    with pytest.raises(ValueError):
        thermal_occupation(omega, temp)


def test_thermal_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec()  # neither temperature nor n_bar_th
    with pytest.raises(ValueError):
        ThermalSpec(temperature=1.0, n_bar_th=2.0, omega_m=OMEGA)
    with pytest.raises(ValueError):
        ThermalSpec(temperature=1.0)  # no omega_m
    with pytest.raises(ValueError):
        ThermalSpec(n_bar_th=-0.5)
    with pytest.raises(ValueError):
        ThermalSpec(n_bar_th=1.0, epsilon_tail=1e-3)
    spec = ThermalSpec(temperature=10.0, omega_m=OMEGA)
    assert spec.n_bar == pytest.approx(83.42, rel=1e-3)


def test_thermal_distribution_zero_occupancy():
    d = thermal_distribution(ThermalSpec(n_bar_th=0.0))
    assert d.n_max == 0
    assert d.probabilities()[0] == 1.0


def test_thermal_distribution_ground_weight():
    d = thermal_distribution(ThermalSpec(n_bar_th=83.4))
    assert d.probabilities()[0] == pytest.approx(1.0 / 84.4, rel=1e-9)


def test_thermal_distribution_half_geometric():
    d = thermal_distribution(ThermalSpec(n_bar_th=1.0))
    p = d.probabilities()
    assert p[3] == pytest.approx(0.0625, rel=1e-9)
    assert p[0] == pytest.approx(0.5, rel=1e-9)


def test_thermal_distribution_tail_and_mean_properties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_bar = float(10.0 ** rng.uniform(-2, 3))
        eps = float(10.0 ** rng.uniform(-14, -7))
        spec = ThermalSpec(n_bar_th=n_bar, epsilon_tail=eps)
        d = thermal_distribution(spec)
        r = n_bar / (1.0 + n_bar)
        assert r ** (d.n_max + 1) < eps
        assert d.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(mean_occupation(d) - n_bar) <= eps * d.n_max + 1e-13


def test_thermal_distribution_rounds_the_tail_bound_up():
    # the first guess m = 39 leaves a tail r^40 = eps, which is not below eps
    eps = 2.0 ** -40
    d = thermal_distribution(ThermalSpec(n_bar_th=1.0, epsilon_tail=eps))
    assert d.n_max == 41
    assert 0.5 ** (d.n_max + 1) < eps
    assert 0.5 ** (d.n_max - 1) == eps


def test_thermal_distribution_cap():
    with pytest.raises(CapacityError):
        thermal_distribution(ThermalSpec(n_bar_th=5000.0), hard_cap=10000)


@pytest.mark.parametrize("n_bar", [1e16, 1e300, 1.7e308])
def test_thermal_distribution_past_double_resolution_is_a_capacity_error(n_bar):
    # r = n_bar / (1 + n_bar) rounds to 1, so no truncation leaves a tail below eps
    message = f"thermal state with n_bar={n_bar:g} needs n_max=inf, above the hard cap 65536"
    with pytest.raises(CapacityError, match=re.escape(message)):
        thermal_distribution(ThermalSpec(n_bar_th=n_bar))


def test_mean_occupation_examples():
    ground = PopulationDistribution.from_probabilities([1.0, 0.0, 0.0])
    assert mean_occupation(ground) == 0.0
    two_point = PopulationDistribution.from_probabilities(
        [0.5] + [0.0] * 9 + [0.5])
    assert mean_occupation(two_point) == pytest.approx(5.0, abs=1e-12)


def test_mean_occupation_regenerated_thermal():
    spec = ThermalSpec(temperature=10.0, omega_m=OMEGA)
    d = thermal_distribution(spec)
    assert mean_occupation(d) == pytest.approx(spec.n_bar, abs=spec.epsilon_tail * d.n_max + 1e-12)


def test_mean_occupation_undefined_for_dead_state():
    dead = PopulationDistribution(np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError):
        mean_occupation(dead)


def test_log_weights_reject_nan_and_inf():
    with pytest.raises(ValueError):
        PopulationDistribution(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        PopulationDistribution(np.array([0.0, np.inf]))


def test_params_si_round_trip():
    params = PhysicalParams.from_si(OMEGA, 2 * math.pi * 1e6, 700 / OMEGA,
                                    g_f=30 * 2 * math.pi * 1e6, delta_e=1e5)
    si = params.to_si()
    back = PhysicalParams.from_si(si["omega_m_rad_s"], si["g_m_rad_s"],
                                  si["tau_s"], si["g_f_rad_s"], si["delta_e_rad_s"])
    assert back.g_m == pytest.approx(params.g_m, rel=1e-15)
    assert back.g_f == pytest.approx(params.g_f, rel=1e-15)
    assert back.delta_e == pytest.approx(params.delta_e, rel=1e-15)
    assert back.tau == pytest.approx(params.tau, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(g_m=0.0, tau=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(g_m=1e-4, tau=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(g_m=1e-4, tau=1.0, g_f=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(g_m=1e-4, tau=1.0, omega_m=-1.0)
    PhysicalParams(g_m=1e-4, tau=1.0, delta_e=-0.5)  # any-sign detuning is fine


@pytest.mark.parametrize("field", ["g_m", "tau", "g_f", "delta_e", "omega_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    values = {"g_m": 1e-4, "tau": 100.0, "g_f": 1e-3, "delta_e": 0.0,
              "omega_m": 1.56e10, field: value}
    with pytest.raises(ValueError, match=field):
        PhysicalParams(**values)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_thermal_spec_rejects_non_finite(value):
    with pytest.raises(ValueError, match="temperature"):
        ThermalSpec(temperature=value, omega_m=1.56e10)
    with pytest.raises(ValueError, match="n_bar_th"):
        ThermalSpec(n_bar_th=value)
    with pytest.raises(ValueError, match="omega_m"):
        ThermalSpec(temperature=1.0, omega_m=value)


def test_thermal_occupation_overflow_is_ground_state():
    assert thermal_occupation(1.56e10, 1e-30) == 0.0
    assert ThermalSpec(temperature=1e-30, omega_m=1.56e10).n_bar == 0.0
    assert thermal_occupation(1.56e10, 0.01) > 0.0

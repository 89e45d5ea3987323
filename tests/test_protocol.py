import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zenocool import (
    PRESETS,
    CapacityError,
    CoefficientTable,
    PhysicalParams,
    PopulationDistribution,
    ProtocolSchedule,
    Segment,
    ThermalSpec,
    build_table,
    effective_temperature,
    initial_state,
    parse_config_data,
    run,
    run_experiment,
    sample_trajectories,
    sweep,
    thermal_distribution,
    thermal_occupation,
)
import zenocool.oracle
import zenocool.protocol as protocol
import zenocool.runner
from zenocool.fock import logsumexp
from zenocool.params import HBAR, KB
from engine_reference import mean_occupation, step

OMEGA = 1.56e10
G_M = 2 * math.pi * 1e6
TAU700 = 700 / OMEGA

PARAMS_DRIVEN = PhysicalParams.from_si(OMEGA, G_M, TAU700, g_f=30 * G_M)
PARAMS_CONV = PhysicalParams.from_si(OMEGA, G_M, TAU700)
THERMAL_10K = ThermalSpec(temperature=10.0, omega_m=OMEGA)


def thermal_10k_run(variant, params, steps):
    schedule = ProtocolSchedule((Segment(variant, params, steps),))
    return run(initial_state(THERMAL_10K, schedule), schedule)


def test_step_ground_state_fixed_point():
    d = PopulationDistribution.from_probabilities([1.0] + [0.0] * 50)
    table = build_table("driven", PARAMS_DRIVEN, 50)
    after = step(d, table)
    assert after.norm_log == 0.0
    assert after.probabilities()[0] == 1.0


def test_step_protected_level_fixed_point():
    # g_m tau = pi/10 protects n = 100 exactly (coefficient -1)
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    d = PopulationDistribution.from_probabilities(
        [0.0] * 100 + [1.0] + [0.0] * 10)
    after = step(d, build_table("conventional", params, 110))
    assert after.survival_probability == pytest.approx(1.0, abs=1e-15)
    assert after.probabilities()[100] == pytest.approx(1.0, abs=1e-15)


def test_step_requires_covering_table():
    d = PopulationDistribution.from_probabilities([0.5, 0.5])
    with pytest.raises(ValueError):
        step(d, build_table("conventional", PARAMS_CONV, 0))


def test_step_zero_coefficient_kills_level():
    values = np.ones(3, dtype=complex)
    values[2] = 0.0
    table = CoefficientTable("conventional", values, PARAMS_CONV)
    d = PopulationDistribution.from_probabilities([0.25, 0.25, 0.5])
    after = step(d, table)
    assert after.log_weights[2] == -np.inf
    assert after.survival_probability == pytest.approx(0.5, rel=1e-12)


def test_step_thermal_cooling_headline():
    result = thermal_10k_run("driven", PARAMS_DRIVEN, 60)
    assert 3.5 <= result.records[60].n_bar <= 4.5


def test_run_zero_steps_single_record():
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 0),))
    initial = initial_state(THERMAL_10K, schedule)
    result = run(initial, schedule)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.step == 0
    assert rec.n_bar == pytest.approx(THERMAL_10K.n_bar, rel=1e-6)
    assert rec.survival_probability == 1.0
    assert rec.thermal_fidelity == pytest.approx(1.0, abs=1e-9)


def test_run_conventional_heating_then_relaxation():
    result = thermal_10k_run("conventional", PARAMS_CONV, 300)
    n_bars = [r.n_bar for r in result.records]
    peak = int(np.argmax(n_bars))
    assert 10 <= peak <= 30
    assert 100.0 <= n_bars[peak] <= 125.0
    assert abs(n_bars[300] - 83.4) < 5.0


def test_run_monotone_survival():
    for result in (thermal_10k_run("driven", PARAMS_DRIVEN, 100),
                   thermal_10k_run("conventional", PARAMS_CONV, 100)):
        p_g = [r.survival_probability for r in result.records]
        assert all(b <= a + 1e-15 for a, b in zip(p_g, p_g[1:]))


def test_run_hybrid_switches_segment():
    schedule = ProtocolSchedule((
        Segment("driven", PARAMS_DRIVEN, 30),
        Segment("conventional", PARAMS_CONV, 30),
    ))
    result = run(initial_state(THERMAL_10K, schedule), schedule)
    assert [r.segment for r in result.records[:32]].count(0) == 31
    assert all(r.segment == 1 for r in result.records[31:])
    assert len(result.records) == 61


def test_run_threshold_switch():
    schedule = ProtocolSchedule((
        Segment("driven", PARAMS_DRIVEN, 300, until_n_bar=10.0),
        Segment("conventional", PARAMS_CONV, 10),
    ))
    result = run(initial_state(THERMAL_10K, schedule), schedule)
    first_conv = next(r for r in result.records if r.segment == 1)
    last_driven = result.records[first_conv.step - 1]
    assert last_driven.n_bar <= 10.0
    assert result.records[last_driven.step - 1].n_bar > 10.0


def test_run_stops_a_segment_of_a_billion_steps():
    """The records grow with the steps run, not with the step budget."""
    schedule = ProtocolSchedule((
        Segment("driven", PARAMS_DRIVEN, 10**9, until_n_bar=1.0),))
    result = run(initial_state(THERMAL_10K, schedule), schedule)
    assert 100 < len(result.records) < 1000
    assert result.records[-1].n_bar <= 1.0 < result.records[-2].n_bar
    assert not result.terminated_early

    d = PopulationDistribution.from_probabilities([0.0, 1.0])
    params = PhysicalParams(g_m=math.pi / 3.0, tau=1.0)  # halves the weight per step
    result = run(d, ProtocolSchedule((Segment("conventional", params, 10**9),)))
    assert result.terminated_early
    assert len(result.records) < 1200


def test_run_records_are_read_only():
    records = thermal_10k_run("driven", PARAMS_DRIVEN, 5).records
    assert len(records) == 6
    assert [r.step for r in records] == list(range(6))
    with pytest.raises(ValueError, match="read-only"):
        records.n_bar[1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        records[1].n_bar = 0.0
    with pytest.raises(ValueError, match="read-only"):
        records[1] = records[2]


def test_run_early_termination_flag():
    d = PopulationDistribution.from_probabilities([0.0, 1.0])
    params = PhysicalParams(g_m=math.pi / 3.0, tau=1.0)  # halves the weight per step
    schedule = ProtocolSchedule((Segment("conventional", params, 2000),))
    result = run(d, schedule)
    assert result.terminated_early
    assert len(result.records) < 1200
    assert result.records[-1].survival_probability < math.exp(-690)


def test_run_raises_when_every_level_is_killed():
    # g_f = g_m with W tau = sqrt(2) g_m tau = pi makes c_1 = 1/2 - 1/2 = 0
    # exactly (conventional cos(pi/2) is 6e-17 in doubles, not 0): the first
    # measurement leaves no conditional state, which raises before any early
    # stop could be flagged.
    d = PopulationDistribution.from_probabilities([0.0, 1.0])
    g = math.pi / math.sqrt(2.0)
    params = PhysicalParams(g_m=g, tau=1.0, g_f=g)
    assert build_table("driven", params, 1).log_survival[1] == -math.inf
    schedule = ProtocolSchedule((Segment("driven", params, 5),))
    with pytest.raises(ValueError, match="no surviving population"):
        run(d, schedule)


def test_effective_temperature_values():
    assert effective_temperature(50.0, OMEGA) == pytest.approx(6.02, rel=5e-3)
    assert effective_temperature(10.0, OMEGA) == pytest.approx(1.25, rel=5e-3)
    assert effective_temperature(0.0, OMEGA) == 0.0
    assert effective_temperature(1e-16, OMEGA) == 0.0
    with pytest.raises(ValueError):
        effective_temperature(-0.1, OMEGA)


def test_effective_temperature_inverts_occupation():
    for T in (0.1, 1.0, 10.0, 100.0):
        n_bar = thermal_occupation(OMEGA, T)
        assert effective_temperature(n_bar, OMEGA) == pytest.approx(T, rel=1e-12)


def _zero_step_record(d):
    return run(d, ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 0),))).records[0]


def test_thermal_fidelity_self():
    spec = ThermalSpec(temperature=10.0, omega_m=OMEGA)
    d = thermal_distribution(spec)
    assert _zero_step_record(d).thermal_fidelity == pytest.approx(1.0, abs=1e-9)


def test_thermal_fidelity_ground_state():
    d = PopulationDistribution.from_probabilities([1.0, 0.0, 0.0])
    rec = _zero_step_record(d)
    assert rec.t_eff_kelvin == 0.0
    assert rec.thermal_fidelity == 1.0


def test_diagonal_operators_commute():
    d = thermal_distribution(ThermalSpec(n_bar_th=20.0))
    table_a = build_table("driven", PARAMS_DRIVEN, d.n_max)
    table_b = build_table("conventional", PARAMS_CONV, d.n_max)
    product = CoefficientTable("driven", table_a.values * table_b.values,
                               PARAMS_DRIVEN)
    ab = step(step(d, table_a), table_b)
    ba = step(step(d, table_b), table_a)
    direct = step(d, product)
    np.testing.assert_allclose(ab.probabilities(), ba.probabilities(), atol=1e-12)
    np.testing.assert_allclose(ab.probabilities(), direct.probabilities(), atol=1e-12)
    assert ab.survival_probability == pytest.approx(ba.survival_probability, rel=1e-12)


def test_thermal_shape_preserved_in_strong_driving_regime():
    # driving strong enough that cos(W_n tau) stays near zero for n <= 20
    params = PhysicalParams.from_si(OMEGA, G_M, TAU700, g_f=50 * G_M)
    N = 60
    result = thermal_10k_run("driven", params, N)
    log_p = np.log(result.final.probabilities()[:21])
    n = np.arange(21.0)
    slope, intercept = np.polyfit(n, log_p, 1)
    residuals = log_p - (slope * n + intercept)
    assert np.abs(residuals).max() < 1e-2
    predicted = -(HBAR * OMEGA / (KB * 10.0)
                  + 2.0 * params.g_m ** 2 * N / (params.g_f ** 2 + params.g_m ** 2))
    assert slope == pytest.approx(predicted, rel=0.05)


RUN_PRESETS = sorted(name for name in PRESETS
                     if "T_kelvin" in PRESETS[name] or "n_bar_th" in PRESETS[name])


def _step_reference(initial, schedule, norm_log_floor=-700.0):
    """Records from a loop of ``step`` calls with linear-domain observables."""
    def observe(d):
        p = d.probabilities()
        n_bar = mean_occupation(d)
        r = n_bar / (1.0 + n_bar)
        q = r ** np.arange(p.size, dtype=float)
        q *= 1.0 - r
        f_th = float(np.sum(np.sqrt(p * q)) ** 2) if n_bar > 0.0 else float(p[0])
        return [n_bar, p[0], d.survival_probability, f_th]

    d = initial
    rows = [observe(d)]
    segments = [0]
    for seg_id, seg in enumerate(schedule.segments):
        table = build_table(seg.variant, seg.params, d.n_max)
        for _ in range(seg.steps):
            d = step(d, table)
            rows.append(observe(d))
            segments.append(seg_id)
            if d.norm_log < norm_log_floor:
                return np.array(rows), segments, d
            if seg.until_n_bar is not None and rows[-1][0] <= seg.until_n_bar:
                break
    return np.array(rows), segments, d


def _preset_start(name):
    """A preset's schedule and initial state, as the runner builds them."""
    config = parse_config_data({"preset": name})
    schedule = config.schedule() if config.segments else ProtocolSchedule(
        (Segment("conventional", config.params, 0),))
    return schedule, initial_state(config.thermal_spec(), schedule,
                                   hard_cap=config.hard_cap)


def _summed_log_weights(initial, schedule, steps_run):
    """lw_0 + sum_i k_i S_i, each segment added in order as lw + k_i * S_i."""
    lw = initial.log_weights
    for seg, k in zip(schedule.segments, steps_run):
        if k:
            lw = lw + k * build_table(seg.variant, seg.params, initial.n_max).log_survival
    return lw


def _assert_final_log_weights(result, initial, schedule, final):
    """Bitwise the per-segment sum; the ``step`` loop's state within 1e-13,
    since that loop rounds once per measurement."""
    np.testing.assert_array_equal(
        result.final.log_weights, _summed_log_weights(initial, schedule, result.steps_run))
    np.testing.assert_allclose(result.final.log_weights, final.log_weights, rtol=1e-13)


@pytest.mark.parametrize("name", RUN_PRESETS)
def test_run_matches_step_loop_on_presets(name):
    schedule, initial = _preset_start(name)
    result = run(initial, schedule)
    expected, segments, final = _step_reference(initial, schedule)
    got = np.array([[r.n_bar, r.ground_fidelity, r.survival_probability,
                     r.thermal_fidelity] for r in result.records])
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert [r.segment for r in result.records] == segments
    assert [r.step for r in result.records] == list(range(len(segments)))
    _assert_final_log_weights(result, initial, schedule, final)
    assert result.final.norm_log == pytest.approx(final.norm_log, rel=1e-12, abs=1e-15)


def test_logsumexp_helper():
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    a = np.array([-1000.0, -1001.0, -np.inf])
    assert logsumexp(a) == pytest.approx(-1000.0 + math.log1p(math.exp(-1.0)),
                                         rel=1e-15)
    assert math.isnan(logsumexp(np.array([0.0, np.nan])))


def test_run_stops_on_nan_weight(monkeypatch):
    def poisoned(variant, params, n_max):
        values = np.ones(n_max + 1, dtype=complex)
        values[1] = np.nan
        return CoefficientTable(variant, values, params)

    monkeypatch.setattr(protocol, "build_table", poisoned)
    d = PopulationDistribution.from_probabilities([0.5, 0.5])
    schedule = ProtocolSchedule((Segment("conventional", PARAMS_CONV, 3),))
    with pytest.raises(ValueError, match="finite"):
        run(d, schedule)


def test_run_rejects_a_start_whose_mass_overflows():
    # exp(800) is not a double, so no survival probability can be recorded
    d = PopulationDistribution(np.array([0.0, 800.0]))
    schedule = ProtocolSchedule((Segment("conventional", PARAMS_CONV, 0),))
    with pytest.raises(ValueError, match="norm_log"):
        run(d, schedule)


def test_run_keeps_full_precision_over_a_wide_dynamic_range():
    """A start spanning 1,390 e-folds, cooled until only the ground level is left.

    |c_1| = sin(1e-3) ~ 1e-3, so level 1 loses 13.8 e-folds a measurement
    and falls below the ground level after about 100 steps, while the
    ground level sits e^-695 under it in amplitude at the start: the
    amplitude view has to be rebuilt as level 1 decays, or products of
    amplitudes leave the normal doubles.
    Later n_bar underflows to exactly 0, the zero-occupancy branch of the
    thermal fidelity. Values under 1e-280, where products of amplitudes
    approach the subnormal range, are compared in absolute terms.
    """
    d = PopulationDistribution(np.array([-690.0, 700.0]))
    params = PhysicalParams(g_m=1.0, tau=math.pi / 2.0 - 1e-3)
    schedule = ProtocolSchedule((Segment("conventional", params, 200),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(d, schedule)
    assert len(result.records) == 201
    assert not result.terminated_early
    assert result.records[-1].ground_fidelity == pytest.approx(1.0, abs=1e-12)
    assert result.records[-1].n_bar == 0.0
    expected, segments, final = _step_reference(d, schedule)
    got = np.array([[r.n_bar, r.ground_fidelity, r.survival_probability,
                     r.thermal_fidelity] for r in result.records])
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-280)
    _assert_final_log_weights(result, initial=d, schedule=schedule, final=final)


def _long_double_records(initial, schedule):
    """n_bar, F_ground and log P_g of every step, evolved in long double.

    Each segment's log survival is 2 log|c_n| of the table's own double
    magnitudes, taken in long double, and the log-weights after k steps
    are lw_0 + k * that; the observables are max-shifted long-double sums.
    """
    lw = initial.log_weights.astype(np.longdouble)
    levels = np.arange(lw.size, dtype=np.longdouble)
    rows = []

    def observe(x):
        top = x.max()
        p = np.exp(x - top)
        mass = p.sum()
        rows.append([(levels * p).sum() / mass, p[0] / mass, top + np.log(mass)])

    observe(lw)
    for seg in schedule.segments:
        mags = build_table(seg.variant, seg.params, initial.n_max).magnitude
        with np.errstate(divide="ignore"):
            log_s = 2 * np.log(mags.astype(np.longdouble))
        for k in range(1, seg.steps + 1):
            observe(lw + k * log_s)
        lw = lw + seg.steps * log_s
    return np.array(rows, dtype=np.longdouble)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name", ["fig4", "fig7", "fig6"])  # fig6: three chunks
def test_run_matches_long_double_evolution(name):
    schedule, initial = _preset_start(name)
    assert all(seg.until_n_bar is None for seg in schedule.segments)
    result = run(initial, schedule)
    want = _long_double_records(initial, schedule)
    got = np.array([[r.n_bar, r.ground_fidelity, math.log(r.survival_probability)]
                    for r in result.records], dtype=np.longdouble)
    assert got.shape == want.shape
    # log P_g is 0 at step 0, where only an absolute comparison makes sense
    assert float(abs(got[0, 2] - want[0, 2])) <= 5e-15
    got[0, 2] = want[0, 2] = 1.0
    assert float((np.abs(got - want) / np.abs(want)).max()) <= 5e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name", RUN_PRESETS)
def test_run_final_log_weights_match_a_long_double_sum(name):
    # one rounding of k S and one of the sum per segment, not one per measurement
    schedule, initial = _preset_start(name)
    result = run(initial, schedule)
    want = initial.log_weights.astype(np.longdouble)
    for seg, k in zip(schedule.segments, result.steps_run):
        if k:
            table = build_table(seg.variant, seg.params, initial.n_max)
            want = want + k * table.log_survival.astype(np.longdouble)
    got = result.final.log_weights
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite].astype(float))
    err = np.abs(got[finite] - want[finite]) / np.abs(want[finite])
    assert float(err.max()) <= 5e-16


def _zero_coefficient_table(variant, params, n_max):
    """Level 2 killed outright (c_2 = 0); levels 1 and 3 lose 3/4 of their weight."""
    values = np.full(n_max + 1, 0.5, dtype=complex)
    values[0] = 1.0
    values[2] = 0.0
    return CoefficientTable(variant, values, params)


@pytest.mark.parametrize("probabilities, segment", [
    # stops on until_n_bar at step 3 of 10: n_bar 1.5, 0.67, 0.22, 0.06
    ([0.25, 0.25, 0.25, 0.25], Segment("conventional", PARAMS_CONV, 10, until_n_bar=0.1)),
    # no ground weight: the mass falls by 4 per step, so the view is rebuilt
    # from the log-weights every 27 steps
    ([0.0, 1 / 3, 1 / 3, 1 / 3], Segment("conventional", PARAMS_CONV, 100)),
], ids=["until_n_bar", "rebuilds"])
def test_a_zero_coefficient_leaves_minus_inf_and_never_nan(monkeypatch, probabilities, segment):
    monkeypatch.setattr(protocol, "build_table", _zero_coefficient_table)
    initial = PopulationDistribution.from_probabilities(probabilities)
    schedule = ProtocolSchedule((segment, Segment("driven", PARAMS_DRIVEN, 2)))
    rebuilds = []
    refresh = protocol._AmplitudeView.refresh

    def counted(view, lw):
        rebuilds.append(lw.copy())
        refresh(view, lw)
    monkeypatch.setattr(protocol._AmplitudeView, "refresh", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(initial, schedule)
    k = result.steps_run[0]
    assert k == (3 if segment.until_n_bar else 100)
    assert result.steps_run[1] == 2
    lw = result.final.log_weights
    assert lw[2] == -math.inf and np.isfinite(lw[1])
    assert not any(np.isnan(x).any() for x in [lw, *rebuilds])
    assert all(x[2] == -math.inf for x in rebuilds[1:])
    assert (len(rebuilds) > 3) == (segment.until_n_bar is None)
    assert np.isfinite(result.records.n_bar).all()
    assert lw[1] == pytest.approx(math.log(probabilities[1]) + (k + 2) * math.log(0.25),
                                  rel=1e-15)


@pytest.mark.parametrize("case", ["driven-conventional-driven", "zero-step",
                                  "fig4", "fig6", "fig7", "fig7_threshold",
                                  "threshold-second", "threshold-unreached"])
def test_run_final_log_weights_are_those_of_the_terminal_record(monkeypatch, case):
    schedule, initial = TERMINAL_CASES[case]()
    observed = []
    refresh = protocol._AmplitudeView.refresh

    def kept(view, lw):
        observed.append(lw)
        refresh(view, lw)
    monkeypatch.setattr(protocol._AmplitudeView, "refresh", kept)
    final = run(initial, schedule).final.log_weights
    del observed[:]
    protocol._terminal_record(initial, schedule)
    # the last refresh: an until_n_bar schedule's realizing pass refreshes the view first
    np.testing.assert_array_equal(final, observed[-1])


@pytest.mark.parametrize("size", [1, 24, 8192, 8193, 23190, 57345, 65536])
def test_amplitude_view_sums(size):
    # The mass is bitwise the left-to-right sum of the 8,192-level chunk
    # dots that a ddot per chunk gives, whatever the number of chunks
    # (1 to 8 here), and the moment v.v is sum_n n u_n^2 to 1e-15.
    chunk = protocol._DOT_CHUNK
    rng = np.random.default_rng(size)
    lw = rng.uniform(-2.0, 0.0, size)  # chunks of comparable mass
    lw[rng.random(size) < 0.1] = -math.inf
    view = protocol._AmplitudeView(size)
    view.refresh(lw)
    assert not view.uv[:, size:].any()
    levels = np.arange(size, dtype=np.longdouble)
    subnormal = 0
    for _ in range(3):
        magnitude = rng.uniform(0.5, 1.0, size)
        magnitude[rng.random(size) < 0.1] = 0.0
        magnitude[rng.random(size) < 0.1] = 1e-310
        view.u *= magnitude
        view.v *= magnitude
        u = view.u
        subnormal += int(np.count_nonzero((u > 0.0) & (u < np.finfo(float).tiny)))
        want_mass = 0.0
        for i in range(0, size, chunk):
            want_mass += float(u[i:i + chunk].dot(u[i:i + chunk]))
        want_moment = float((levels * u.astype(np.longdouble) ** 2).sum())
        mass, moment = view._mass(), view._moment()
        assert mass == want_mass
        assert abs(moment - want_moment) <= 1e-15 * want_moment
        assert not view.uv[:, size:].any()
    assert size < 24 or subnormal and not view.u.all()
    _assert_parts_tile_u(view)


def _assert_parts_tile_u(view):
    """Every part of ``view`` holds at most ``_DOT_CHUNK`` levels, and its
    parts tile u and v, in order."""
    chunk, held = protocol._DOT_CHUNK, 0
    for u, v in view.parts:
        assert 0 < u.size <= chunk and v.size == u.size
        # a view of each row of the buffer, starting where the last part ended
        assert u.ctypes.data == view.u[held:].ctypes.data
        assert v.ctypes.data == view.v[held:].ctypes.data
        held += u.size
    assert held == view.u.size


def _overlap_reference(view, log_rho):
    """The thermal overlap with separate column and row ``exp`` calls over
    fresh power arrays, ``col_pow[cols:] = 0`` always, and fresh slices,
    over the grid rows the view keeps (``row_ids``, all of them until it
    compacts)."""
    block, row_ids = protocol._BLOCK, view.row_ids
    col_pow, row_pow = np.ones(block), np.ones(row_ids.size)
    cols = min(block, int(protocol.LOG_TINY / log_rho) + 1)
    limit = int(protocol.LOG_TINY / (block * log_rho)) + 1
    rows = sum(1 for a in row_ids.tolist() if a < limit)
    x = np.multiply(np.arange(block, dtype=float)[1:cols], log_rho, out=col_pow[1:cols])
    np.exp(x, out=x)
    col_pow[cols:] = 0.0
    x = np.multiply((row_ids * float(block))[1:rows], log_rho, out=row_pow[1:rows])
    np.exp(x, out=x)
    return float((view.grid[:rows] @ col_pow).dot(row_pow[:rows]))


def _log_rho_cases(n_rows):
    """log rho of each truncation case on a grid of ``n_rows`` rows, with the
    (cols, rows) that :meth:`_AmplitudeView._overlap` keeps there."""
    tiny, block = protocol.LOG_TINY, protocol._BLOCK
    cases = {
        "no truncation": (tiny / (block * n_rows), block, n_rows),
        "cols < 128": (tiny / 64, 65, 1),
        "cols == 2": (tiny, 2, 1),
        "cols == 1": (tiny - 1.0, 1, 1),
        "cols == 1, far": (-1e300, 1, 1),
        "-inf": (-math.inf, 1, 1),
    }
    if n_rows > 1:
        half = n_rows // 2
        cases["rows < R"] = (tiny / (block * half), block, half + 1)
    return cases


@pytest.mark.parametrize("hollow", [False, True])
@pytest.mark.parametrize("size", [1, 100, 128, 2320, 8193, 23190])
def test_thermal_overlap_is_bitwise_the_separate_exp_evaluation(size, hollow):
    # one grid row (1, 100, 128), 19 rows, and 65 and 182 rows past one dot
    # chunk. A hollow state has no level below 65, so the "cols < 128"
    # overlap is 0 and the subnormal rho^65..rho^67 past its cut would show.
    rng = np.random.default_rng(size)
    lw = rng.uniform(-40.0, 0.0, size)
    lw[rng.random(size) < 0.1] = -math.inf
    if hollow:
        lw[:min(65, size - 1)] = -math.inf
    view = protocol._AmplitudeView(size)
    view.refresh(lw)
    view.u *= rng.uniform(0.0, 1.0, size)
    n_rows = view.grid.shape[0]
    cases = _log_rho_cases(n_rows)
    block = protocol._BLOCK
    for log_rho, cols, rows in cases.values():
        assert min(block, int(protocol.LOG_TINY / log_rho) + 1) == cols
        assert min(n_rows, int(protocol.LOG_TINY / (block * log_rho)) + 1) == rows
    # each case from each other, so every change of the truncation is crossed
    order = [name for first in cases for name in (first, *cases)]
    for name in order:
        log_rho = cases[name][0]
        assert view._overlap(log_rho) == _overlap_reference(view, log_rho), name
    assert view._overlap(-math.inf) == view.u[0]


def test_a_compacted_view_takes_the_overlap_of_its_kept_rows():
    # 182 grid rows, of which rows 40-139 and 150 on are empty: the view keeps
    # rows 0-39 and 140-149, and each overlap counts those under its row limit
    size, block = 23_190, protocol._BLOCK
    lw = np.random.default_rng(7).uniform(-40.0, 0.0, size)
    lw[0] = 0.0
    lw[40 * block:140 * block] = lw[150 * block:] = -math.inf
    view = protocol._AmplitudeView(size)
    view.refresh(lw)
    assert view.compact()
    assert view.row_ids.tolist() == [*range(40), *range(140, 150)]
    for limit in (1, 20, 40, 41, 100, 140, 141, 145, 150, 182, 100, 1):
        log_rho = protocol.LOG_TINY / (block * (limit - 0.5))  # rows a < limit
        assert view._overlap(log_rho) == _overlap_reference(view, log_rho), limit
        assert view.rows == sum(a < limit for a in view.row_ids.tolist()), limit


def test_a_run_that_crosses_a_rows_boundary_keeps_its_records(monkeypatch):
    # fig4 (n_max 2,319, 19 grid rows) cools from n_bar 83 to 0.6 in one
    # segment; its overlap keeps fewer rows from n_bar ~1.2 on, step 180
    schedule, initial = _preset_start("fig4")
    assert len(schedule.segments) == 1 and initial.n_max == 2319
    kept_rows = []
    overlap = protocol._AmplitudeView._overlap

    def traced(view, log_rho):
        value = overlap(view, log_rho)
        kept_rows.append(view.rows)
        return value
    monkeypatch.setattr(protocol._AmplitudeView, "_overlap", traced)
    records = run(initial, schedule).records
    assert kept_rows[0] == 19 and kept_rows[-1] == 12
    assert len(set(kept_rows)) == 8
    monkeypatch.setattr(protocol._AmplitudeView, "_overlap", _overlap_reference)
    want = run(initial, schedule).records
    assert records.tobytes() == want.tobytes()
    # fig6 (n_max 23,189, 182 grid rows) compacts its view: the reference
    # reads the kept rows' own exponents
    schedule, initial = _preset_start("fig6")
    kept = _compactions(monkeypatch)
    records = run(initial, schedule).records
    assert kept and kept[-1] < 182
    counted = []  # the kept rows of the overlap, and those under its row limit

    def counting(view, log_rho):
        value = overlap(view, log_rho)
        limit = int(protocol.LOG_TINY / (protocol._BLOCK * log_rho)) + 1
        counted.append((view.rows, int((view.row_ids < limit).sum())))
        return value
    monkeypatch.setattr(protocol._AmplitudeView, "_overlap", counting)
    assert records.tobytes() == run(initial, schedule).records.tobytes()
    assert all(rows == want for rows, want in counted)


def _compactions(monkeypatch) -> list[int]:
    """Patch in a traced :meth:`_AmplitudeView.compact`: the list fills with
    the grid rows the view keeps after each compaction that drops rows."""
    kept = []
    compact = protocol._AmplitudeView.compact

    def traced(view):
        dropped = compact(view)
        if dropped:
            kept.append(view.row_ids.size)
        return dropped
    monkeypatch.setattr(protocol._AmplitudeView, "compact", traced)
    return kept


def _uncompacted(monkeypatch, call, *args):
    """``call(*args)`` with a view that drops nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(protocol._AmplitudeView, "compact", lambda view: False)
        return call(*args)


def _assert_compaction_keeps(got, want):
    """Equal steps, segments and early stop, every float field within 1e-14
    relative, and bitwise-equal final log-weights."""
    assert (got.steps_run, got.terminated_early) == (want.steps_run, want.terminated_early)
    for field in ("step", "segment"):
        np.testing.assert_array_equal(got.records[field], want.records[field])
    for field in TERMINAL_FIELDS:
        np.testing.assert_allclose(got.records[field], want.records[field], rtol=1e-14,
                                   atol=0.0, err_msg=field)
    np.testing.assert_array_equal(got.final.log_weights, want.final.log_weights)


PARAMS_HOT = PhysicalParams.from_si(OMEGA, G_M, 220 / OMEGA, g_f=45 * G_M)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_bar=st.floats(500.0, 1200.0), ratio=st.floats(40.0, 60.0),
       driven=st.integers(128, 160), row=st.floats(0.0, 1.0), later=st.integers(10, 40),
       detuned=st.sampled_from(["driven-detuned", "conventional-detuned"]),
       until=st.floats(1.0, 200.0))
def test_compaction_changes_no_record(n_bar, ratio, driven, row, later, detuned, until):
    # A hot thermal start of 17,287 to 41,464 levels (epsilon_tail 1e-15)
    # whose driven segment drops rows by measurement 128, then a
    # conventional segment whose cooling-free level lies in a dropped row,
    # a detuned one and one that stops on n_bar.
    initial = thermal_distribution(ThermalSpec(n_bar_th=n_bar, epsilon_tail=1e-15))
    assert initial.n_max + 1 > 2 * protocol._DOT_CHUNK
    params = replace(PARAMS_HOT, g_f=ratio * PARAMS_HOT.g_m)
    first = Segment("driven", params, driven)
    with pytest.MonkeyPatch.context() as patch:
        views = []
        compact = protocol._AmplitudeView.compact

        def traced(view):
            views.append(view)
            return compact(view)
        patch.setattr(protocol._AmplitudeView, "compact", traced)
        run(initial, ProtocolSchedule((first,)))
    n_rows = views[-1].uv.shape[1] // protocol._BLOCK
    dropped = sorted(set(range(n_rows)) - set(views[-1].row_ids.tolist()))
    assert len(dropped) * protocol._BLOCK >= protocol._DOT_CHUNK
    level = dropped[int(row * (len(dropped) - 1))] * protocol._BLOCK
    # |c_level| = |cos(g_m sqrt(level) tau)| = 1
    cooling_free = replace(params, tau=math.pi / (params.g_m * math.sqrt(level)))
    magnitude = build_table("conventional", cooling_free, initial.n_max).magnitude
    assert magnitude[level] == pytest.approx(1.0, abs=1e-12)
    schedule = ProtocolSchedule((
        first,
        Segment("conventional", cooling_free, later),
        Segment(detuned, replace(params, delta_e=3.0 * params.g_m), later),
        Segment("driven", params, 300, until_n_bar=until)))
    with pytest.MonkeyPatch.context() as patch:
        _assert_compaction_keeps(run(initial, schedule),
                                 _uncompacted(patch, run, initial, schedule))


def _nan_in_a_dropped_row(monkeypatch, plant):
    """fig6's survival curve, with a NaN in the log survival of its top
    level, and in the view there too at the first compaction that drops
    rows if ``plant``; that row would be dropped without it."""
    schedule, initial = _preset_start("fig6")
    tables = protocol._tables(schedule, initial.n_max)
    level = initial.n_max
    poisoned = tables[0].log_survival.copy()
    poisoned[level] = math.nan
    monkeypatch.setitem(vars(tables[0]), "log_survival", poisoned)
    compact = protocol._AmplitudeView.compact
    planted = []

    def planting(view):
        eps = view.u[0] * protocol._DROP / view.size
        dead = view.grid.max(axis=1) <= eps
        if not planted and dead.sum() * protocol._BLOCK >= protocol._DOT_CHUNK:
            assert dead[-1] and view.u.size == initial.n_max + 1
            planted.append(level)
            if plant:
                view.u[level] = math.nan
        return compact(view)
    monkeypatch.setattr(protocol._AmplitudeView, "compact", planting)
    survival = protocol._survival_curve(initial, schedule, tables)[0]
    assert planted
    return survival


def test_a_nan_in_a_row_compaction_would_drop_still_fails_the_run(monkeypatch):
    # the survival curve never forms its log-weights but to rebuild the view,
    # so only the NaN in the view fails it: it must stay there to be summed
    assert len(_nan_in_a_dropped_row(monkeypatch, plant=False)) == 301
    with pytest.raises(ValueError, match="log_weights must be finite or -inf"):
        _nan_in_a_dropped_row(monkeypatch, plant=True)


def _compacted_rebuild_case():
    # 20,000 levels: level 1 on top and cooled by |cos 1| = 0.54 a step, the
    # ground level e^-20 under it in amplitude, and every other level e^-30
    # and more under it, so that rows 65 on are dropped at measurement 16,
    # all but row 149: its level 19,108 ~ (44 pi)^2 sits e^-19.5 under level
    # 1 and is all but cooling-free. The mass falls below _MIN_VIEW_MASS
    # at measurement 30 or so, and the rebuilt view's top is level 19,108.
    lw = -60.0 - 0.01 * np.arange(20_000)
    lw[:2] = -40.0, 0.0
    lw[19_108] = -39.0
    return (ProtocolSchedule((Segment("conventional", PhysicalParams(g_m=1.0, tau=1.0), 60),)),
            PopulationDistribution(lw))


def test_a_compacted_view_is_rebuilt_over_its_kept_rows(monkeypatch):
    schedule, initial = _compacted_rebuild_case()
    want = _uncompacted(monkeypatch, run, initial, schedule)
    kept = _compactions(monkeypatch)
    refreshed = []  # whether the view had dropped rows at each rebuild
    refresh = protocol._AmplitudeView.refresh

    def traced(view, lw):
        refreshed.append(isinstance(view.keep, np.ndarray))
        refresh(view, lw)
    monkeypatch.setattr(protocol._AmplitudeView, "refresh", traced)
    got = run(initial, schedule)
    assert kept[0] <= 64 and refreshed[0] is False and any(refreshed[1:])
    assert got.records.n_bar[-1] > 13_000  # level 19,108 holds 73% of the weight
    _assert_compaction_keeps(got, want)


def test_a_view_far_above_its_ground_level_drops_nothing(monkeypatch):
    # u_0 is e^-670 of the top amplitude, so eps = 2^-60 u_0 / size is under
    # e^-708, where the view holds level 19,108 at 0 though it is not empty:
    # once level 1 has decayed under it, it holds all of n_bar. The view
    # drops rows only after its rebuilds have brought u_0 up, and keeps
    # that level's row then.
    lw = np.full(20_000, -math.inf)
    lw[:2] = -640.0, 700.0
    lw[19_108] = -716.0
    initial = PopulationDistribution(lw)
    schedule = ProtocolSchedule((Segment("conventional", PhysicalParams(g_m=1.0, tau=1.0),
                                         1_300),))
    kept = _compactions(monkeypatch)
    got = run(initial, schedule)
    assert kept == [2] and not got.terminated_early
    assert got.records.n_bar[-1] > 1e-30
    _assert_compaction_keeps(got, _uncompacted(monkeypatch, run, initial, schedule))


def test_compaction_keeps_the_gain_and_leaves_small_views_alone(monkeypatch):
    # by its last measurement, fig6's view holds at most half of its 182 grid rows
    kept = _compactions(monkeypatch)
    views = []
    compact = protocol._AmplitudeView.compact
    monkeypatch.setattr(protocol._AmplitudeView, "compact",
                        lambda view: views.append(view) or compact(view))
    schedule, initial = _preset_start("fig6")
    got = run(initial, schedule)
    assert kept and kept[-1] <= 182 // 2
    # its sums take one dot over the kept levels of each 8,192-level chunk, left to right
    view = views[-1]
    per_chunk = protocol._DOT_CHUNK // protocol._BLOCK
    mass = moment = 0.0
    for chunk in sorted(set((view.row_ids // per_chunk).tolist())):
        held = np.repeat(view.row_ids // per_chunk == chunk, protocol._BLOCK)[:view.u.size]
        u, v = view.u[held], view.v[held]
        mass += float(u.dot(u))
        moment += float(v.dot(v))
    assert (view._mass(), view._moment()) == (mass, moment)
    _assert_parts_tile_u(view)
    # so a dropped row moves no mass or moment: only the thermal fidelity moves
    want = _uncompacted(monkeypatch, run, initial, schedule)
    for field in ("n_bar", "ground_fidelity", "survival_probability"):
        assert got.records[field].tobytes() == want.records[field].tobytes(), field
    assert got.final.norm_log == want.final.norm_log
    np.testing.assert_allclose(got.records.thermal_fidelity, want.records.thermal_fidelity,
                               rtol=1e-14, atol=0.0)
    # fig4's 2,320 levels never compact: its records are those of a view that drops nothing
    del kept[:], views[:]
    schedule, initial = _preset_start("fig4")
    records = run(initial, schedule).records
    assert not kept and not views
    assert records.tobytes() == _uncompacted(monkeypatch, run, initial, schedule).records.tobytes()


def _dead_at_each_read(monkeypatch, method):
    """Patch in a traced ``_AmplitudeView.<method>``: the list fills with the
    number of amplitudes in (0, exp(LOG_TINY / 2)] the view holds at each
    call, and whether v is 0 wherever u is."""
    dead = []
    read = getattr(protocol._AmplitudeView, method)

    def traced(view, *args):
        u = view.u
        dead.append((int(np.count_nonzero((u > 0.0) & (u <= math.exp(protocol.LOG_TINY / 2)))),
                     not view.v[u == 0.0].any()))
        return read(view, *args)
    monkeypatch.setattr(protocol._AmplitudeView, method, traced)
    return dead


def _counts(result):
    """The rows of ``result.records`` read right after a count: measurement
    k of a segment, for k = 16, 32, 64, ..."""
    starts = np.cumsum((0, *result.steps_run))
    ks = [i - starts[seg] for i, seg in enumerate(result.records.segment.tolist())]
    return [i for i, k in enumerate(ks)
            if i and k % protocol._FIRST_COUNT == 0 and not k & (k - 1)]


@pytest.mark.parametrize("name", ["fig4_conventional", "fig4", "fig7"])
def test_a_view_that_never_compacts_zeroes_its_dead_amplitudes_at_each_count(monkeypatch,
                                                                             name):
    # these 2,320-level views build up some 250 amplitudes at or below
    # e^-354 (u_0 = 1) by measurement 256, 10 of them subnormal, unless
    # each count zeroes them; v is zeroed with u where run reads it
    schedule, initial = _preset_start(name)
    dead = _dead_at_each_read(monkeypatch, "observe")
    result = run(initial, schedule)
    assert len(dead) == len(result.records)
    counts = _counts(result)
    assert len(counts) == {"fig7": 6}.get(name, 5)
    assert all(dead[i] == (0, True) for i in counts)
    assert dead[counts[-1] - 1][0] > 200
    # the survival pass zeroes u alone, at the same counts
    monkeypatch.undo()
    dead = _dead_at_each_read(monkeypatch, "survival")
    protocol._survival_curve(initial, schedule, result.tables)
    assert len(dead) == len(result.records)
    assert all(dead[i][0] == 0 for i in counts)
    assert dead[counts[-1] - 1][0] > 200


@pytest.mark.parametrize("bad, message", [
    (math.nan, "must be finite or -inf"),
    (math.inf, "must be finite or -inf"),
    (None, "no surviving population"),
], ids=["nan", "+inf", "all -inf"])
def test_amplitude_view_refresh_rejects_a_state_it_cannot_scale(bad, message):
    lw = np.full(5, -math.inf)
    if bad is not None:
        lw[:3] = [0.0, bad, -1.0]
    view = protocol._AmplitudeView(lw.size)
    with pytest.raises(ValueError, match=message):
        view.refresh(lw)


HOT = ThermalSpec(temperature=100.0, omega_m=OMEGA)


@pytest.mark.parametrize("ratio", [50, 100, 284, 360])
def test_initial_state_is_the_thermal_cut(ratio):
    # The first cooling-free level sits 3.0 (ratio 50) to 61 (ratio 360)
    # thermal e-folds out; the truncation follows the thermal tail alone.
    params = PhysicalParams.from_si(OMEGA, G_M, 220 / OMEGA, g_f=ratio * G_M)
    schedule = ProtocolSchedule((Segment("driven", params, 10),))
    assert initial_state(HOT, schedule, hard_cap=65536).n_max == 23189
    with pytest.raises(CapacityError):
        initial_state(HOT, schedule, hard_cap=20000)  # below the thermal tail


PRESET_N_MAX = {
    "fig3a": 24, "fig3a_conventional": 24, "fig3b": 232,
    "fig3b_conventional": 232, "fig3c": 511, "fig3c_conventional": 511,
    "fig4": 2319, "fig4_conventional": 2319, "fig5a": 2319, "fig5b": 2319,
    "fig5c": 2319, "fig6": 23189, "fig6_sweep": 23189, "fig7": 2319,
    "fig7_threshold": 2319, "fig7_switch": 2319, "fig8": 2319,
}


def test_presets_keep_their_truncation():
    assert sorted(PRESET_N_MAX) == RUN_PRESETS
    for name, n_max in PRESET_N_MAX.items():
        assert _preset_start(name)[1].n_max == n_max, name


EPS_REF = 1e-30
U = 2.0 ** -53


def _preset_case(name, axis_value=None):
    config = parse_config_data({"preset": name})
    thermal, schedule = config.thermal_spec(), config.schedule()
    if axis_value is not None:
        thermal, schedule = protocol._apply_axis(config.sweep.axis, axis_value,
                                                 thermal, schedule)
    return thermal, schedule


def _trap_case():
    params = PhysicalParams.from_si(OMEGA, G_M, 220 / OMEGA, g_f=50 * G_M)
    return HOT, ProtocolSchedule((Segment("driven", params, 300),))


BOUND_CASES = {
    "fig3a": lambda: _preset_case("fig3a"),
    "fig3b": lambda: _preset_case("fig3b"),
    "fig3c": lambda: _preset_case("fig3c"),
    "fig8-g_f-78.0": lambda: _preset_case("fig8", 78.0),
    "fig8-g_f-100.29": lambda: _preset_case("fig8", 100.29),
    "100K-ratio-50": _trap_case,
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_thermal_cut_bound_holds(case):
    """Terminal observables at the thermal cut against a far deeper cut.

    The cut at n_max = M drops initial mass T = r^(M+1) <= eps (r = n_th /
    (1 + n_th), eps = epsilon_tail), with first moment r^(M+1) (M + 1 +
    n_th). Weights only shrink (c_0 = 1), so after any number of
    measurements the mass past M is still at most T, and its share of the
    conditional state at most eta = eps / ((1 - eps) P), P being the cut
    run's own P_g. Against the untruncated run:

    - P_g and F_ground move by at most eta, relative;
    - n_bar moves by at most d = eta * max(M + 1 + n_th, n_bar);
    - sqrt(F_th) moves by at most eta + 2 Q + sqrt(eta Q)
      + d / (2 sqrt(c (c + 1))), with c = n_bar - d and Q the mass past M
      of the geometric reference at n_bar + d (the last term is d times
      half the square root of the geometric family's Fisher information),
      so F_th moves by at most twice that.

    The run at ``EPS_REF`` stands in for the untruncated one. Its own
    deviation and the rounding of both runs (ratios of sums of at most
    M_ref + 1 positive terms) add 4 (M_ref + 1) u relative, u = 2^-53.
    """
    thermal, schedule = BOUND_CASES[case]()
    cut = initial_state(thermal, schedule)
    deep = initial_state(replace(thermal, epsilon_tail=EPS_REF), schedule)
    assert deep.n_max > cut.n_max
    got = run(cut, schedule).records[-1]
    want = run(deep, schedule).records[-1]

    eps, m, n_th = thermal.epsilon_tail, cut.n_max, thermal.n_bar
    eta = eps / ((1.0 - eps) * got.survival_probability)
    rnd = 4.0 * (deep.n_max + 1) * U
    d = eta * max(m + 1 + n_th, got.n_bar)
    c_lo, c_hi = got.n_bar - d, got.n_bar + d
    q = (c_hi / (1.0 + c_hi)) ** (m + 1)
    d_sqrt_f = (eta + 2.0 * q + math.sqrt(eta * q)
                + d / (2.0 * math.sqrt(c_lo * (c_lo + 1.0))))

    assert abs(got.survival_probability - want.survival_probability) <= (
        (eta + rnd) * want.survival_probability)
    assert abs(got.ground_fidelity - want.ground_fidelity) <= (
        (eta + rnd) * want.ground_fidelity)
    assert abs(got.n_bar - want.n_bar) <= d + rnd * want.n_bar
    assert abs(got.thermal_fidelity - want.thermal_fidelity) <= (
        2.0 * d_sqrt_f + rnd * want.thermal_fidelity)


def test_sweep_temperature_axis():
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 5),))
    points = sweep("T", [1.0, 10.0], THERMAL_10K, schedule)
    assert [p.value for p in points] == [1.0, 10.0]
    assert points[0].record.n_bar < points[1].record.n_bar
    assert all(p.error is None for p in points)


def test_sweep_propagates_a_fault_of_the_program(monkeypatch):
    # only input and numeric faults become error rows; a TypeError is a bug
    real = protocol._terminal_record
    calls = []

    def faulty(initial, schedule, *tables):
        calls.append(schedule)
        if len(calls) == 2:
            raise TypeError("fault at one grid point")
        return real(initial, schedule, *tables)

    monkeypatch.setattr(protocol, "_terminal_record", faulty)
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 5),))
    with pytest.raises(TypeError, match="fault at one grid point"):
        sweep("T", [1.0, 10.0, 20.0], THERMAL_10K, schedule)
    assert len(calls) == 2


def test_sweep_records_per_point_failures():
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 5),))
    points = sweep("tau", [700.0, -1.0], THERMAL_10K, schedule)
    assert points[0].error is None
    assert points[1].record is None
    assert "tau" in points[1].error
    points = sweep("N", [3.0, 10.7], THERMAL_10K, schedule)
    assert points[0].record.step == 3
    assert points[1].record is None
    assert "whole number" in points[1].error
    points = sweep("switch", [1.0], THERMAL_10K, schedule)
    assert points[0].record is None
    assert "two segments" in points[0].error
    hybrid = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 5),
                               Segment("conventional", PARAMS_CONV, 5)))
    points = sweep("switch", [2.0, 2.5, 11.0, -1.0], THERMAL_10K, hybrid)
    assert points[0].record.step == 10
    assert [p.record for p in points[1:]] == [None] * 3
    assert all("[0, 10]" in p.error for p in points[1:])


TERMINAL_FIELDS = ("n_bar", "ground_fidelity", "survival_probability",
                   "t_eff_kelvin", "thermal_fidelity")


def _assert_same_terminal(got, want):
    """Equal step and segment; float fields within 1e-12 relative."""
    assert (got.step, got.segment) == (want.step, want.segment)
    for field in TERMINAL_FIELDS:
        assert got[field] == pytest.approx(want[field], rel=1e-12, abs=0.0,
                                           nan_ok=True), field


def _floor_case():
    # the weight halves per step, so the run stops on the norm floor near step 1,000
    params = PhysicalParams(g_m=math.pi / 3.0, tau=1.0)
    return (ProtocolSchedule((Segment("conventional", params, 10**9),)),
            PopulationDistribution.from_probabilities([0.0, 1.0]))


# until_n_bar schedules past fig7_threshold's: one stops its second segment
# on n_bar, at step 9 of 300; the other never reaches its threshold
THRESHOLD_CASES = {
    "threshold-second": lambda: (
        ProtocolSchedule((Segment("conventional", PARAMS_CONV, 20),
                          Segment("driven", PARAMS_DRIVEN, 300, until_n_bar=10.0),
                          Segment("conventional", PARAMS_CONV, 30))),
        thermal_distribution(THERMAL_10K)),
    "threshold-unreached": lambda: (
        ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 10, until_n_bar=1.0),
                          Segment("conventional", PARAMS_CONV, 40))),
        thermal_distribution(THERMAL_10K)),
}

TERMINAL_CASES = {
    **{name: partial(_preset_start, name) for name in RUN_PRESETS},
    **THRESHOLD_CASES,
    "zero-step": lambda: (
        ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 0),
                          Segment("conventional", PARAMS_CONV, 0))),
        thermal_distribution(THERMAL_10K)),
    "driven-conventional-driven": lambda: (
        ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 20),
                          Segment("conventional", PARAMS_CONV, 30),
                          Segment("driven", PARAMS_DRIVEN, 10))),
        thermal_distribution(THERMAL_10K)),
}


@pytest.mark.parametrize("case", sorted(TERMINAL_CASES))
def test_terminal_record_is_the_last_record_of_run(case):
    schedule, initial = TERMINAL_CASES[case]()
    result = run(initial, schedule)
    got = protocol._terminal_record(initial, schedule)
    _assert_same_terminal(got, result.records[-1])
    assert not result.terminated_early


def _full_pass_terminal_record(terminal_record, initial, schedule, tables):
    """``terminal_record`` with every segment realized by the step loop:
    the closed form over the budgets of a copy of the schedule whose
    budgets are the realized steps and which stops on nothing."""
    steps_run = protocol._survival_curve(initial, schedule, tables)[1]
    realized = ProtocolSchedule(tuple(replace(s, steps=k, until_n_bar=None)
                                      for s, k in zip(schedule.segments, steps_run)))
    return terminal_record(initial, realized, tables)


def test_switch_sweep_steps_only_up_to_the_last_threshold_segment(monkeypatch, tmp_path):
    # fig7_threshold's driving stops on n_bar = 10; the 270 conventional
    # measurements after it need no step loop
    config = parse_config_data({"preset": "fig7_threshold", "sweep": {
        "axis": "switch", "values": [0, 20, 60, 120, 189, 300]}})
    realized = []
    survival_curve = protocol._survival_curve

    def counted(initial, schedule, tables):
        realized.append(len(schedule.segments))
        return survival_curve(initial, schedule, tables)
    monkeypatch.setattr(protocol, "_survival_curve", counted)
    zenocool.runner.run_sweep(config, tmp_path / "prefix")
    assert realized == [1] * 6
    monkeypatch.setattr(protocol, "_terminal_record",
                        partial(_full_pass_terminal_record, protocol._terminal_record))
    zenocool.runner.run_sweep(config, tmp_path / "full")
    assert ((tmp_path / "prefix" / "sweep.csv").read_bytes()
            == (tmp_path / "full" / "sweep.csv").read_bytes())


def test_terminal_record_of_a_thermal_start_never_nears_the_norm_floor():
    # the first cooling-free level, n = (pi / 0.3)^2 = 109.7, lies past n_max = 40,
    # so every level but the ground one decays; c_0 = 1 keeps P_g at p_0 = 1/2
    initial = thermal_distribution(ThermalSpec(n_bar_th=1.0))
    params = PhysicalParams(g_m=0.3, tau=1.0)
    schedule = ProtocolSchedule((Segment("conventional", params, 2_000),))
    assert initial.n_max == 40
    c = build_table("conventional", params, initial.n_max).values
    assert np.abs(c[1:]).max() == pytest.approx(0.955, abs=5e-4)
    result = run(initial, schedule)
    got = protocol._terminal_record(initial, schedule)
    _assert_same_terminal(got, result.records[-1])
    assert not result.terminated_early
    assert got.survival_probability == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_run_skips_the_segments_after_a_norm_floor_stop():
    schedule, initial = _floor_case()
    schedule = ProtocolSchedule(schedule.segments + (replace(schedule.segments[0], steps=5),))
    result = run(initial, schedule)
    assert result.terminated_early
    assert result.steps_run[1] == 0
    assert result.steps_run[0] == len(result.records) - 1
    assert not np.any(result.records.segment == 1)


@pytest.mark.parametrize("case", ["fig7_threshold", "norm-floor"])
def test_run_counts_the_steps_each_segment_ran(case):
    schedule, initial = _floor_case() if case == "norm-floor" else _preset_start(case)
    result = run(initial, schedule)
    segment = result.records.segment[1:]
    assert result.steps_run == tuple(int(np.sum(segment == i))
                                     for i in range(len(schedule.segments)))
    assert sum(result.steps_run) == len(result.records) - 1
    # both runs stop their first segment short of its budget
    assert 0 < result.steps_run[0] < schedule.segments[0].steps


@pytest.mark.parametrize("name", RUN_PRESETS)
def test_ground_fidelity_times_survival_is_the_initial_ground_weight(name):
    # c_0 = 1, so the unnormalized ground weight never moves: F_ground * P_g = p_0
    schedule, initial = _preset_start(name)
    records = run(initial, schedule).records
    p_0 = math.exp(initial.log_weights[0] - initial.norm_log)
    np.testing.assert_allclose(records.ground_fidelity * records.survival_probability,
                               p_0, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["fig7", "fig7_switch"])
def test_terminal_record_does_not_depend_on_segment_order(name):
    # every segment is diagonal in the Fock basis, so the segments commute
    schedule, initial = _preset_start(name)
    forward = protocol._terminal_record(initial, schedule)
    backward = protocol._terminal_record(
        initial, ProtocolSchedule(schedule.segments[::-1]))
    floats = [f for f in forward.dtype.names if forward.dtype[f].kind == "f"]
    assert len(floats) == 5
    for field in floats:
        assert backward[field] == pytest.approx(forward[field], rel=1e-15, abs=0), field


def test_sweep_over_n_reads_the_terminal_record_of_each_run():
    config = parse_config_data({"preset": "fig7"})
    thermal, schedule = config.thermal_spec(), config.schedule()
    grid = [0.0, 1.0, 150.0, 270.0]
    points = sweep("N", grid, thermal, schedule)
    for point, n in zip(points, grid):
        segs = (schedule.segments[0], replace(schedule.segments[1], steps=int(n)))
        stepped = ProtocolSchedule(segs)
        _assert_same_terminal(point.record,
                              run(initial_state(thermal, stepped), stepped).records[-1])
    assert [(p.record.step, p.record.segment) for p in points] == [
        (30, 0), (31, 1), (180, 1), (300, 1)]


@pytest.mark.parametrize("axis, grid, ends", [
    ("N", [0.0, 1.0, 150.0, 270.0], [(23, 0), (24, 1), (173, 1), (293, 1)]),
    # the driving stops on n_bar at step 23 wherever its budget allows it
    ("switch", [0.0, 10.0, 23.0, 100.0, 570.0],
     [(570, 1), (570, 1), (570, 1), (493, 1), (23, 0)]),
])
def test_sweep_over_a_threshold_schedule_reads_the_last_record_of_each_run(axis, grid, ends):
    config = parse_config_data({"preset": "fig7_threshold"})
    thermal, schedule = config.thermal_spec(), config.schedule()
    points = sweep(axis, grid, thermal, schedule)
    for point, value in zip(points, grid):
        th, stepped = protocol._apply_axis(axis, value, thermal, schedule)
        _assert_same_terminal(point.record,
                              run(initial_state(th, stepped), stepped).records[-1])
    assert [(p.record.step, p.record.segment) for p in points] == ends


def test_switch_sweep_matches_stepped_runs_and_beats_both_endpoints():
    """The paper's hybrid claim on fig7: a switch inside the run cools best."""
    config = parse_config_data({"preset": "fig7_switch"})
    thermal, (driven, conventional) = config.thermal_spec(), config.schedule().segments
    points = sweep("switch", config.sweep.values, thermal, config.schedule())
    assert all(p.error is None for p in points)
    for point in points:
        k = int(point.value)
        stepped = ProtocolSchedule((replace(driven, steps=k),
                                    replace(conventional, steps=300 - k)))
        _assert_same_terminal(point.record,
                              run(initial_state(thermal, stepped), stepped).records[-1])
    fidelity = [p.record.ground_fidelity for p in points]
    assert max(fidelity[1:-1]) > max(fidelity[0], fidelity[-1])
    assert points[3].value == 120.0 and fidelity[3] > 0.9999
    assert fidelity[0] < 0.35 and fidelity[-1] < 0.66


def test_sweep_rejects_unknown_axis_and_empty_grid():
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 5),))
    with pytest.raises(ValueError):
        sweep("kappa", [1.0], THERMAL_10K, schedule)
    with pytest.raises(ValueError):
        sweep("T", [], THERMAL_10K, schedule)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ProtocolSchedule(())
    with pytest.raises(ValueError):
        Segment("driven", PARAMS_DRIVEN, -1)
    with pytest.raises(ValueError):
        Segment("driven", PARAMS_DRIVEN, 5, until_n_bar=0.0)
    with pytest.raises(ValueError, match="unknown variant"):
        Segment("bogus", PARAMS_DRIVEN, 3)


def test_schedule_total_steps_sums_the_budgets():
    # a zero-step segment adds nothing, and an until_n_bar segment counts
    # at its budget, wherever its threshold would stop it
    schedule = ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 20),
                                 Segment("conventional", PARAMS_CONV, 0),
                                 Segment("driven", PARAMS_DRIVEN, 40, until_n_bar=1e9)))
    assert schedule.total_steps == 60
    result = run(thermal_distribution(THERMAL_10K), schedule)
    assert result.steps_run == (20, 0, 1) and sum(result.steps_run) < schedule.total_steps


def _counted_builds(monkeypatch) -> list[str]:
    """The variant of every table built, by any module that binds ``build_table``."""
    calls = []

    def counted(variant, params, n_max):
        calls.append(variant)
        return build_table(variant, params, n_max)
    for module in (protocol, zenocool.oracle, zenocool.runner):
        monkeypatch.setattr(module, "build_table", counted)
    return calls


def test_run_builds_each_operator_once(monkeypatch):
    calls = _counted_builds(monkeypatch)
    schedule, initial = TERMINAL_CASES["driven-conventional-driven"]()
    result = run(initial, schedule)
    assert calls == ["driven", "conventional"]
    assert result.tables[0] is result.tables[2]
    assert [t.variant for t in result.tables] == ["driven", "conventional", "driven"]
    assert run(initial, ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 0),))
               ).tables == (None,)


@pytest.mark.parametrize("name, builds", [("fig6_sweep", 1), ("fig7_switch", 2), ("fig8", 5)])
def test_sweep_builds_each_operator_once(monkeypatch, name, builds):
    """Each (variant, params) pair is built once, at the largest n_max of the
    grid; a grid point reads its head, bitwise the table of its own n_max."""
    config = parse_config_data({"preset": name})
    thermal, schedule = config.thermal_spec(), config.schedule()
    fresh = []
    for value in config.sweep.values:
        th, sched = protocol._apply_axis(config.sweep.axis, value, thermal, schedule)
        fresh.append(protocol._terminal_record(initial_state(th, sched), sched))
    calls = _counted_builds(monkeypatch)
    points = sweep(config.sweep.axis, config.sweep.values, thermal, schedule)
    assert len(calls) == builds
    assert [p.record.item() for p in points] == [r.item() for r in fresh]


def test_a_sweep_point_whose_start_fails_keeps_its_own_error(monkeypatch):
    # 120 K needs n_max 27,827; the cap fails that point alone, and the
    # others share one table built at the largest n_max they need (110 K)
    config = parse_config_data({"preset": "fig6_sweep"})
    sizes = []

    def counted(variant, params, n_max):
        sizes.append(n_max)
        return build_table(variant, params, n_max)
    monkeypatch.setattr(protocol, "build_table", counted)
    points = sweep("T", config.sweep.values, config.thermal_spec(), config.schedule(),
                   hard_cap=26_000)
    assert [p.error is None for p in points] == [True, True, True, False]
    assert points[3].error.startswith("CapacityError: ")
    n_max_110 = initial_state(replace(config.thermal_spec(), temperature=110.0),
                              config.schedule()).n_max
    assert sizes == [n_max_110]


def test_sampler_reads_the_tables_of_its_run(monkeypatch):
    calls = _counted_builds(monkeypatch)
    schedule, initial = _preset_start("fig7")
    sample_trajectories(initial, schedule, n_trajectories=100, seed=1)
    assert calls == ["driven", "conventional"]


def test_coefficient_export_reads_the_table_of_its_run(monkeypatch, tmp_path):
    calls = _counted_builds(monkeypatch)
    config = parse_config_data({"preset": "fig5c"})
    config = replace(config, outputs=replace(config.outputs, coefficients_csv=True))
    outputs = run_experiment(config, tmp_path)
    assert calls == ["driven"]
    assert "coefficients_driven.csv" in outputs


def test_one_patch_point_drives_every_reader(monkeypatch, tmp_path):
    """A shift of log|c_n|^2 by -1e-6 for n >= 1, patched into
    ``protocol.build_table`` alone, reaches the sampler and the export."""
    # bench/ patches oracle.build_table and wraps protocol.logsumexp by name:
    # dropping either name, though unused there, would break its tests
    assert zenocool.oracle.build_table is build_table
    assert protocol.logsumexp is logsumexp
    config = parse_config_data({"preset": "fig7"})
    config = replace(config, outputs=replace(config.outputs, coefficients_csv=True))
    # level 1 survives a measurement with log s = -1e-3, so a trajectory there
    # lives about 1,000 steps and the shift moves that by about one step
    schedule = ProtocolSchedule((Segment(
        "conventional", PhysicalParams(g_m=math.acos(math.exp(-5e-4)), tau=1.0), 2000),))
    initial = PopulationDistribution.from_probabilities([0.5, 0.5])

    def outputs(out_dir):
        run_experiment(config, out_dir)
        batch = sample_trajectories(initial, schedule, n_trajectories=1000, seed=3)
        tables = {p.name: p.read_bytes() for p in out_dir.glob("coefficients_*.csv")}
        return batch.counts, tables

    counts, tables = outputs(tmp_path / "clean")
    real = protocol.build_table

    def shifted(variant, params, n_max):
        table = real(variant, params, n_max)
        values = table.values.copy()
        values[1:] *= np.exp(-0.5e-6)
        return CoefficientTable(variant, values, params)
    monkeypatch.setattr(protocol, "build_table", shifted)
    shifted_counts, shifted_tables = outputs(tmp_path / "shifted")
    assert not np.array_equal(shifted_counts, counts)
    assert sorted(shifted_tables) == ["coefficients_conventional.csv",
                                      "coefficients_driven.csv"]
    for name, data in shifted_tables.items():
        assert data != tables[name], name


def _rebuild_case():
    # the start of test_run_keeps_full_precision_over_a_wide_dynamic_range: the
    # mass falls about 1e-6 a step, so the view is rebuilt every few steps
    params = PhysicalParams(g_m=1.0, tau=math.pi / 2.0 - 1e-3)
    return (ProtocolSchedule((Segment("conventional", params, 200),)),
            PopulationDistribution(np.array([-690.0, 700.0])))


def _floor_then_more_case():
    schedule, initial = _floor_case()
    return (ProtocolSchedule(schedule.segments + (replace(schedule.segments[0], steps=5),)),
            initial)


SURVIVAL_CASES = {
    **{name: partial(_preset_start, name) for name in PRESETS
       if PRESETS[name].get("segments")},
    **THRESHOLD_CASES,
    "zero-step-segment": lambda: (
        ProtocolSchedule((Segment("driven", PARAMS_DRIVEN, 20),
                          Segment("conventional", PARAMS_CONV, 0),
                          Segment("driven", PARAMS_DRIVEN, 10))),
        thermal_distribution(THERMAL_10K)),
    "rebuilds": _rebuild_case,
    "compacted-rebuild": _compacted_rebuild_case,
    "norm-floor": _floor_then_more_case,
}


@pytest.mark.parametrize("case", sorted(SURVIVAL_CASES))
def test_survival_curve_is_bitwise_that_of_run(case, monkeypatch):
    schedule, initial = SURVIVAL_CASES[case]()
    want = run(initial, schedule)
    rebuilds = []
    refresh = protocol._AmplitudeView.refresh

    def counted(view, lw):
        rebuilds.append(lw)
        refresh(view, lw)
    monkeypatch.setattr(protocol._AmplitudeView, "refresh", counted)
    survival, steps_run = protocol._survival_curve(
        initial, schedule, protocol._tables(schedule, initial.n_max))
    assert survival.dtype == np.float64
    assert survival.tobytes() == want.records.survival_probability.tobytes()
    assert steps_run == want.steps_run
    assert not survival.flags.writeable
    batch = sample_trajectories(initial, schedule, n_trajectories=10, seed=1)
    assert batch.exact_survival.tobytes() == survival.tobytes()
    assert batch.n_steps == len(want.records) - 1
    assert not batch.exact_survival.flags.writeable
    assert want.terminated_early == (case == "norm-floor")
    if case == "rebuilds":
        assert len(rebuilds) > 10
    if case == "zero-step-segment":
        assert steps_run == (20, 0, 10)
    if case.startswith("threshold-"):
        assert steps_run == {"threshold-second": (20, 9, 30),
                             "threshold-unreached": (10, 40)}[case]


def test_the_mass_only_loop_stops_where_run_stops_on_n_bar():
    # fig7_threshold's driving goes off once n_bar <= 10, at step 23 of 300;
    # a loop that read the mass alone would never see n_bar reach it
    schedule, initial = _preset_start("fig7_threshold")
    tables = protocol._tables(schedule, initial.n_max)
    steps_run = protocol._evolve(initial, schedule, tables, False)[-1]
    assert steps_run == run(initial, schedule).steps_run == (23, 270)


def _nan_table(variant, params, n_max):
    values = np.ones(n_max + 1, dtype=complex)
    values[1] = np.nan
    return CoefficientTable(variant, values, params)


@pytest.mark.parametrize("start, segment, poisoned", [
    # no population at all
    ([-math.inf, -math.inf, -math.inf], Segment("conventional", PARAMS_CONV, 3), False),
    # the first measurement kills every populated level (see
    # test_run_raises_when_every_level_is_killed)
    ([-math.inf, 0.0],
     Segment("driven", PhysicalParams(g_m=math.pi / math.sqrt(2.0), tau=1.0,
                                      g_f=math.pi / math.sqrt(2.0)), 5), False),
    # a NaN coefficient
    ([math.log(0.5), math.log(0.5)], Segment("conventional", PARAMS_CONV, 3), True),
    # exp(800) is not a double
    ([0.0, 800.0], Segment("conventional", PARAMS_CONV, 0), False),
], ids=["empty", "killed", "nan", "overflow"])
def test_survival_curve_raises_what_run_raises(monkeypatch, start, segment, poisoned):
    if poisoned:
        monkeypatch.setattr(protocol, "build_table", _nan_table)
    initial = PopulationDistribution(np.array(start))
    schedule = ProtocolSchedule((segment,))
    with pytest.raises(ValueError) as want:
        run(initial, schedule)
    with pytest.raises(ValueError) as got:
        protocol._survival_curve(initial, schedule, protocol._tables(schedule, initial.n_max))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _counted_log_weights(monkeypatch):
    """The ``steps_run`` of every ``protocol._log_weights`` call from here on."""
    calls = []
    log_weights = protocol._log_weights

    def counted(lw, tables, steps_run):
        calls.append(tuple(steps_run))
        return log_weights(lw, tables, steps_run)
    monkeypatch.setattr(protocol, "_log_weights", counted)
    return calls


@pytest.mark.parametrize("name", ["fig4", "fig7", "fig7_threshold"])
def test_only_the_final_state_forms_log_weights_on_a_thermal_start(monkeypatch, name):
    # the survival pass is never rebuilt on a thermal start, so it forms
    # none; run forms its final state once
    schedule, initial = _preset_start(name)
    tables = protocol._tables(schedule, initial.n_max)
    calls = _counted_log_weights(monkeypatch)
    protocol._survival_curve(initial, schedule, tables)
    assert calls == []
    result = run(initial, schedule)
    assert calls == [result.steps_run]


@pytest.mark.parametrize("case", sorted(SURVIVAL_CASES))
def test_zeroing_dead_amplitudes_changes_no_output(monkeypatch, case):
    schedule, initial = SURVIVAL_CASES[case]()
    tables = protocol._tables(schedule, initial.n_max)
    got = run(initial, schedule)
    survival = protocol._survival_curve(initial, schedule, tables)[0]
    monkeypatch.setattr(protocol._AmplitudeView, "zero_dead", lambda view, moments: None)
    want = run(initial, schedule)
    assert got.records.tobytes() == want.records.tobytes()
    assert got.final.log_weights.tobytes() == want.final.log_weights.tobytes()
    assert got.steps_run == want.steps_run
    assert survival.tobytes() == protocol._survival_curve(initial, schedule, tables)[0].tobytes()


def _counted_reads(monkeypatch):
    """The number of ``_AmplitudeView.observe`` and ``survival`` calls from
    here on; ``observe`` reads the survival through ``survival`` too."""
    calls = dict.fromkeys(("observe", "survival"), 0)

    def count(method):
        read = getattr(protocol._AmplitudeView, method)

        def counted(view, *args):
            calls[method] += 1
            return read(view, *args)
        monkeypatch.setattr(protocol._AmplitudeView, method, counted)
    for method in calls:
        count(method)
    return calls


@pytest.mark.parametrize("name", ["fig3c", "fig4", "fig7", "fig7_threshold"])
def test_the_survival_pass_observes_only_the_start_unless_it_stops_on_n_bar(monkeypatch,
                                                                             name):
    # without an until_n_bar segment, each measurement is one survival-only
    # read; fig7_threshold's switch reads n_bar, so it observes every state
    schedule, initial = _preset_start(name)
    tables = protocol._tables(schedule, initial.n_max)
    calls = _counted_reads(monkeypatch)
    survival = protocol._survival_curve(initial, schedule, tables)[0]
    measurements = survival.size - 1
    if name == "fig7_threshold":
        assert calls == {"observe": measurements + 1, "survival": measurements + 1}
    else:
        assert calls == {"observe": 1, "survival": measurements + 1}


def _counted_refreshes(monkeypatch):
    """The log-weights of every ``_AmplitudeView.refresh`` from here on, as bytes."""
    rebuilds = []
    refresh = protocol._AmplitudeView.refresh

    def counted(view, lw):
        rebuilds.append(lw.tobytes())
        refresh(view, lw)
    monkeypatch.setattr(protocol._AmplitudeView, "refresh", counted)
    return rebuilds


@pytest.mark.parametrize("name", [name for name in PRESETS if PRESETS[name].get("segments")])
def test_a_preset_builds_its_view_once_and_never_rebuilds_it(monkeypatch, name):
    # c_0 = 1 keeps a thermal start's top amplitude at 1, so its mass never
    # falls below _MIN_VIEW_MASS: the view built at the start is the only one
    schedule, initial = _preset_start(name)
    tables = protocol._tables(schedule, initial.n_max)
    rebuilds = _counted_refreshes(monkeypatch)
    run(initial, schedule)
    assert len(rebuilds) == 1
    protocol._survival_curve(initial, schedule, tables)
    assert len(rebuilds) == 2


@pytest.mark.parametrize("case", sorted(TERMINAL_CASES))
def test_run_final_log_weights_are_bitwise_the_shared_sum(case):
    schedule, initial = TERMINAL_CASES[case]()
    result = run(initial, schedule)
    want = protocol._log_weights(initial.log_weights, result.tables, result.steps_run)
    assert result.final.log_weights.tobytes() == want.tobytes()


def test_each_rebuild_in_a_later_segment_forms_the_steps_run_so_far(monkeypatch):
    # the rebuild case as two segments of different operators: every
    # rebuild's log-weights are bitwise lw_0 + k_0 S_0 + j S_1; each
    # rebuild after the start's is one _log_weights call over the steps
    # run so far, and the final state one more
    schedule, initial = _rebuild_case()
    seg = schedule.segments[0]
    schedule = ProtocolSchedule((replace(seg, steps=50),
                                 replace(seg, params=replace(seg.params, tau=seg.params.tau
                                                             - 1e-3), steps=150)))
    rebuilds = _counted_refreshes(monkeypatch)
    calls = _counted_log_weights(monkeypatch)
    result = run(initial, schedule)
    assert result.steps_run == (50, 150)
    first = {_summed_log_weights(initial, schedule, (j, 0)).tobytes() for j in range(51)}
    second = {_summed_log_weights(initial, schedule, (50, j)).tobytes()
              for j in range(1, 151)}
    assert all(lw in first | second for lw in rebuilds)
    assert sum(lw in second for lw in rebuilds) > 10
    assert len(calls) == len(rebuilds) and calls[-1] == result.steps_run
    assert rebuilds[1:] == [_summed_log_weights(initial, schedule, steps).tobytes()
                            for steps in calls[:-1]]

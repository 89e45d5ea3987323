"""The engine against a reference that trusts no 3x3 block.

``engine_reference.joint_run`` evolves the resonator's density matrix
through G = <g|exp(-iH tau)|g>, taken from a dense ``eigh`` of the whole
qubit-resonator Hamiltonian. It checks what the block decomposition
assumes for a run: that the |g> projection acts on the resonator as one
diagonal operator, and that P_g is the trace of the unnormalized state.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from zenocool import (
    PopulationDistribution,
    ProtocolSchedule,
    Segment,
    initial_state,
    parse_config_data,
    run,
)
from engine_reference import joint_run


def _preset_start(name):
    config = parse_config_data({"preset": name})
    schedule = config.schedule()
    return initial_state(config.thermal_spec(), schedule), schedule


def _detuned(variant):
    initial, schedule = _preset_start("fig3a")
    params = schedule.segments[0].params
    return initial, ProtocolSchedule((
        Segment(variant, replace(params, delta_e=5.0 * params.g_m), 80),))


def _fig7_shaped():
    # fig7's driven-then-conventional split of 30 / 270, scaled to 80 steps
    initial, schedule = _preset_start("fig3b")
    params = schedule.segments[0].params
    return initial, ProtocolSchedule((Segment("driven", params, 8),
                                      Segment("conventional", params, 72)))


def _until_stop():
    # the driven run reaches n_bar 4 near step 26 of 80
    initial, schedule = _preset_start("fig3b")
    params = schedule.segments[0].params
    return initial, ProtocolSchedule((Segment("driven", params, 80, until_n_bar=4.0),
                                      Segment("conventional", params, 20)))


CASES = {
    "fig3a": lambda: _preset_start("fig3a"),
    "fig3a_conventional": lambda: _preset_start("fig3a_conventional"),
    "fig3b": lambda: _preset_start("fig3b"),
    "fig3b_conventional": lambda: _preset_start("fig3b_conventional"),
    "driven-detuned": lambda: _detuned("driven-detuned"),
    "conventional-detuned": lambda: _detuned("conventional-detuned"),
    "fig7-shaped": _fig7_shaped,
    "until_n_bar": _until_stop,
}


def _engine_rows(result):
    r = result.records
    return np.column_stack((r.n_bar, r.ground_fidelity, r.survival_probability,
                            r.thermal_fidelity))


@pytest.mark.parametrize("case", CASES)
def test_every_record_matches_the_joint_density_matrix(case):
    initial, schedule = CASES[case]()
    result = run(initial, schedule)
    rows, segments, off_diagonal = joint_run(
        np.diag(np.exp(initial.log_weights)).astype(complex), schedule)
    assert list(result.records.segment) == segments
    np.testing.assert_allclose(_engine_rows(result), rows, rtol=1e-12, atol=0.0)
    assert off_diagonal <= 1e-14
    if case == "until_n_bar":
        assert result.steps_run[0] < 80
        assert result.steps_run[1] == 20


def test_populations_evolve_apart_from_coherences():
    # a coherent state of mean 2, truncated where its tail is below 1e-17
    _, schedule = _preset_start("fig3a")
    n = np.arange(25)
    amplitudes = np.array([math.exp(-1.0) * math.sqrt(2.0) ** k / math.sqrt(math.factorial(k))
                           for k in n])
    amplitudes /= np.linalg.norm(amplitudes)
    rows, _, off_diagonal = joint_run(np.outer(amplitudes, amplitudes).astype(complex),
                                      schedule)
    result = run(PopulationDistribution.from_probabilities(amplitudes ** 2), schedule)
    # n_bar, F_ground and P_g read the populations alone; F_th, taken from the
    # diagonal here, is not the coherent state's fidelity
    np.testing.assert_allclose(_engine_rows(result)[:, :3], rows[:, :3], rtol=1e-12, atol=0.0)
    assert off_diagonal > 1e-3

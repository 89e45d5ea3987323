import math

import numpy as np
import pytest

import zenocool.oracle
from zenocool import (
    PhysicalParams,
    PopulationDistribution,
    ProtocolSchedule,
    Segment,
    block_hamiltonian,
    block_propagator,
    build_table,
    coefficient,
    compare_random_draws,
    extract_vg_element,
    run,
    sample_trajectories,
    unitarity_defect,
)


def random_params(rng, **overrides):
    g_m = 10.0 ** rng.uniform(-5, -3)
    values = {
        "g_m": g_m,
        "tau": rng.uniform(10.0, 1000.0),
        "g_f": g_m * rng.uniform(0.0, 100.0),
        "delta_e": g_m * rng.uniform(-50.0, 50.0),
    }
    values.update(overrides)
    return PhysicalParams(**values)


def test_block_zero_excitation():
    block = block_hamiltonian(0, random_params(np.random.default_rng(0)))
    assert block.matrix.shape == (1, 1)
    assert block.matrix[0, 0] == 0.0
    u = block_propagator(block, 123.4)
    assert u[0, 0] == pytest.approx(1.0)


def test_block_jc_reduction():
    params = PhysicalParams(g_m=2e-4, tau=50.0, g_f=0.0, delta_e=0.0)
    block = block_hamiltonian(1, params)
    np.testing.assert_allclose(block.matrix[:2, :2],
                               [[0.0, 2e-4], [2e-4, 0.0]], atol=0)
    assert np.all(block.matrix[2, :] == 0.0)
    assert np.all(block.matrix[:, 2] == 0.0)


def test_block_sqrt_n_factor():
    params = PhysicalParams(g_m=3e-4, tau=50.0, g_f=1e-3, delta_e=-2e-4)
    block = block_hamiltonian(4, params)
    assert block.matrix[0, 1] == pytest.approx(2 * 3e-4, rel=1e-15)
    assert block.matrix[1, 1] == -2e-4
    assert block.matrix[1, 2] == 1e-3
    assert block.labels == ("|g,4>", "|e,3>", "|f,3>")


def test_propagator_identity_cases():
    rng = np.random.default_rng(1)
    block = block_hamiltonian(7, random_params(rng))
    np.testing.assert_allclose(block_propagator(block, 0.0), np.eye(3), atol=1e-15)
    zero = block_hamiltonian(0, random_params(rng))
    np.testing.assert_allclose(block_propagator(zero, 77.7), np.eye(1), atol=1e-15)


def test_propagator_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        params = random_params(rng)
        n = int(rng.integers(0, 2000))
        u = block_propagator(block_hamiltonian(n, params), params.tau)
        assert unitarity_defect(u) < 1e-12


def test_vg_element_matches_driven_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = random_params(rng, delta_e=0.0)
        n = int(rng.integers(0, 200))
        assert extract_vg_element(n, params) == pytest.approx(
            coefficient("driven", params, n), abs=1e-10)


def test_vg_element_matches_detuned_conventional_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = random_params(rng, g_f=0.0)
        n = int(rng.integers(0, 200))
        oracle_value = extract_vg_element(n, params)
        closed = coefficient("conventional-detuned", params, n)
        assert oracle_value == pytest.approx(closed, abs=1e-10)
        assert abs(oracle_value) == pytest.approx(abs(closed), abs=1e-10)


def joint_hamiltonian(params: PhysicalParams, n_max: int) -> np.ndarray:
    """Full truncated Hamiltonian from ladder and transition operators.

    Basis ordering is level-major: index = level * (n_max + 1) + photon
    with levels (g, e, f). Used to cross-check the block bookkeeping at
    small truncations.
    """
    dim = n_max + 1
    b = np.diag(np.sqrt(np.arange(1, dim)), 1)
    eye = np.eye(dim)
    sig_ge = np.zeros((3, 3))
    sig_ge[1, 0] = 1.0  # |e><g|
    sig_ef = np.zeros((3, 3))
    sig_ef[2, 1] = 1.0  # |f><e|
    proj_e = np.zeros((3, 3))
    proj_e[1, 1] = 1.0
    h = (params.delta_e * np.kron(proj_e, eye)
         + params.g_m * (np.kron(sig_ge, b) + np.kron(sig_ge.T, b.T))
         + params.g_f * np.kron(sig_ef + sig_ef.T, eye))
    return h


def joint_from_blocks(params: PhysicalParams, n_max: int) -> np.ndarray:
    """The same truncated Hamiltonian assembled block by block.

    Includes the boundary {|e,n_max>, |f,n_max>} fragment whose |g>
    partner lies beyond the truncation.
    """
    dim = n_max + 1
    h = np.zeros((3 * dim, 3 * dim))

    def idx(level: int, photons: int) -> int:
        return level * dim + photons

    for n in range(1, n_max + 1):
        block = block_hamiltonian(n, params).matrix
        ids = [idx(0, n), idx(1, n - 1), idx(2, n - 1)]
        for a in range(3):
            for c in range(3):
                h[ids[a], ids[c]] = block[a, c]
    boundary = [idx(1, n_max), idx(2, n_max)]
    frag = np.array([[params.delta_e, params.g_f], [params.g_f, 0.0]])
    for a in range(2):
        for c in range(2):
            h[boundary[a], boundary[c]] = frag[a, c]
    return h


def test_joint_hamiltonian_matches_block_assembly():
    rng = np.random.default_rng(5)
    for n_max in (1, 3, 6):
        params = random_params(rng)
        full = joint_hamiltonian(params, n_max)
        blocks = joint_from_blocks(params, n_max)
        np.testing.assert_allclose(full, blocks, atol=1e-12)
        np.testing.assert_allclose(full, full.T, atol=0)


def test_compare_random_draws_tolerances():
    rows = compare_random_draws(200, seed=7)
    assert len(rows) == 200
    assert {r["variant"] for r in rows} == {
        "driven", "conventional", "driven-detuned", "conventional-detuned"}
    assert max(r["abs_error"] for r in rows) < 1e-10
    assert max(r["phase_aligned_error"] for r in rows) < 1e-10
    assert max(r["unitarity_defect"] for r in rows) < 1e-12


def test_trajectories_ground_state_all_survive():
    params = PhysicalParams(g_m=1e-4, tau=100.0, g_f=3e-3)
    d = PopulationDistribution.from_probabilities([1.0] + [0.0] * 5)
    schedule = ProtocolSchedule((Segment("driven", params, 20),))
    batch = sample_trajectories(d, schedule, n_trajectories=5000, seed=0)
    assert np.all(batch.survival_lengths == 20)
    np.testing.assert_array_equal(batch.estimates(), np.ones(21))


def test_trajectories_reproducible_and_chunked(monkeypatch):
    monkeypatch.setattr(zenocool.oracle, "_CHUNK_SIZE", 1024)
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    d = PopulationDistribution.from_probabilities([0.3, 0.4, 0.3])
    schedule = ProtocolSchedule((Segment("conventional", params, 15),))
    a = sample_trajectories(d, schedule, n_trajectories=10000, seed=42)
    b = sample_trajectories(d, schedule, n_trajectories=10000, seed=42)
    np.testing.assert_array_equal(a.survival_lengths, b.survival_lengths)
    assert len(a.stream_ids) == math.ceil(10000 / 1024)
    c = sample_trajectories(d, schedule, n_trajectories=10000, seed=43)
    assert not np.array_equal(a.survival_lengths, c.survival_lengths)


def test_trajectories_two_point_analytic():
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    table = build_table("conventional", params, 60)
    s50 = abs(table.values[50]) ** 2
    d = PopulationDistribution.from_probabilities(
        [0.5] + [0.0] * 49 + [0.5] + [0.0] * 10)
    schedule = ProtocolSchedule((Segment("conventional", params, 10),))
    batch = sample_trajectories(d, schedule, n_trajectories=200000, seed=3)
    estimates = batch.estimates()
    errors = batch.standard_errors()
    for N in (1, 5, 10):
        exact = 0.5 + 0.5 * s50 ** N
        assert abs(estimates[N] - exact) <= 3.0 * errors[N] + 1e-12


def test_trajectories_unbiased_across_seeds():
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    d = PopulationDistribution.from_probabilities(
        [0.5] + [0.0] * 49 + [0.5] + [0.0] * 10)
    schedule = ProtocolSchedule((Segment("conventional", params, 10),))
    exact = run(d, schedule).records[10].survival_probability
    estimates = [
        sample_trajectories(d, schedule, n_trajectories=2000,
                            seed=100 + s).estimates()[10]
        for s in range(30)
    ]
    mean = float(np.mean(estimates))
    sem = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
    assert abs(mean - exact) <= 3.0 * sem


def test_trajectories_follow_threshold_schedule():
    # realized switch point comes from the deterministic engine
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    d = PopulationDistribution.from_probabilities([0.5, 0.5] + [0.0] * 59)
    schedule = ProtocolSchedule((
        Segment("conventional", params, 50, until_n_bar=0.2),
        Segment("conventional", params, 5),
    ))
    deterministic = run(d, schedule)
    batch = sample_trajectories(d, schedule, n_trajectories=100, seed=1)
    assert batch.n_steps == len(deterministic.records) - 1


def test_trajectories_validation():
    params = PhysicalParams(g_m=1e-4, tau=10.0)
    d = PopulationDistribution.from_probabilities([1.0])
    schedule = ProtocolSchedule((Segment("conventional", params, 1),))
    with pytest.raises(ValueError):
        sample_trajectories(d, schedule, n_trajectories=0, seed=0)

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zenocool.oracle
import zenocool.protocol
from zenocool import (
    VARIANTS,
    OracleNumericalError,
    PhysicalParams,
    PopulationDistribution,
    ProtocolSchedule,
    Segment,
    build_table,
    coefficient,
    compare_random_draws,
    initial_state,
    parse_config_data,
    run,
    sample_trajectories,
    unitarity_defect,
)
from zenocool.cli import main
from zenocool.coefficients import (_MAG_TOL, CoefficientTable, _values, switches,
                                   variant_params)
from zenocool.oracle import (_DRAW_KINDS, MAX_TRAJECTORIES, TrajectoryBatch,
                             _block_matrices, _length_probabilities, _oracle_elements,
                             _propagators)
from engine_reference import joint_hamiltonian


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


def oracle_elements(params, n):
    """<g,n| exp(-i H tau) |g,n> and unitarity defects of ``params``' blocks at levels ``n``."""
    n, g_m, tau, g_f, delta_e = np.broadcast_arrays(
        np.asarray(n, dtype=float), params.g_m, params.tau, params.g_f, params.delta_e)
    return _oracle_elements(n, g_m, tau, g_f, delta_e)


def test_block_zero_excitation(monkeypatch):
    solved = []
    propagators = zenocool.oracle._propagators

    def recorded(matrices, tau, n):
        solved.append(matrices)
        return propagators(matrices, tau, n)
    monkeypatch.setattr(zenocool.oracle, "_propagators", recorded)
    element, _ = oracle_elements(random_params(np.random.default_rng(0), tau=123.4), 0)
    (block,) = solved
    assert block.shape == (1, 1, 1)
    assert block[0, 0, 0] == 0.0
    assert element == pytest.approx(1.0)


def test_block_jc_reduction():
    params = PhysicalParams(g_m=2e-4, tau=50.0, g_f=0.0, delta_e=0.0)
    (block,) = _block_matrices(np.array([1.0]), params.g_m, params.g_f, params.delta_e)
    np.testing.assert_allclose(block[:2, :2], [[0.0, 2e-4], [2e-4, 0.0]], atol=0)
    assert np.all(block[2, :] == 0.0)
    assert np.all(block[:, 2] == 0.0)


def test_block_sqrt_n_factor():
    params = PhysicalParams(g_m=3e-4, tau=50.0, g_f=1e-3, delta_e=-2e-4)
    (block,) = _block_matrices(np.array([4.0]), params.g_m, params.g_f, params.delta_e)
    assert block[0, 1] == pytest.approx(2 * 3e-4, rel=1e-15)
    assert block[1, 1] == -2e-4
    assert block[1, 2] == 1e-3


def test_propagator_identity_cases():
    rng = np.random.default_rng(1)
    params = random_params(rng)
    block = _block_matrices(np.array([7.0]), params.g_m, params.g_f, params.delta_e)
    np.testing.assert_allclose(_propagators(block, np.array([0.0]), [7])[0], np.eye(3),
                               atol=1e-15)
    zero = np.zeros((1, 1, 1))
    np.testing.assert_allclose(_propagators(zero, np.array([77.7]), [0])[0], np.eye(1),
                               atol=1e-15)


def test_propagator_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        params = random_params(rng)
        n = int(rng.integers(0, 2000))
        _, defect = oracle_elements(params, n)
        assert defect < 1e-12


def test_unitarity_defect_is_one_norm_per_matrix():
    stack = np.stack([np.eye(2), np.diag([2.0, 1.0]), np.eye(2)[::-1]])
    np.testing.assert_array_equal(unitarity_defect(stack), [0.0, 3.0, 0.0])
    one = unitarity_defect(stack[1])
    assert np.shape(one) == () and one == 3.0


def test_vg_element_matches_driven_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = random_params(rng, delta_e=0.0)
        n = int(rng.integers(0, 200))
        assert oracle_elements(params, n)[0] == pytest.approx(
            coefficient("driven", params, n), abs=1e-10)


def test_vg_element_matches_detuned_conventional_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = random_params(rng, g_f=0.0)
        n = int(rng.integers(0, 200))
        oracle_value = oracle_elements(params, n)[0]
        closed = coefficient("conventional-detuned", params, n)
        assert oracle_value == pytest.approx(closed, abs=1e-10)
        assert abs(oracle_value) == pytest.approx(abs(closed), abs=1e-10)


def joint_from_blocks(params: PhysicalParams, n_max: int) -> np.ndarray:
    """The same truncated Hamiltonian assembled block by block.

    Includes the boundary {|e,n_max>, |f,n_max>} fragment whose |g>
    partner lies beyond the truncation.
    """
    dim = n_max + 1
    h = np.zeros((3 * dim, 3 * dim))

    def idx(level: int, photons: int) -> int:
        return level * dim + photons

    blocks = _block_matrices(np.arange(1.0, n_max + 1), params.g_m, params.g_f,
                             params.delta_e)
    for n, block in enumerate(blocks, start=1):
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


def same_bits(a, b) -> bool:
    """Equal as doubles, down to the sign of a zero."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(variant=st.sampled_from(VARIANTS),
       draws=st.lists(st.tuples(st.floats(1e-5, 1e-2), st.floats(1.0, 1000.0),
                                st.floats(0.0, 100.0),
                                st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
                                st.integers(0, 300)),
                      min_size=1, max_size=12))
def test_batched_closed_form_is_the_scalar_one(variant, draws):
    # one parameter set per element, and always a ground level among them
    draws = [*draws, (*draws[0][:4], 0)]
    params = [variant_params(variant, PhysicalParams(g_m=g, tau=t, g_f=g * f, delta_e=g * d))
              for g, t, f, d, _ in draws]
    n = np.array([d[4] for d in draws], dtype=float)
    got = _values(np.array([p.gm_tau for p in params]), np.array([p.gf_tau for p in params]),
                  np.array([p.delta_tau for p in params]), n)
    expected = [coefficient(variant, p, int(k)) for p, k in zip(params, n)]
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_batched_draws_match_the_one_block_path(seed):
    for row in compare_random_draws(200, seed):
        params = PhysicalParams(g_m=row["g_m"], tau=row["tau"], g_f=row["g_f"],
                                delta_e=row["delta_e"])
        n = row["n"]
        closed = coefficient(row["variant"], params, n)
        assert same_bits(row["closed_form"], [closed.real, closed.imag])
        (oracle_value,), (one_block,) = oracle_elements(params, [n])
        assert same_bits(row["oracle"], [oracle_value.real, oracle_value.imag])
        assert abs(row["unitarity_defect"] - one_block) <= 1e-15


def test_random_draws_keep_their_order():
    # (variant, n, g_m, tau, g_f, delta_e) of seed 7's first rows, as drawn
    # one parameter at a time in this order since the oracle check began
    expected = [
        ("driven-detuned", 11, 0.00017790613846114522, 898.2416629598797,
         0.01379992458110904, -0.004888732770566094),
        ("driven", 60, 0.0005586076652115126, 15.212651519918978,
         0.04587444893981403, 0.0),
        ("conventional-detuned", 68, 0.00039277049631522185, 473.25560331528357,
         0.0, -0.007736305147618301),
        ("conventional", 55, 3.2339937429435045e-05, 450.6255428238201, 0.0, 0.0),
        ("driven-detuned", 140, 0.00010211664032423169, 557.9623785537475,
         0.010165714438614058, 0.0029885651940950177),
        ("driven", 125, 0.0009504303482968096, 223.15561125324297,
         0.015227037914085143, 0.0),
        ("conventional-detuned", 28, 0.00016791102337389616, 53.502587881769536,
         0.0, -0.007796439956380765),
        ("conventional", 103, 8.558783695033978e-05, 917.9960954609237, 0.0, 0.0),
    ]
    rows = compare_random_draws(8, seed=7)
    assert [tuple(r[k] for k in ("variant", "n", "g_m", "tau", "g_f", "delta_e"))
            for r in rows] == expected


def _uniform_draws(n_draws, seed):
    """compare_random_draws's parameter loop as it was written with rng.uniform."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n_draws):
        kind = _DRAW_KINDS[i % len(_DRAW_KINDS)]
        g_m = 10.0 ** rng.uniform(-5.0, -3.0)
        tau = rng.uniform(10.0, 1000.0)
        driving, detuned = switches(kind)
        g_f = rng.uniform(0.0, 100.0) * g_m if driving else 0.0
        delta = rng.uniform(-50.0, 50.0) * g_m if detuned else 0.0
        n = int(rng.integers(0, 201))
        draws.append((kind, n, g_m, tau, g_f, delta))
    return draws


@pytest.mark.parametrize("seed", range(5))
def test_random_draws_are_bitwise_those_of_rng_uniform(seed):
    rows = compare_random_draws(200, seed)
    drawn = [tuple(r[k] for k in ("variant", "n", "g_m", "tau", "g_f", "delta_e"))
             for r in rows]
    expected = _uniform_draws(200, seed)
    assert [d[:2] for d in drawn] == [e[:2] for e in expected]
    assert [[x.hex() for x in d[2:]] for d in drawn] == [
        [x.hex() for x in e[2:]] for e in expected]


def test_a_failing_eigen_solve_names_its_block(monkeypatch, tmp_path):
    target = next(r for r in compare_random_draws(20, seed=9)[5:] if r["n"] > 0)
    coupling = target["g_m"] * math.sqrt(target["n"])
    eigh = np.linalg.eigh

    def failing(a):
        if a.shape[-1] == 3 and np.any(a[..., 0, 1] == coupling):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)
    monkeypatch.setattr(zenocool.oracle.np.linalg, "eigh", failing)
    with pytest.raises(OracleNumericalError, match=f"block n={target['n']}:"):
        compare_random_draws(20, seed=9)
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path / "o"),
                 "--draws", "20", "--seed", "9"]) == 2


def test_a_batch_that_fails_where_each_block_alone_solves_names_the_batch(monkeypatch,
                                                                          tmp_path):
    eigh = np.linalg.eigh

    def failing(a):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)
    monkeypatch.setattr(zenocool.oracle.np.linalg, "eigh", failing)
    with pytest.raises(OracleNumericalError, match=r"blocks n=\["):
        compare_random_draws(20, seed=9)
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path / "o"),
                 "--draws", "20", "--seed", "9"]) == 2


def test_trajectories_ground_state_all_survive():
    params = PhysicalParams(g_m=1e-4, tau=100.0, g_f=3e-3)
    d = PopulationDistribution.from_probabilities([1.0] + [0.0] * 5)
    schedule = ProtocolSchedule((Segment("driven", params, 20),))
    batch = sample_trajectories(d, schedule, n_trajectories=5000, seed=0)
    np.testing.assert_array_equal(batch.counts, [0] * 20 + [5000])
    np.testing.assert_array_equal(batch.estimates(), np.ones(21))


def test_trajectory_lengths_are_counted_once():
    # lengths 0, 1, 3 and 3: an estimate is the share that survived at least N
    batch = TrajectoryBatch(seed=0, n_trajectories=4, n_steps=3,
                            counts=np.array([1, 1, 0, 2]), stream_ids=("()",),
                            exact_survival=np.ones(4))
    p = np.array([1.0, 0.75, 0.5, 0.5])
    np.testing.assert_array_equal(batch.estimates(), p)
    np.testing.assert_array_equal(batch.standard_errors(), np.sqrt(p * (1.0 - p) / 4))
    # the per-trajectory view, built on first read
    np.testing.assert_array_equal(batch.survival_lengths, [0, 1, 3, 3])


def test_trajectories_reproducible_from_one_stream():
    params = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)
    d = PopulationDistribution.from_probabilities([0.3, 0.4, 0.3])
    schedule = ProtocolSchedule((Segment("conventional", params, 15),))
    a = sample_trajectories(d, schedule, n_trajectories=10000, seed=42)
    b = sample_trajectories(d, schedule, n_trajectories=10000, seed=42)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.counts.size == 16 and a.counts.sum() == 10000
    assert a.stream_ids == ("()",)
    c = sample_trajectories(d, schedule, n_trajectories=10000, seed=43)
    assert not np.array_equal(a.counts, c.counts)


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
    for n in (0, MAX_TRAJECTORIES + 1):
        with pytest.raises(ValueError, match="n_trajectories"):
            sample_trajectories(d, schedule, n_trajectories=n, seed=0)
    batch = sample_trajectories(d, schedule, n_trajectories=MAX_TRAJECTORIES, seed=0)
    assert batch.counts.sum() == MAX_TRAJECTORIES


def _preset_case(name):
    config = parse_config_data({"preset": name})
    schedule = config.schedule()
    return initial_state(config.thermal_spec(), schedule, hard_cap=config.hard_cap), schedule


def test_counts_are_one_multinomial_draw_of_the_curve():
    initial, schedule = _preset_case("fig7_threshold")
    batch = sample_trajectories(initial, schedule, n_trajectories=250_000, seed=17)
    exact = run(initial, schedule).records.survival_probability
    np.testing.assert_array_equal(batch.exact_survival, exact)
    q = _length_probabilities(exact)
    np.testing.assert_array_equal(q[:-1], exact[:-1] - exact[1:])
    np.testing.assert_array_equal(
        batch.counts, np.random.default_rng(17).multinomial(250_000, q))


LAW_SEEDS = 1_000
LAW_TRAJECTORIES = 2_000


@pytest.mark.parametrize("preset", ["fig4", "fig7", "fig7_threshold"])
def test_estimates_follow_the_binomial_law_over_seeds(monkeypatch, preset):
    """Over 1,000 seeds, p_hat at N = 1, 10, 50 and the last N has a mean
    within 4 standard errors of p_exact, and a sample variance within 5 of
    its standard deviations of p(1 - p)/M."""
    initial, schedule = _preset_case(preset)
    tables = zenocool.protocol._tables(schedule, initial.n_max)
    curve = zenocool.protocol._survival_curve(initial, schedule, tables)
    # the curve is deterministic: it is evaluated once, and every seed draws from it
    monkeypatch.setattr(zenocool.oracle, "_tables", lambda *args: tables)
    monkeypatch.setattr(zenocool.oracle, "_survival_curve", lambda *args: curve)
    m, seeds = LAW_TRAJECTORIES, LAW_SEEDS
    p_hat = np.array([sample_trajectories(initial, schedule, n_trajectories=m,
                                          seed=seed).estimates() for seed in range(seeds)])
    exact = curve[0]
    assert exact[0] == 1.0
    for n in (1, 10, 50, exact.size - 1):
        p = exact[n]
        var = p * (1.0 - p) / m
        assert abs(p_hat[:, n].mean() - p) <= 4.0 * math.sqrt(var / seeds), n
        # Var(s^2) = var^2 (2 / (S - 1) + kurtosis / S), with the binomial
        # share's excess kurtosis
        kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / (m * p * (1.0 - p))
        spread = var * math.sqrt(2.0 / (seeds - 1) + kurtosis / seeds)
        assert abs(p_hat[:, n].var(ddof=1) - var) <= 5.0 * spread, n


def test_a_rising_curve_is_clipped_to_its_running_minimum(monkeypatch):
    # |c_1| = 1 + 1e-12, the most a table accepts: once level 2 has died
    # out, the raw curve rises by about 1e-12 a measurement
    assert _MAG_TOL == 1e-12

    def hand_table(variant, params, n_max):
        return CoefficientTable(variant, np.array([1.0, 1.0 + _MAG_TOL, 0.5]), params)
    monkeypatch.setattr(zenocool.protocol, "build_table", hand_table)
    initial = PopulationDistribution.from_probabilities([0.25, 0.5, 0.25])
    params = PhysicalParams(g_m=0.1, tau=1.0)
    schedule = ProtocolSchedule((Segment("conventional", params, 200),))
    batch = sample_trajectories(initial, schedule, n_trajectories=10**6, seed=4)
    exact = batch.exact_survival
    assert np.diff(exact).max() > 0.0 and exact[-1] > exact[0] * 0.75
    q = _length_probabilities(exact)
    assert (q >= 0.0).all()
    # consecutive curve values lie within a factor 2, so every difference is
    # exact and they sum to c_0 = 1 exactly
    assert math.fsum(q) == 1.0
    np.testing.assert_array_equal(q[-1], exact[1:].min())
    assert (np.diff(batch.estimates()) <= 0.0).all()


def test_a_trillion_trajectories_take_the_memory_of_ten_thousand():
    initial, schedule = _preset_case("fig4")

    def peak(n_trajectories):
        tracemalloc.start()
        try:
            batch = sample_trajectories(initial, schedule, n_trajectories=n_trajectories,
                                        seed=5)
            batch.estimates()
            return tracemalloc.get_traced_memory()[1], batch
        finally:
            tracemalloc.stop()
    peak(10**4)  # first-call caches
    small, _ = peak(10**4)
    large, batch = peak(10**12)
    assert batch.counts.sum() == 10**12
    # the draw is O(N); 8 bytes per trajectory would be 8 TB
    assert abs(large - small) <= 4096, (small, large)


def reference_sample_trajectories(initial, schedule, *, n_trajectories, seed,
                                  chunk=65_536):
    """Trajectory by trajectory: each draws its Fock level with ``rng.choice``
    and then survives each measurement with the level's squared coefficient
    magnitude, in chunks of ``chunk`` trajectories, one spawned stream each.

    It reads the segments' coefficient tables, not the survival curve, so
    it checks the sampler's law from the other side.
    """
    realized = run(initial, schedule)
    n_steps = len(realized.records) - 1
    runs = [(seg_id, k) for seg_id, k in enumerate(realized.steps_run) if k]
    log_survival = {}
    for seg_id, _ in runs:
        seg = schedule.segments[seg_id]
        log_survival[seg_id] = build_table(seg.variant, seg.params,
                                           initial.n_max).log_survival

    p = initial.probabilities()
    p = p / p.sum()
    children = np.random.SeedSequence(seed).spawn(max(1, math.ceil(n_trajectories / chunk)))
    lengths = np.empty(n_trajectories, dtype=np.int64)
    start = 0
    for child in children:
        size = min(chunk, n_trajectories - start)
        rng = np.random.default_rng(child)
        levels = rng.choice(p.size, size=size, p=p)
        chunk_lengths = np.full(size, n_steps, dtype=np.int64)
        live = np.arange(size)
        offset = 0
        for seg_id, k in runs:
            if live.size == 0:
                break
            log_s = log_survival[seg_id][levels[live]]
            log_u = np.log1p(-rng.random(live.size))  # log U, U in (0, 1]
            survived = np.full(live.size, np.inf)
            mortal = log_s < 0.0
            with np.errstate(over="ignore"):
                survived[mortal] = np.floor(log_u[mortal] / log_s[mortal])
            died = survived < k
            chunk_lengths[live[died]] = offset + survived[died].astype(np.int64)
            live = live[~died]
            offset += k
        lengths[start:start + size] = chunk_lengths
        start += size
    counts = np.bincount(lengths, minlength=n_steps + 1)
    return TrajectoryBatch(seed, n_trajectories, n_steps, counts,
                           tuple(str(c.spawn_key) for c in children),
                           realized.records.survival_probability)


def assert_same_law(got, want):
    """Two independent batches of one schedule: at every N their estimates
    differ by at most 5 standard deviations of the difference, taken at the
    exact survival probability."""
    assert got.n_steps == want.n_steps
    np.testing.assert_array_equal(got.exact_survival, want.exact_survival)
    p = got.exact_survival / got.exact_survival[0]
    sd = np.sqrt(np.clip(p * (1.0 - p), 0.0, None)
                 * (1.0 / got.n_trajectories + 1.0 / want.n_trajectories))
    diff = np.abs(got.estimates() - want.estimates())
    assert (diff <= 5.0 * sd + 1e-12).all(), int(np.argmax(diff - 5.0 * sd))


# g_m = g_f = 1 and g_m tau = pi / sqrt(2): driven, level 1 has s = 0, levels 0 and 7 s = 1
CERTAIN_AND_IMPOSSIBLE = PhysicalParams(g_m=1.0, tau=math.pi / math.sqrt(2.0), g_f=1.0)
CONVENTIONAL_TENTH_PI = PhysicalParams(g_m=math.pi / 10.0, tau=1.0)


def _certain_and_impossible_case():
    params = CERTAIN_AND_IMPOSSIBLE
    log_s = build_table("driven", params, 12).log_survival
    assert log_s[1] == -np.inf and log_s[0] == 0.0 and log_s[7] == 0.0
    schedule = ProtocolSchedule((
        Segment("driven", params, 4),
        Segment("conventional", CONVENTIONAL_TENTH_PI, 5),
        Segment("driven", params, 3),
    ))
    return PopulationDistribution.from_probabilities(np.full(13, 1.0 / 13.0)), schedule


SAMPLER_CASES = {
    **{name: (partial(_preset_case, name), 70_000)
       for name in ("fig3c", "fig4", "fig7", "fig7_threshold")},
    "fig6": (partial(_preset_case, "fig6"), 3_000),
    "certain-and-impossible": (_certain_and_impossible_case, 70_000),
}


@pytest.mark.parametrize("chunk", [None, 1024], ids=["default-chunk", "chunk-1024"])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_sampler_matches_the_choice_sampler(case, chunk):
    """The multinomial histogram has the law of trajectory-by-trajectory
    sampling, whether that runs in one stream or in chunks of 1,024."""
    build, n_trajectories = SAMPLER_CASES[case]
    if chunk is not None:
        n_trajectories = min(n_trajectories, 5 * chunk - 120)
    initial, schedule = build()
    got = sample_trajectories(initial, schedule, n_trajectories=n_trajectories, seed=17)
    kwargs = {} if chunk is None else {"chunk": chunk}
    want = reference_sample_trajectories(initial, schedule, n_trajectories=n_trajectories,
                                         seed=17, **kwargs)
    assert len(want.stream_ids) == math.ceil(n_trajectories / (chunk or 65_536))
    assert got.stream_ids == ("()",)
    assert got.counts.sum() == want.counts.sum() == n_trajectories
    assert_same_law(got, want)


def _zero_step_case():
    initial, _ = _certain_and_impossible_case()
    return initial, ProtocolSchedule((
        Segment("driven", CERTAIN_AND_IMPOSSIBLE, 4),
        Segment("conventional", CONVENTIONAL_TENTH_PI, 0),
        Segment("driven", CERTAIN_AND_IMPOSSIBLE, 3),
    ))


POOL_CASES = {
    **{name: partial(_preset_case, name) for name in ("fig4", "fig7", "fig7_threshold")},
    "zero-step-segment": _zero_step_case,
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_any_worker_count_gives_the_choice_sampler(case, workers):
    """Calls made at once from ``workers`` threads share no state: each
    gives the counts of the same call made alone, and together they have
    the law of trajectory-by-trajectory sampling."""
    initial, schedule = POOL_CASES[case]()
    n_trajectories = 5 * 1024 - 120
    seeds = [23 + i for i in range(workers)]
    alone = [sample_trajectories(initial, schedule, n_trajectories=n_trajectories, seed=s)
             for s in seeds]
    barrier = threading.Barrier(workers)

    def call(seed):
        barrier.wait()
        return sample_trajectories(initial, schedule, n_trajectories=n_trajectories,
                                   seed=seed)
    with ThreadPoolExecutor(workers) as pool:
        together = list(pool.map(call, seeds))
    for a, b in zip(alone, together):
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.exact_survival, b.exact_survival)
        assert (a.n_steps, a.stream_ids) == (b.n_steps, b.stream_ids)
    pooled = TrajectoryBatch(23, workers * n_trajectories, together[0].n_steps,
                             sum(b.counts for b in together), ("()",),
                             together[0].exact_survival)
    want = reference_sample_trajectories(initial, schedule,
                                         n_trajectories=n_trajectories, seed=23, chunk=1024)
    assert_same_law(pooled, want)


def _normalized(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _point_mass(n_levels, at):
    p = np.zeros(n_levels)
    p[at] = 1.0
    return p


def _geometric(n_levels, n_bar):
    return _normalized((n_bar / (1.0 + n_bar)) ** np.arange(n_levels))


def _drawn_from_law(monkeypatch, q, n_trajectories, seed):
    """The batch the sampler draws where the survival curve is P(L >= k) of
    the length law ``q``: the reverse cumulative sum of ``q``."""
    curve = q[::-1].cumsum()[::-1]
    monkeypatch.setattr(zenocool.oracle, "_tables", lambda *args: ())
    monkeypatch.setattr(zenocool.oracle, "_survival_curve",
                        lambda *args: (curve, (q.size - 1,)))
    initial = PopulationDistribution.from_probabilities([1.0])
    schedule = ProtocolSchedule((Segment("conventional", CONVENTIONAL_TENTH_PI, q.size - 1),))
    return curve, sample_trajectories(initial, schedule, n_trajectories=n_trajectories,
                                      seed=seed)


@pytest.mark.parametrize("p", [
    _geometric(23_190, 2318.8),
    _geometric(512, 20.0),
    _normalized([0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 1e-300, 2.0, 0.0]),
    _point_mass(40, 0),
    _point_mass(40, 39),
    np.ones(1),
    np.array([5.0 / 6.0, 1.0 - 5.0 / 6.0]),
], ids=["geometric-23190", "geometric-512", "zeros", "mass-first", "mass-last", "one-level",
        "level-on-edge"])
@pytest.mark.parametrize("buckets", [1, 3, 6, 7, 40, 1000, 23_190])
def test_level_draw_at_bucket_edges(monkeypatch, p, buckets):
    """A length law ``p`` with empty bins, its mass in the first or last bin
    of the histogram, or one bin only, drawn for ``buckets`` trajectories:
    the curve gives back ``p``, and no trajectory lands in an empty bin."""
    curve, batch = _drawn_from_law(monkeypatch, p, buckets, seed=buckets)
    q = _length_probabilities(curve)
    np.testing.assert_allclose(q, p, rtol=0.0, atol=1e-15)
    assert (q[p == 0.0] == 0.0).all()
    assert batch.n_steps == p.size - 1 and batch.counts.size == p.size
    np.testing.assert_array_equal(batch.counts,
                                  np.random.default_rng(buckets).multinomial(buckets, q))
    assert batch.counts.sum() == buckets
    assert not batch.counts[q == 0.0].any()
    if (p == 1.0).any():
        np.testing.assert_array_equal(batch.counts, buckets * p)
    estimates = batch.estimates()
    assert estimates[0] == 1.0 and (np.diff(estimates) <= 0.0).all()


@pytest.mark.parametrize("p", [
    _geometric(23_190, 2318.8),
    _normalized([0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 1e-300, 2.0, 0.0]),
    _point_mass(40, 39),
    np.ones(1),
    np.array([0.75, 0.25]),
], ids=["geometric-23190", "zeros", "mass-last", "one-level", "level-on-edge"])
@pytest.mark.parametrize("requested", [1, 2, 3, 6, 7, 40, 1000, 1024, 1025, 23_190])
def test_level_table_searches_its_own_power_of_two_edges(monkeypatch, p, requested):
    """For ``requested`` trajectories, on and beside powers of two, each
    estimate is the share of the per-trajectory view that survived at
    least N, found by a search of the sorted lengths, correctly rounded."""
    _, batch = _drawn_from_law(monkeypatch, p, requested, seed=requested)
    lengths = batch.survival_lengths
    assert lengths.size == requested and (np.diff(lengths) >= 0).all()
    np.testing.assert_array_equal(np.bincount(lengths, minlength=p.size), batch.counts)
    survivors = requested - lengths.searchsorted(np.arange(p.size), side="left")
    want = np.array([int(s) / requested for s in survivors])
    np.testing.assert_array_equal(batch.estimates(), want)
    if requested & (requested - 1) == 0:
        np.testing.assert_array_equal(batch.estimates() * requested, survivors)
    np.testing.assert_array_equal(batch.standard_errors(),
                                  np.sqrt(want * (1.0 - want) / requested))

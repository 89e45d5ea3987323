import math
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zenocool.oracle
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
from zenocool.coefficients import _values, switches, variant_params
from zenocool.oracle import (_DRAW_KINDS, TrajectoryBatch, _block_matrices,
                             _LevelTable, _mortal_log_survival, _oracle_elements,
                             _propagators, _run_lengths)
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
    assert np.all(batch.survival_lengths == 20)
    np.testing.assert_array_equal(batch.estimates(), np.ones(21))


def test_trajectory_lengths_are_counted_once(monkeypatch):
    batch = TrajectoryBatch(seed=0, n_trajectories=4, n_steps=3,
                            survival_lengths=np.array([0, 1, 3, 3]), stream_ids=(),
                            exact_survival=np.ones(4))
    calls = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        calls.append(args)
        return bincount(*args, **kwargs)
    monkeypatch.setattr(zenocool.oracle.np, "bincount", counted)
    p = np.array([1.0, 0.75, 0.5, 0.5])
    np.testing.assert_array_equal(batch.estimates(), p)
    np.testing.assert_array_equal(batch.standard_errors(), np.sqrt(p * (1.0 - p) / 4))
    assert len(calls) == 1


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


def reference_sample_trajectories(initial, schedule, *, n_trajectories, seed):
    """The sampler as it was before the guide-table level draw, kept verbatim.

    Levels come from ``rng.choice``, and each segment copies its live
    trajectories through boolean masks.
    """
    _CHUNK_SIZE = zenocool.oracle._CHUNK_SIZE
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
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
    seq = np.random.SeedSequence(seed)
    n_chunks = max(1, math.ceil(n_trajectories / _CHUNK_SIZE))
    children = seq.spawn(n_chunks)
    lengths = np.empty(n_trajectories, dtype=np.int64)
    start = 0
    for child in children:
        size = min(_CHUNK_SIZE, n_trajectories - start)
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
    stream_ids = tuple(str(c.spawn_key) for c in children)
    return TrajectoryBatch(seed, n_trajectories, n_steps, lengths, stream_ids,
                           realized.records.survival_probability)


def _preset_case(name):
    config = parse_config_data({"preset": name})
    schedule = config.schedule()
    return initial_state(config.thermal_spec(), schedule, hard_cap=config.hard_cap), schedule


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
def test_sampler_matches_the_choice_sampler(monkeypatch, case, chunk):
    build, n_trajectories = SAMPLER_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(zenocool.oracle, "_CHUNK_SIZE", chunk)
        n_trajectories = min(n_trajectories, 5 * chunk - 120)
    # at least two streams, the last one partial
    assert n_trajectories % zenocool.oracle._CHUNK_SIZE != 0
    assert n_trajectories > zenocool.oracle._CHUNK_SIZE or case == "fig6"
    initial, schedule = build()
    got = sample_trajectories(initial, schedule, n_trajectories=n_trajectories, seed=17)
    want = reference_sample_trajectories(initial, schedule,
                                         n_trajectories=n_trajectories, seed=17)
    np.testing.assert_array_equal(got.survival_lengths, want.survival_lengths)
    assert got.stream_ids == want.stream_ids
    assert got.n_steps == want.n_steps


def test_sampler_leaves_a_chunk_once_every_trajectory_died():
    # |c_5| = sin(0.0005 pi) ~ 1.6e-3: no trajectory on level 5 outlives the
    # first segment, so the chunk never draws for the second
    params = PhysicalParams(g_m=0.999 * math.pi / (2.0 * math.sqrt(5.0)), tau=1.0)
    schedule = ProtocolSchedule((Segment("conventional", params, 10),
                                 Segment("conventional", params, 5)))
    initial = PopulationDistribution.from_probabilities([0, 0, 0, 0, 0, 1])
    got = sample_trajectories(initial, schedule, n_trajectories=3_000, seed=17)
    want = reference_sample_trajectories(initial, schedule, n_trajectories=3_000, seed=17)
    assert not got.survival_lengths.any()
    np.testing.assert_array_equal(got.survival_lengths, want.survival_lengths)


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
def test_any_worker_count_gives_the_choice_sampler(monkeypatch, case, workers):
    monkeypatch.setattr(zenocool.oracle, "_CHUNK_SIZE", 1024)
    monkeypatch.setattr(zenocool.oracle, "_workers", lambda n_chunks: workers)
    initial, schedule = POOL_CASES[case]()
    n_trajectories = 5 * 1024 - 120  # five streams, the last one partial
    threads = set()
    default_rng = np.random.default_rng

    def recording_rng(*args, **kwargs):
        threads.add(threading.get_ident())
        return default_rng(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_rng)
        got = sample_trajectories(initial, schedule, n_trajectories=n_trajectories, seed=23)
    # one worker runs inline; more run every chunk on the pool's threads
    caller = threading.get_ident()
    assert threads == {caller} if workers == 1 else caller not in threads
    want = reference_sample_trajectories(initial, schedule,
                                         n_trajectories=n_trajectories, seed=23)
    np.testing.assert_array_equal(got.survival_lengths, want.survival_lengths)
    np.testing.assert_array_equal(got.exact_survival, want.exact_survival)
    assert (got.n_steps, got.stream_ids) == (want.n_steps, want.stream_ids)


def test_more_workers_than_cores_share_no_scratch(monkeypatch):
    # many short chunks and a short switch interval make the threads take
    # and return scratch sets often; a set taken twice at once would mix
    # two chunks' draws and break the bit-for-bit match
    monkeypatch.setattr(zenocool.oracle, "_CHUNK_SIZE", 64)
    monkeypatch.setattr(zenocool.oracle, "_workers", lambda n_chunks: min(8, n_chunks))
    initial, schedule = _zero_step_case()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_trajectories(initial, schedule, n_trajectories=64 * 150 - 7, seed=29)
    finally:
        sys.setswitchinterval(interval)
    want = reference_sample_trajectories(initial, schedule,
                                         n_trajectories=64 * 150 - 7, seed=29)
    np.testing.assert_array_equal(got.survival_lengths, want.survival_lengths)


class _StreamFailure(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_chunk_fails_the_call_and_leaves_no_thread(monkeypatch, workers):
    monkeypatch.setattr(zenocool.oracle, "_CHUNK_SIZE", 1024)
    monkeypatch.setattr(zenocool.oracle, "_workers", lambda n_chunks: workers)
    initial, schedule = _preset_case("fig7")
    default_rng = np.random.default_rng

    def failing_rng(seed):
        if seed.spawn_key == (2,):
            raise _StreamFailure("the third stream fails")
        return default_rng(seed)
    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    before = threading.active_count()
    with pytest.raises(_StreamFailure):
        sample_trajectories(initial, schedule, n_trajectories=5_000, seed=23)
    assert threading.active_count() == before


def test_workers_are_the_usable_cpus_at_most_one_per_chunk(monkeypatch):
    monkeypatch.setattr(zenocool.oracle.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert [zenocool.oracle._workers(n) for n in (1, 2, 3, 40)] == [1, 2, 3, 3]
    monkeypatch.delattr(zenocool.oracle.os, "sched_getaffinity")
    monkeypatch.setattr(zenocool.oracle.os, "cpu_count", lambda: 2)
    assert [zenocool.oracle._workers(n) for n in (1, 2, 3)] == [1, 2, 2]
    monkeypatch.setattr(zenocool.oracle.os, "cpu_count", lambda: None)
    assert zenocool.oracle._workers(3) == 1


def test_run_lengths_match_the_masked_inf_form():
    # log U in {0, < 0} against s_n = 1 and s_n < 1, plus s_n = 0, an s_n
    # rounded above 1 and a log s_n whose quotient overflows
    log_u = np.array([0.0, -0.7, 0.0, -0.7, 0.0, -0.7, 0.0, -0.7, -0.7])
    log_survival = np.array([0.0, 0.0, -0.2, -0.2, -np.inf, -np.inf, 1e-16, 1e-16, -1e-310])
    k = 5
    masked = np.full(log_u.size, np.inf)
    with np.errstate(over="ignore"):
        np.divide(log_u, log_survival, out=masked, where=log_survival < 0.0)
    want = np.minimum(np.floor(masked), k)
    mortal = _mortal_log_survival(log_survival)
    assert np.signbit(mortal[[0, 6]]).all() and not mortal[[0, 6]].any()
    with np.errstate(invalid="ignore"):
        assert np.isnan(log_u[0] / mortal[0])  # 0 / -0.0, which fmin takes to k
    got = _run_lengths(log_u.copy(), mortal, k)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, [5, 5, 0, 3, 0, 0, 5, 5, 5])


SEGMENT_PARAMS = st.one_of(
    st.sampled_from([CERTAIN_AND_IMPOSSIBLE, CONVENTIONAL_TENTH_PI]),
    st.builds(lambda g, t, f, d: PhysicalParams(g_m=g, tau=t, g_f=g * f, delta_e=g * d),
              st.floats(0.05, 1.5), st.floats(0.5, 5.0), st.floats(0.0, 3.0),
              st.floats(-3.0, 3.0)),
)
SEGMENTS = st.builds(Segment, st.sampled_from(VARIANTS), SEGMENT_PARAMS,
                     st.one_of(st.just(0), st.integers(1, 40)),
                     st.one_of(st.none(), st.floats(0.05, 20.0)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ground=st.sampled_from([1e-6, 0.01, 1.0]),
       weights=st.lists(st.sampled_from([0.0, 1e-6, 0.01, 0.3, 1.0]), max_size=39),
       segments=st.lists(SEGMENTS, min_size=1, max_size=4),
       n_trajectories=st.integers(1, 4 * 1024 + 100), seed=st.integers(0, 2**32))
# every trajectory but a rare ground one dies on its first measurement, so
# the chunks leave the loop before the last segment
@example(ground=1e-6, weights=[1.0],
         segments=[Segment("driven", CERTAIN_AND_IMPOSSIBLE, 4),
                   Segment("conventional", CONVENTIONAL_TENTH_PI, 0),
                   Segment("driven", CERTAIN_AND_IMPOSSIBLE, 3, until_n_bar=0.5)],
         n_trajectories=1025, seed=3)
def test_dense_lengths_match_the_choice_sampler(ground, weights, segments, n_trajectories,
                                                seed):
    initial = PopulationDistribution.from_probabilities(_normalized([ground, *weights]))
    schedule = ProtocolSchedule(tuple(segments))
    # a chunk of 1,024 dies out on a schedule where a chunk of 65,536 would not
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zenocool.oracle, "_CHUNK_SIZE", 1024)
        got = sample_trajectories(initial, schedule, n_trajectories=n_trajectories, seed=seed)
        want = reference_sample_trajectories(initial, schedule,
                                             n_trajectories=n_trajectories, seed=seed)
    np.testing.assert_array_equal(got.survival_lengths, want.survival_lengths)
    assert (got.n_steps, got.stream_ids) == (want.n_steps, want.stream_ids)


def _normalized(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _point_mass(n_levels, at):
    p = np.zeros(n_levels)
    p[at] = 1.0
    return p


def _geometric(n_levels, n_bar):
    return _normalized((n_bar / (1.0 + n_bar)) ** np.arange(n_levels))


def _levels(table, u):
    """``table.levels(u, ...)`` with scratch as the sampler passes it: the
    bucket in a chunk's int64 lengths, every array holding stale values."""
    lengths = np.full(u.size + 3, -7, dtype=np.int64)
    return table.levels(u, np.full(u.size, -1, dtype=np.intp), np.full(u.size, np.nan),
                        lengths[2:-1], np.ones(u.size, dtype=bool))


LEVEL_DISTRIBUTIONS = st.one_of(
    st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-9, 0.25, 1.0, 3.0]),
             min_size=1, max_size=300).filter(lambda w: sum(w) > 0.0).map(_normalized),
    st.integers(1, 500).map(lambda n: _point_mass(n, 0)),
    st.integers(1, 500).map(lambda n: _point_mass(n, n - 1)),
    st.just(np.ones(1)),
    st.builds(_geometric, st.integers(1, 23_190), st.floats(1e-3, 1e4)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=LEVEL_DISTRIBUTIONS, buckets=st.integers(1, 25_000),
       size=st.integers(1, 3_000), seed=st.integers(0, 2**63))
def test_level_draw_is_choice_on_the_same_stream(p, buckets, size, seed):
    table = _LevelTable(p, buckets)
    u = np.random.default_rng(seed).random(size)
    got = _levels(table, u)
    np.testing.assert_array_equal(got, np.random.default_rng(seed).choice(p.size, size, p=p))


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
def test_level_draw_at_bucket_edges(p, buckets):
    # "level-on-edge" puts a CDF step on the edge 5/6, where u = 5/6 - 1 ulp
    # gives u * 6 = 5 in floating point
    edges = np.arange(buckets + 1) / buckets
    u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                        [0.0, 1.0 - 2.0**-53]])
    u = u[(u >= 0.0) & (u < 1.0)]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    got = _levels(_LevelTable(p, buckets), u)
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("p", [
    _geometric(23_190, 2318.8),
    _normalized([0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 1e-300, 2.0, 0.0]),
    _point_mass(40, 39),
    np.ones(1),
    np.array([0.75, 0.25]),
], ids=["geometric-23190", "zeros", "mass-last", "one-level", "level-on-edge"])
@pytest.mark.parametrize("requested", [1, 2, 3, 6, 7, 40, 1000, 1024, 1025, 23_190])
def test_level_table_searches_its_own_power_of_two_edges(p, requested):
    table = _LevelTable(p, requested)
    assert table.m == 2 ** math.ceil(math.log2(requested))
    # "level-on-edge" puts a CDF step on the edge 3/4 of every table from 4 buckets up
    edges = np.arange(table.m + 1) / table.m
    u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    cdf = p.cumsum()
    cdf /= cdf[-1]
    got = _levels(table, u)
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("p, message", [
    ([0.5, math.nan, 0.5], "NaN"),
    ([1.5, -0.5], "nonnegative"),
    ([0.5, 0.5 + 1e-7], "sum"),
])
def test_level_table_rejects_what_choice_rejects(p, message):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), 4, p=p)
    with pytest.raises(ValueError, match=message):
        _LevelTable(np.array(p), len(p))


def test_level_table_accepts_a_sum_within_choice_tolerance():
    p = np.array([0.5, 0.5 + 1e-9])
    got = _levels(_LevelTable(p, 2), np.random.default_rng(3).random(1000))
    np.testing.assert_array_equal(got, np.random.default_rng(3).choice(2, 1000, p=p))

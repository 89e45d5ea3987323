"""Brute-force validation path and Monte Carlo survival sampling.

The rotating-frame Hamiltonian conserves the joint excitation number, so
it splits into independent blocks of dimension at most 3. Exact
propagators from eigendecomposition of those blocks give the
ground-projected matrix element without any closed-form input, which makes
them an independent oracle for the coefficient formulas. A trajectory
sampler turns the same per-level survival probabilities into
finite-statistics estimates of the cumulative success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams
from .fock import PopulationDistribution
from .coefficients import build_table, coefficient, switches
from .protocol import ProtocolSchedule, run


# Trajectories per independent RNG stream; bounds the sampler's scratch memory.
_CHUNK_SIZE = 65536


class OracleNumericalError(RuntimeError):
    """Eigen-solve or unitarity failure, with the offending block attached."""


@dataclass(frozen=True, eq=False)
class ExcitationBlock:
    """Hamiltonian restricted to one excitation-number subspace.

    ``n = 0`` is the one-dimensional span of |g,0>; ``n >= 1`` is spanned
    by {|g,n>, |e,n-1>, |f,n-1>}. Entries are in units of omega_m.
    """

    n: int
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if not np.array_equal(m, m.T):
            raise ValueError("block must be symmetric")


def block_hamiltonian(n: int, params: PhysicalParams) -> ExcitationBlock:
    """Assemble the n-excitation block.

    For ``n >= 1`` the matrix is
    ``[[0, g_m sqrt(n), 0], [g_m sqrt(n), delta_e, g_f], [0, g_f, 0]]``;
    ``g_f = 0`` leaves the familiar two-level (Jaynes-Cummings) block
    embedded in the top-left corner.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ExcitationBlock(0, ("|g,0>",), np.zeros((1, 1)))
    c = params.g_m * math.sqrt(n)
    matrix = np.array([
        [0.0, c, 0.0],
        [c, params.delta_e, params.g_f],
        [0.0, params.g_f, 0.0],
    ])
    labels = (f"|g,{n}>", f"|e,{n - 1}>", f"|f,{n - 1}>")
    return ExcitationBlock(n, labels, matrix)


def block_propagator(block: ExcitationBlock, tau: float) -> np.ndarray:
    """exp(-i H tau) for one block, via eigendecomposition.

    The blocks are real symmetric, so the eigenvectors are orthonormal and
    the result is unitary to rounding; no series truncation is involved.
    """
    try:
        evals, vecs = np.linalg.eigh(block.matrix)
    except np.linalg.LinAlgError as exc:
        raise OracleNumericalError(
            f"eigen-solve failed for block n={block.n}: {exc}\n{block.matrix!r}"
        ) from exc
    return (vecs * np.exp(-1j * evals * tau)) @ vecs.T


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def extract_vg_element(n: int, params: PhysicalParams,
                       tau: float | None = None) -> complex:
    """Ground-projected propagator element <g,n| exp(-i H tau) |g,n>.

    This is the per-level factor applied by one successful measurement,
    obtained without the closed forms. ``tau`` defaults to ``params.tau``.
    """
    u = block_propagator(block_hamiltonian(n, params),
                         params.tau if tau is None else tau)
    return complex(u[0, 0])


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Survival statistics of a batch of simulated measurement records."""

    seed: int
    n_trajectories: int
    n_steps: int
    survival_lengths: np.ndarray     # successful measurements before failure
    stream_ids: tuple[str, ...]
    exact_survival: np.ndarray       # deterministic P_g after N = 0..n_steps

    def estimates(self) -> np.ndarray:
        """Estimated survival probability after N = 0..n_steps measurements."""
        counts = np.bincount(self.survival_lengths, minlength=self.n_steps + 1)
        alive = self.n_trajectories - np.concatenate(([0], np.cumsum(counts[:-1])))
        return alive / self.n_trajectories

    def standard_errors(self) -> np.ndarray:
        p = self.estimates()
        return np.sqrt(p * (1.0 - p) / self.n_trajectories)


def sample_trajectories(initial: PopulationDistribution,
                        schedule: ProtocolSchedule, *,
                        n_trajectories: int, seed: int) -> TrajectoryBatch:
    """Monte Carlo rollout of the measurement record.

    Each trajectory draws a Fock level from the initial distribution and
    then survives each measurement with the level's squared coefficient
    magnitude s_n. Within a run of k measurements of one segment that
    probability is fixed, so the number of measurements survived before
    the first failure is geometric, P(L >= m) = s_n^m, and one uniform U
    per live trajectory gives it as ``floor(log U / log s_n)``: s_n = 1
    survives the run, s_n = 0 fails its first measurement. The cost is
    O(trajectories x segments), not O(trajectories x measurements).
    Chunks of ``_CHUNK_SIZE`` use independent spawned RNG streams, so
    results are reproducible from one seed and chunks could run in parallel.

    The schedule is realized once with the deterministic engine, so
    conditional switches count; trajectories then follow the realized
    sequence of segments, and that run's survival curve is returned as
    ``exact_survival``.
    """
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


_DRAW_KINDS = ("driven-detuned", "driven", "conventional-detuned", "conventional")


def compare_random_draws(n_draws: int, seed: int) -> list[dict]:
    """Closed form versus eigen-exponential on random parameter draws.

    Draws cycle through all four variants (detunings and drivings switched
    on and off) so every reduction of the one closed form is hit. Each
    row carries the raw complex difference and the magnitude (phase
    aligned) difference, plus the propagator's unitarity defect.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_draws):
        kind = _DRAW_KINDS[i % len(_DRAW_KINDS)]
        g_m = 10.0 ** rng.uniform(-5.0, -3.0)
        tau = rng.uniform(10.0, 1000.0)
        driving, detuned = switches(kind)
        g_f = rng.uniform(0.0, 100.0) * g_m if driving else 0.0
        delta = rng.uniform(-50.0, 50.0) * g_m if detuned else 0.0
        n = int(rng.integers(0, 201))
        params = PhysicalParams(g_m=g_m, tau=tau, g_f=g_f, delta_e=delta)
        closed = coefficient(kind, params, n)
        u = block_propagator(block_hamiltonian(n, params), params.tau)
        oracle_value = complex(u[0, 0])
        rows.append({
            "variant": kind,
            "n": n,
            "g_m": g_m,
            "g_f": g_f,
            "delta_e": delta,
            "tau": tau,
            "closed_form": [closed.real, closed.imag],
            "oracle": [oracle_value.real, oracle_value.imag],
            "abs_error": abs(closed - oracle_value),
            "phase_aligned_error": abs(abs(closed) - abs(oracle_value)),
            "unitarity_defect": unitarity_defect(u),
        })
    return rows

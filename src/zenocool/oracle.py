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
from functools import cached_property

import numpy as np

from .params import PhysicalParams
from .fock import CapacityError, PopulationDistribution
# build_table stays bound here, though unused: bench/ patches it by name
from .coefficients import _values, build_table, switches  # noqa: F401
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


def _block_matrices(n: np.ndarray, g_m, g_f, delta_e) -> np.ndarray:
    """(k, 3, 3) stack of the n-excitation blocks, n >= 1, from arrays of length k."""
    c = g_m * np.sqrt(n)
    m = np.zeros((c.size, 3, 3))
    m[:, 0, 1] = m[:, 1, 0] = c
    m[:, 1, 1] = delta_e
    m[:, 1, 2] = m[:, 2, 1] = g_f
    return m


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
    matrix = _block_matrices(np.array([n]), params.g_m, params.g_f, params.delta_e)[0]
    labels = (f"|g,{n}>", f"|e,{n - 1}>", f"|f,{n - 1}>")
    return ExcitationBlock(n, labels, matrix)


def _propagators(matrices: np.ndarray, tau: np.ndarray, n) -> np.ndarray:
    """exp(-i H tau) for each block of a (k, d, d) stack through one eigen-solve.

    ``tau`` holds each block's interval and ``n`` its excitation number,
    which names the block that makes the eigen-solve fail.
    """
    try:
        evals, vecs = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        for k, m in zip(n, matrices):  # solve each alone to find the culprit
            try:
                np.linalg.eigh(m)
            except np.linalg.LinAlgError:
                raise OracleNumericalError(
                    f"eigen-solve failed for block n={int(k)}: {exc}\n{m!r}") from exc
        raise OracleNumericalError(
            f"eigen-solve failed for blocks n={[int(k) for k in n]}: {exc}") from exc
    phase = np.exp(-1j * evals * tau[:, None])
    return (vecs * phase[:, None, :]) @ vecs.swapaxes(-1, -2)


def block_propagator(block: ExcitationBlock, tau: float) -> np.ndarray:
    """exp(-i H tau) for one block, via eigendecomposition.

    The blocks are real symmetric, so the eigenvectors are orthonormal and
    the result is unitary to rounding; no series truncation is involved.
    """
    return _propagators(block.matrix[None], np.array([tau]), [block.n])[0]


def unitarity_defect(u: np.ndarray):
    """Frobenius norm of u^H u - 1: a float for one matrix, an array for a stack."""
    d = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]),
                       axis=(-2, -1))
    return float(d) if d.ndim == 0 else d


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

    @cached_property
    def _alive(self) -> np.ndarray:
        """Trajectories alive after N = 0..n_steps measurements, counted once."""
        counts = np.bincount(self.survival_lengths, minlength=self.n_steps + 1)
        return self.n_trajectories - np.concatenate(([0], np.cumsum(counts[:-1])))

    def estimates(self) -> np.ndarray:
        """Estimated survival probability after N = 0..n_steps measurements."""
        return self._alive / self.n_trajectories

    def standard_errors(self) -> np.ndarray:
        p = self.estimates()
        return np.sqrt(p * (1.0 - p) / self.n_trajectories)


# numpy's Generator.choice accepts probabilities that sum to 1 within this.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


class _LevelTable:
    """Inverse CDF of a level distribution, searched through a guide table.

    ``levels(u)`` gives ``cdf.searchsorted(u, side="right")`` over the CDF
    that numpy's ``Generator.choice`` builds, so the uniforms of
    ``Generator.random(size)`` map to the levels that
    ``Generator.choice(p.size, size, p=p)`` draws from the same stream, bit
    for bit. The guide table (Chen's method) splits [0, 1) into ``m``
    buckets; a u in [j/m, (j+1)/m) has its level in [guide[j], guide[j+1]],
    so one comparison resolves a bucket that spans at most one level and
    only the other draws are binary-searched. The checks on ``p`` are
    choice's.
    """

    def __init__(self, p: np.ndarray, m: int):
        p = np.asarray(p, dtype=float)
        total = p.sum()
        if np.isnan(total):
            raise ValueError("level probabilities contain NaN")
        if np.any(p < 0.0):
            raise ValueError("level probabilities must be nonnegative")
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(f"level probabilities sum to {total!r}, not 1")
        self.cdf = p.cumsum()
        self.cdf /= self.cdf[-1]
        self.m = m
        edges = np.arange(m + 1) / m
        guide = self.cdf.searchsorted(edges, side="right")
        self.lower_edge = edges[:-1]
        self.first = guide[:-1]
        self.wide = np.diff(guide) > 1

    def levels(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the level of each uniform in ``u`` (values in [0, 1)) to ``out``."""
        # u * m rounds below m for every double u < 1, but it can round up
        # to j for a u just below the edge j/m: such a u moves down a bucket
        bucket = np.multiply(u, self.m).astype(np.intp)
        bucket -= u < self.lower_edge[bucket]
        # every index is in range; mode "raise" would copy through a temporary
        np.take(self.first, bucket, out=out, mode="clip")
        out += self.cdf[out] <= u
        rest = np.flatnonzero(self.wide[bucket])
        out[rest] = self.cdf.searchsorted(u[rest], side="right")
        return out


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

    Each chunk reads its levels through ``_LevelTable``, with min(levels,
    n_trajectories) buckets, from one uniform per trajectory, so they and
    every later draw are those of ``Generator.choice(p.size, size, p=p)`` on
    the same stream.

    The schedule is realized once with the deterministic engine, so
    conditional switches count; trajectories then follow the realized
    sequence of segments, and that run's survival curve is returned as
    ``exact_survival``.

    Raises
    ------
    CapacityError
        If the survival lengths of ``n_trajectories`` cannot be allocated.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    try:
        lengths = np.empty(n_trajectories, dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise CapacityError(
            f"n_trajectories={n_trajectories} needs {8 * n_trajectories} bytes "
            f"of survival lengths, which cannot be allocated"
        ) from exc
    realized = run(initial, schedule)
    n_steps = len(realized.records) - 1
    runs = [(realized.tables[seg_id].log_survival, k)
            for seg_id, k in enumerate(realized.steps_run) if k]

    p = initial.probabilities()
    p = p / p.sum()
    table = _LevelTable(p, min(p.size, n_trajectories))
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(math.ceil(n_trajectories / _CHUNK_SIZE))
    width = min(_CHUNK_SIZE, n_trajectories)
    uniform = np.empty(width)
    chunk_levels = np.empty(width, dtype=np.intp)
    log_s = np.empty(width)
    survived = np.empty(width)
    start = 0
    for child in children:
        size = min(_CHUNK_SIZE, n_trajectories - start)
        rng = np.random.default_rng(child)
        levels = table.levels(rng.random(out=uniform[:size]), chunk_levels[:size])
        chunk_lengths = lengths[start:start + size]
        chunk_lengths.fill(n_steps)
        live = None  # positions of the live trajectories; None while all live
        offset = 0
        for log_survival, k in runs:
            n = levels.size
            if n == 0:
                break
            # every index is in range; mode "raise" would copy through a temporary
            ls = np.take(log_survival, levels, out=log_s[:n], mode="clip")
            log_u = rng.random(out=uniform[:n])
            np.negative(log_u, out=log_u)
            np.log1p(log_u, out=log_u)  # log U, U in (0, 1]
            sv = survived[:n]
            sv.fill(np.inf)
            with np.errstate(over="ignore"):
                np.divide(log_u, ls, out=sv, where=ls < 0.0)
            np.floor(sv, out=sv)
            dies = sv < k
            died = np.flatnonzero(dies)
            chunk_lengths[died if live is None else live[died]] = (
                offset + sv[died].astype(np.int64))
            kept = np.flatnonzero(~dies)
            live = kept if live is None else live[kept]
            levels = levels[kept]
            offset += k
        start += size
    stream_ids = tuple(str(c.spawn_key) for c in children)
    return TrajectoryBatch(seed, n_trajectories, n_steps, lengths, stream_ids,
                           realized.records.survival_probability)


_DRAW_KINDS = ("driven-detuned", "driven", "conventional-detuned", "conventional")


def compare_random_draws(n_draws: int, seed: int) -> list[dict]:
    """Closed form versus eigen-exponential on random parameter draws.

    Draws cycle through all four variants (detunings and drivings switched
    on and off) so every reduction of the one closed form is hit; they are
    a pure function of ``seed``. All draws are evaluated together: one
    closed-form call and one eigen-solve per block size (1 for n = 0, 3
    otherwise). Each row carries the raw complex difference and the
    magnitude (phase aligned) difference, plus the propagator's unitarity
    defect.
    """
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
    n, g_m, tau, g_f, delta = np.array([d[1:] for d in draws]).reshape(-1, 5).T
    # the draws switch off what their variant does, so no switching is needed
    closed = _values(g_m * tau, g_f * tau, delta * tau, n)
    oracle = np.empty(n_draws, dtype=complex)
    defect = np.empty(n_draws)
    ground = n == 0
    for rows, matrices in (
            (ground, np.zeros((np.count_nonzero(ground), 1, 1))),
            (~ground, _block_matrices(n[~ground], g_m[~ground], g_f[~ground],
                                      delta[~ground]))):
        if matrices.size:
            u = _propagators(matrices, tau[rows], n[rows])
            oracle[rows] = u[:, 0, 0]
            defect[rows] = unitarity_defect(u)
    return [{
        "variant": kind,
        "n": n_i,
        "g_m": g_m_i,
        "g_f": g_f_i,
        "delta_e": delta_i,
        "tau": tau_i,
        "closed_form": [c.real, c.imag],
        "oracle": [o.real, o.imag],
        "abs_error": abs(c - o),
        "phase_aligned_error": abs(abs(c) - abs(o)),
        "unitarity_defect": d,
    } for (kind, n_i, g_m_i, tau_i, g_f_i, delta_i), c, o, d
        in zip(draws, closed.tolist(), oracle.tolist(), defect.tolist())]

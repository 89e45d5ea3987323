"""Brute-force validation path and Monte Carlo survival sampling.

The rotating-frame Hamiltonian conserves the joint excitation number, so
it splits into independent blocks of dimension at most 3. Exact
propagators from one batched eigendecomposition of those blocks give the
ground-projected matrix element without any closed-form input, which makes
them an independent oracle for the coefficient formulas;
``compare_random_draws`` checks the closed form against it. A trajectory
sampler turns the same per-level survival probabilities into
finite-statistics estimates of the cumulative success probability.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import CapacityError, PopulationDistribution
# build_table stays bound here, though unused: bench/ patches it by name
from .coefficients import _values, build_table, switches  # noqa: F401
from .protocol import ProtocolSchedule, _survival_curve, _tables


# Trajectories per independent RNG stream; bounds the sampler's scratch memory.
_CHUNK_SIZE = 65536


def _workers(n_chunks: int) -> int:
    """Threads for ``n_chunks`` sampler chunks: the CPUs this process may
    use, and at most one per chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_chunks)


class OracleNumericalError(RuntimeError):
    """Eigen-solve or unitarity failure, with the offending block attached."""


def _block_matrices(n: np.ndarray, g_m, g_f, delta_e) -> np.ndarray:
    """(k, 3, 3) stack of the n-excitation blocks, n >= 1, from arrays of length k."""
    c = g_m * np.sqrt(n)
    m = np.zeros((c.size, 3, 3))
    m[:, 0, 1] = m[:, 1, 0] = c
    m[:, 1, 1] = delta_e
    m[:, 1, 2] = m[:, 2, 1] = g_f
    return m


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


def unitarity_defect(u: np.ndarray) -> np.ndarray:
    """Frobenius norm of u^H u - 1 for each matrix of a (..., d, d) stack."""
    return np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]),
                          axis=(-2, -1))


def _oracle_elements(n: np.ndarray, g_m, tau, g_f, delta_e):
    """<g,n| exp(-i H tau) |g,n> and the propagator's unitarity defect per element.

    The arguments are arrays of one shape, one draw per element. Each block
    size is solved once (1 for n = 0, 3 otherwise), without any closed form.
    """
    elements = np.empty(n.shape, dtype=complex)
    defects = np.empty(n.shape)
    ground = n == 0
    for rows, matrices in (
            (ground, np.zeros((np.count_nonzero(ground), 1, 1))),
            (~ground, _block_matrices(n[~ground], g_m[~ground], g_f[~ground],
                                      delta_e[~ground]))):
        if matrices.size:
            u = _propagators(matrices, tau[rows], n[rows])
            elements[rows] = u[:, 0, 0]
            defects[rows] = unitarity_defect(u)
    return elements, defects


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
    buckets, the smallest power of two at or above the requested count;
    a u in [j/m, (j+1)/m) has its level in [guide[j], guide[j+1]], so one
    comparison resolves a bucket that spans at most one level and only the
    other draws are binary-searched. With m a power of two, u * m and
    every edge j/m are exact, so the bucket is floor(u * m) for every
    double u. The caller passes the scratch arrays, so threads can share
    one table. The checks on ``p`` are choice's.
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
        self.m = 1 << (m - 1).bit_length()
        guide = self.cdf.searchsorted(np.arange(self.m + 1) / self.m, side="right")
        self.first = guide[:-1]
        self.wide = np.diff(guide) > 1

    def levels(self, u: np.ndarray, out: np.ndarray, x: np.ndarray, bucket: np.ndarray,
               flag: np.ndarray) -> np.ndarray:
        """Write the level of each uniform in ``u`` (values in [0, 1)) to ``out``.

        ``x`` (float), ``bucket`` (integer) and ``flag`` (bool) are scratch
        of u's size.
        """
        np.multiply(u, self.m, out=x)
        np.copyto(bucket, x, casting="unsafe")
        # every index is in range; mode "raise" would copy through a temporary
        np.take(self.first, bucket, out=out, mode="clip")
        np.take(self.cdf, out, out=x, mode="clip")
        out += np.less_equal(x, u, out=flag)
        rest = np.flatnonzero(np.take(self.wide, bucket, out=flag, mode="clip"))
        out[rest] = self.cdf.searchsorted(u[rest], side="right")
        return out


def _mortal_log_survival(log_survival: np.ndarray) -> np.ndarray:
    """A copy of ``log_survival`` with -0.0 wherever s_n >= 1."""
    return np.where(log_survival < 0.0, log_survival, -0.0)


def _run_lengths(log_u: np.ndarray, log_s: np.ndarray, k: int) -> np.ndarray:
    """min(floor(log U / log s_n), k), written over ``log_u``.

    ``log_s`` is -0.0 where s_n >= 1, so log U < 0 there reads +inf and
    log U = 0 reads NaN, both of which ``fmin`` takes to k.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(log_u, log_s, out=log_u)
    np.floor(log_u, out=log_u)
    return np.fmin(log_u, k, out=log_u)


def _sample_chunk(rng, table: _LevelTable, runs, n_steps: int,
                  chunk_lengths: np.ndarray, scratch) -> None:
    """Survival lengths of one chunk's trajectories, drawn from ``rng``.

    ``runs`` holds each stepped segment's log survival (-0.0 where
    s_n >= 1) and step count. The level table's bucket scratch is
    ``chunk_lengths`` itself, which the segments overwrite later.
    """
    uniform, chunk_levels, log_s, flag = (a[:chunk_lengths.size] for a in scratch)
    levels = table.levels(rng.random(out=uniform), chunk_levels, log_s, chunk_lengths, flag)
    if not runs:
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
        sv = _run_lengths(log_u, ls, k)
        sv += offset
        # a survivor reads offset + k until a later segment overwrites it
        if live is None:
            np.copyto(chunk_lengths, sv, casting="unsafe")
        else:
            chunk_lengths[live] = sv
        offset += k
        if offset < n_steps:  # another segment follows
            kept = np.flatnonzero(sv == offset)
            live = kept if live is None else live[kept]
            levels = levels[kept]


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
    Chunks of ``_CHUNK_SIZE`` use independent spawned RNG streams and write
    their own slices of the lengths, so results are reproducible from one
    seed, and the chunks run in parallel on a thread pool, one thread per
    usable CPU, with the same results for any number of threads. A call
    of one chunk, or on one usable CPU, runs inline. Each thread holds one
    scratch set of three arrays of a chunk's size and one bool mask.

    Each chunk reads its levels through ``_LevelTable``, with the smallest
    power of two at or above min(levels, n_trajectories) buckets, from one
    uniform per trajectory, so they and every later draw are those of
    ``Generator.choice(p.size, size, p=p)`` on the same stream.

    Each segment writes the lengths of all its live trajectories in one
    pass: offset + min(floor(log U / log s_n), k), densely while every
    trajectory lives and by one scatter after that. A survivor reads
    offset + k, which the next segment overwrites; only before a next
    segment are the survivors picked out.

    The schedule is realized once by the engine's step loop without
    records (``protocol._survival_curve``), bitwise the survival column
    and segment steps of ``run``; that loop reads n_bar where a segment
    stops on it, so conditional switches count. Trajectories then follow
    the realized sequence of segments, and that survival curve is
    returned as ``exact_survival``.

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
    tables = _tables(schedule, initial.n_max)
    exact_survival, steps_run = _survival_curve(initial, schedule, tables)
    n_steps = exact_survival.size - 1
    runs = [(_mortal_log_survival(tables[seg_id].log_survival), k)
            for seg_id, k in enumerate(steps_run) if k]

    p = initial.probabilities()
    p = p / p.sum()
    table = _LevelTable(p, min(p.size, n_trajectories))
    children = np.random.SeedSequence(seed).spawn(math.ceil(n_trajectories / _CHUNK_SIZE))
    workers = _workers(len(children))
    width = min(_CHUNK_SIZE, n_trajectories)
    # one scratch set per thread, taken by a chunk while it runs (list pop
    # and append are atomic): uniforms, levels, log s_n, flags
    free = [(np.empty(width), np.empty(width, dtype=np.intp), np.empty(width),
             np.empty(width, dtype=bool)) for _ in range(workers)]

    def sample_chunk(child, start):
        scratch = free.pop()
        try:
            _sample_chunk(np.random.default_rng(child), table, runs, n_steps,
                          lengths[start:start + _CHUNK_SIZE], scratch)
        finally:
            free.append(scratch)

    starts = range(0, n_trajectories, _CHUNK_SIZE)
    if workers == 1:
        for child, start in zip(children, starts):
            sample_chunk(child, start)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            # reading every result raises a chunk's exception, if any
            list(pool.map(sample_chunk, children, starts))
    stream_ids = tuple(str(c.spawn_key) for c in children)
    return TrajectoryBatch(seed, n_trajectories, n_steps, lengths, stream_ids,
                           exact_survival)


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
        # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), bit for bit;
        # one draw at a time, since array draws would reorder the stream
        g_m = 10.0 ** (-5.0 + 2.0 * rng.random())
        tau = 10.0 + 990.0 * rng.random()
        driving, detuned = switches(kind)
        g_f = 100.0 * rng.random() * g_m if driving else 0.0
        delta = (-50.0 + 100.0 * rng.random()) * g_m if detuned else 0.0
        n = int(rng.integers(0, 201))
        draws.append((kind, n, g_m, tau, g_f, delta))
    n, g_m, tau, g_f, delta = np.array([d[1:] for d in draws]).reshape(-1, 5).T
    # the draws switch off what their variant does, so no switching is needed
    closed = _values(g_m * tau, g_f * tau, delta * tau, n)
    oracle, defect = _oracle_elements(n, g_m, tau, g_f, delta)
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

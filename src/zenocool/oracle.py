"""Brute-force validation path and Monte Carlo survival sampling.

The rotating-frame Hamiltonian conserves the joint excitation number, so
it splits into independent blocks of dimension at most 3. Exact
propagators from one batched eigendecomposition of those blocks give the
ground-projected matrix element without any closed-form input, which makes
them an independent oracle for the coefficient formulas;
``compare_random_draws`` checks the closed form against it. A trajectory
sampler draws the survival lengths of many independent measurement
records at once from the engine's exact survival curve, as
finite-statistics estimates of the cumulative success probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import PopulationDistribution
# build_table stays bound here, though unused: bench/ patches it by name
from .coefficients import _values, build_table, switches  # noqa: F401
from .protocol import ProtocolSchedule, _survival_curve, _tables


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
    counts: np.ndarray               # trajectories that survived exactly L = 0..n_steps
    stream_ids: tuple[str, ...]
    exact_survival: np.ndarray       # deterministic P_g after N = 0..n_steps

    @cached_property
    def survival_lengths(self) -> np.ndarray:
        """Each trajectory's survival length, in ascending order.

        Nothing in the package reads this; it stays only for the benchmark's
        ``useful_draw_ratio`` (bench/tracing.py), until that metric is
        dropped (ROADMAP item 1). It takes 8 bytes per trajectory.
        """
        return np.repeat(np.arange(self.n_steps + 1), self.counts)

    def estimates(self) -> np.ndarray:
        """Estimated survival probability after N = 0..n_steps measurements:
        the share of trajectories that survived at least N."""
        return self.counts[::-1].cumsum()[::-1] / self.n_trajectories

    def standard_errors(self) -> np.ndarray:
        p = self.estimates()
        return np.sqrt(p * (1.0 - p) / self.n_trajectories)


def _length_probabilities(survival: np.ndarray) -> np.ndarray:
    """q_k = P(L = k) for k = 0..N of a survival curve: c_k - c_{k+1}, and
    c_N for k = N, where c is the curve over its first value, clipped to
    its running minimum."""
    c = np.minimum.accumulate(survival / survival[0])
    return np.append(c[:-1] - c[1:], c[-1])


# Generator.multinomial takes its count as a C long.
MAX_TRAJECTORIES = 2**63 - 1


def sample_trajectories(initial: PopulationDistribution,
                        schedule: ProtocolSchedule, *,
                        n_trajectories: int, seed: int) -> TrajectoryBatch:
    """Monte Carlo survival lengths of ``n_trajectories`` measurement records.

    A trajectory draws a Fock level from the initial distribution and then
    survives each measurement with the level's squared coefficient
    magnitude, so its survival length L has P(L >= k) = c_k, the exact
    survival curve P_g(k) over P_g(0). Independent trajectories therefore
    give a length histogram that is Multinomial(n_trajectories, q), with
    q_k = c_k - c_{k+1} for k < N and q_N = c_N, and one draw of it from
    ``np.random.default_rng(seed)`` replaces every per-trajectory draw:
    the cost is O(N), whatever the number of trajectories.

    A table admits |c_n| up to 1 + ``coefficients._MAG_TOL``, so the curve
    can rise; its running minimum is taken (:func:`_length_probabilities`),
    so every q_k >= 0, they sum to 1, and the estimates never rise with N.

    The schedule is realized once by the engine's step loop without
    records (``protocol._survival_curve``), bitwise the survival column
    and segment steps of ``run``; that loop reads n_bar where a segment
    stops on it, so conditional switches count. That survival curve is
    returned as ``exact_survival``.
    """
    if not 1 <= n_trajectories <= MAX_TRAJECTORIES:
        raise ValueError(f"n_trajectories must be in [1, {MAX_TRAJECTORIES}], "
                         f"got {n_trajectories}")
    exact_survival, _ = _survival_curve(initial, schedule,
                                        _tables(schedule, initial.n_max))
    counts = np.random.default_rng(seed).multinomial(n_trajectories,
                                                     _length_probabilities(exact_survival))
    # one stream: the root of the seed, whose spawn key is ()
    return TrajectoryBatch(seed, n_trajectories, exact_survival.size - 1, counts,
                           ("()",), exact_survival)


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

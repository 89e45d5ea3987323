"""Independent references for the protocol engine, shared by the tests.

The engine applies k measurements of a segment at once and reads its
observables from an amplitude view. The references here take the slow,
direct routes instead:

- :func:`step` applies one measurement to the log-weights, and
  :func:`mean_occupation` reads n_bar off the normalized populations;
- :func:`joint_run` trusts no 3x3 block: it builds the qubit-resonator
  Hamiltonian from ladder and transition operators
  (:func:`joint_hamiltonian`), forms the resonator operator
  G = <g|exp(-iH tau)|g> from one dense ``eigh``, and evolves the full
  resonator density matrix as rho <- G rho G^dagger.

This module is not named ``reference``: ``bench/test_bench.py`` imports
``bench/reference.py`` under that top-level name.
"""

from functools import cache

import numpy as np

from zenocool import CoefficientTable, PhysicalParams, PopulationDistribution, ProtocolSchedule
from zenocool.coefficients import variant_params
from zenocool.fock import logsumexp


def step(d: PopulationDistribution, table: CoefficientTable) -> PopulationDistribution:
    """Apply one successful ground-state measurement.

    Each log-weight grows by 2 log|coef_n|; a zero coefficient kills the
    level outright (log-zero weight). The new total mass is the updated
    cumulative survival probability. ``run`` applies k of these at once
    as ``lw + k log_survival``; this one-step form is its reference.
    """
    if table.n_max < d.n_max:
        raise ValueError(
            f"table covers n <= {table.n_max} but distribution needs {d.n_max}"
        )
    lw = d.log_weights + table.log_survival[: d.n_max + 1]
    return PopulationDistribution(lw, norm_log=logsumexp(lw))


def mean_occupation(d: PopulationDistribution) -> float:
    """Mean Fock number of the normalized view, sum_n n p_n."""
    p = d.probabilities()
    return float(np.dot(np.arange(p.size, dtype=float), p))


def joint_hamiltonian(params: PhysicalParams, n_max: int) -> np.ndarray:
    """Full truncated Hamiltonian from ladder and transition operators.

    Basis ordering is level-major: index = level * (n_max + 1) + photon
    with levels (g, e, f). Used to cross-check the block bookkeeping and,
    through :func:`ground_operator`, whole runs.
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


@cache
def ground_operator(variant: str, params: PhysicalParams, n_max: int) -> np.ndarray:
    """G = <g|exp(-iH tau)|g> on photons 0..n_max, from a dense ``eigh`` of H.

    |g, n> couples only to |e, n - 1>, so the truncation at n_max cuts no
    path out of the kept |g> levels. G is not assumed diagonal.
    """
    p = variant_params(variant, params)
    energies, vectors = np.linalg.eigh(joint_hamiltonian(p, n_max))
    g_rows = vectors[: n_max + 1]
    return (g_rows * np.exp(-1j * p.tau * energies)) @ g_rows.T


def _observe(rho: np.ndarray) -> list[float]:
    """[n_bar, F_ground, P_g, F_th] of an unnormalized density matrix.

    P_g is the trace. F_th is the fidelity of the diagonal with the
    untruncated thermal state of the same n_bar, (sum_n sqrt(p_n q_n))^2.
    """
    diag = rho.diagonal().real
    trace = float(diag.sum())
    p = diag / trace
    n = np.arange(p.size, dtype=float)
    n_bar = float(np.dot(n, p))
    q = (n_bar / (1.0 + n_bar)) ** n / (1.0 + n_bar)  # 0 ** 0 = 1: the ground state at n_bar 0
    return [n_bar, float(p[0]), trace, float(np.sum(np.sqrt(p * q)) ** 2)]


def joint_run(rho: np.ndarray, schedule: ProtocolSchedule
              ) -> tuple[np.ndarray, list[int], float]:
    """Records of ``schedule`` from rho <- G rho G^dagger, one measurement at a time.

    ``rho`` is the resonator's start on photons 0..n_max. Returns the rows
    [n_bar, F_ground, P_g, F_th] (the first is the start), each row's
    segment, and the largest off-diagonal |rho_mn| over the trace after
    any measurement. A segment stops early once n_bar <= its ``until_n_bar``;
    the norm floor of ``run`` is not modelled.
    """
    n_max = rho.shape[0] - 1
    off = ~np.eye(n_max + 1, dtype=bool)
    rows, segments, worst = [_observe(rho)], [0], 0.0
    for seg_id, seg in enumerate(schedule.segments):
        if not seg.steps:
            continue
        g = ground_operator(seg.variant, seg.params, n_max)
        g_dagger = g.conj().T
        for _ in range(seg.steps):
            rho = g @ rho @ g_dagger
            rows.append(_observe(rho))
            segments.append(seg_id)
            worst = max(worst, float(np.abs(rho[off]).max()) / rows[-1][2])
            if seg.until_n_bar is not None and rows[-1][0] <= seg.until_n_bar:
                break
    return np.array(rows), segments, worst

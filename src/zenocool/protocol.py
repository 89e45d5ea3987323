"""Repeated-measurement protocol engine.

The post-measurement operator is diagonal in the Fock basis and the
initial state is diagonal, so a run never materializes a density matrix:
each measurement multiplies the population weights elementwise by the
squared coefficient magnitudes, exactly and in O(n_max) per step. Within a
segment that factor is one fixed operator, so the engine adds the
segment's per-level log survival to one log-weight array in place. All
observables (mean occupancy, ground fidelity, cumulative survival
probability, effective temperature, thermality) are evaluated after every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import HBAR, KB, PhysicalParams
from .fock import (
    DEFAULT_HARD_CAP,
    LOG_TINY,
    PopulationDistribution,
    ThermalSpec,
    logsumexp,
    thermal_distribution,
)
from .coefficients import (
    CoefficientTable,
    build_table,
    cooling_free_report,
    switches,
)

DEFAULT_NORM_LOG_FLOOR = -700.0

SWEEP_AXES = ("g_f", "T", "tau", "N")


@dataclass(frozen=True)
class Segment:
    """One schedule leg: a variant applied for at most ``steps`` measurements.

    If ``until_n_bar`` is set, the segment also ends as soon as the
    conditional mean occupancy drops to that threshold.
    """

    variant: str
    params: PhysicalParams
    steps: int
    until_n_bar: float | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.until_n_bar is not None and not self.until_n_bar > 0.0:
            raise ValueError(f"until_n_bar must be positive, got {self.until_n_bar}")


@dataclass(frozen=True)
class ProtocolSchedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        object.__setattr__(self, "segments", segs)

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self.segments)


@dataclass(frozen=True)
class StepRecord:
    """Observables after measurement number ``step`` (0 = initial state)."""

    step: int
    n_bar: float
    ground_fidelity: float
    survival_probability: float
    t_eff_kelvin: float
    thermal_fidelity: float
    segment: int


@dataclass(frozen=True)
class RunResult:
    records: tuple[StepRecord, ...]
    final: PopulationDistribution
    terminated_early: bool


@dataclass(frozen=True)
class AsymptoticReport:
    """Infinite-measurement limit of a variant on an initial distribution.

    The protected indices are generically non-integer, so two readings are
    reported: ``survival_ideal``/``n_bar_ideal`` evaluate the limit formula
    at the real indices with log-linearly interpolated populations, while
    ``survival_strict``/``n_bar_strict`` count only integer levels whose
    coefficient magnitude is 1 within 1e-12.
    """

    survival_ideal: float
    n_bar_ideal: float
    survival_strict: float
    n_bar_strict: float
    contributions: tuple[tuple[float, float], ...]  # (real index, weight)


def step(d: PopulationDistribution, table: CoefficientTable) -> PopulationDistribution:
    """Apply one successful ground-state measurement.

    Each log-weight grows by 2 log|coef_n|; a zero coefficient kills the
    level outright (log-zero weight). The new total mass is the updated
    cumulative survival probability. :func:`run` applies the same update
    in place; this one-step form is its reference.
    """
    if table.n_max < d.n_max:
        raise ValueError(
            f"table covers n <= {table.n_max} but distribution needs {d.n_max}"
        )
    lw = d.log_weights + table.log_survival[: d.n_max + 1]
    return PopulationDistribution(lw, norm_log=logsumexp(lw))


def effective_temperature(n_bar: float, omega_m: float) -> float:
    """Temperature of the thermal state with the given mean occupancy.

    ``hbar omega_m / (kB ln(1 + 1/n_bar))`` in kelvin; occupancies below
    1e-15 map to 0 K.
    """
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be nonnegative, got {n_bar}")
    if not omega_m > 0.0:
        raise ValueError(f"omega_m must be positive, got {omega_m}")
    if n_bar < 1e-15:
        return 0.0
    return HBAR * omega_m / (KB * math.log1p(1.0 / n_bar))


class _Workspace:
    """Scratch arrays for the observables of one truncation, reused every step.

    Fresh temporaries of n_max + 1 doubles per step cost more in page
    faults than the arithmetic on them, so every array op writes here.
    """

    def __init__(self, size: int):
        self.levels = np.arange(size, dtype=float)
        self.x = np.empty(size)
        self.w = np.empty(size)
        self.t = np.empty(size)
        self.live = np.empty(size, dtype=bool)

    def exp(self, x: np.ndarray) -> np.ndarray:
        """exp(x) into ``w``, with 0 wherever x <= LOG_TINY."""
        np.greater(x, LOG_TINY, out=self.live)
        self.w.fill(0.0)
        return np.exp(x, out=self.w, where=self.live)


def _geometric_fidelity(x: np.ndarray, log_mass: float, n_bar_q: float,
                        ws: _Workspace) -> float:
    """Uhlmann fidelity of diagonal p = exp(x - log_mass) against a geometric state.

    The geometric state q_n = r^n / sum_{m<=M} r^m, r = n_bar_q / (1 +
    n_bar_q), is truncated to the same M = n_max; its normaliser has the
    closed form (1 - r^(M+1)) / (1 - r). sqrt(p_n q_n) is taken as
    exp((log p_n + log q_n) / 2). Overwrites ``ws.t`` and ``ws.w``.
    """
    if n_bar_q <= 0.0:
        return math.exp(x[0] - log_mass)
    log_r = -math.log1p(1.0 / n_bar_q)
    log_norm = math.log(math.expm1(x.size * log_r) / math.expm1(log_r))
    half = np.multiply(ws.levels, log_r, out=ws.t)
    half += x
    half -= log_mass + log_norm
    half *= 0.5
    return float(ws.exp(half).sum() ** 2)


def _observables(idx: int, lw: np.ndarray, segment_id: int, omega_m: float | None,
                 ws: _Workspace, norm_log: float | None = None
                 ) -> tuple[StepRecord, float]:
    """Every observable of the state with log-weights ``lw``, and its log mass.

    One max-shifted ``exp`` gives the populations, hence n_bar, the ground
    fidelity and the total mass; levels more than ``LOG_TINY`` below the
    largest weight count as empty. ``norm_log`` overrides the computed log
    mass where it is known exactly (the initial state).
    """
    shift = float(lw.max())  # NaN or +inf anywhere in lw shows up here
    if math.isnan(shift) or shift == math.inf:
        raise ValueError("log_weights must be finite or -inf")
    if shift == -math.inf:
        raise ValueError("distribution has no surviving population")
    x = np.subtract(lw, shift, out=ws.x)
    w = ws.exp(x)
    mass = float(w.sum())
    log_mass = shift + math.log(mass)
    if norm_log is None:
        norm_log = log_mass
    n_bar = float(np.multiply(ws.levels, w, out=ws.t).sum()) / mass
    if omega_m is not None:
        t_eff = effective_temperature(n_bar, omega_m)
    else:
        t_eff = math.nan
    record = StepRecord(
        step=idx,
        n_bar=n_bar,
        ground_fidelity=math.exp(x[0]) / mass,
        survival_probability=math.exp(norm_log),
        t_eff_kelvin=t_eff,
        thermal_fidelity=_geometric_fidelity(x, math.log(mass), n_bar, ws),
        segment=segment_id,
    )
    return record, norm_log


def run(initial: PopulationDistribution, schedule: ProtocolSchedule) -> RunResult:
    """Evolve ``initial`` through the schedule, one record per measurement.

    The first record is the untouched initial state. A segment ends when
    its step budget is exhausted or its ``until_n_bar`` threshold is
    reached on the conditional state, whichever comes first. If the
    cumulative survival probability underflows
    ``exp(DEFAULT_NORM_LOG_FLOOR)`` the run stops early with
    ``terminated_early`` set. A measurement that kills every populated
    level (all coefficients zero there) leaves no conditional state, and
    raises ``ValueError("distribution has no surviving population")``
    instead; a thermal start cannot reach this, because c_0 = 1.

    Each measurement adds the segment's log survival to the log-weights in
    place; only the final state is wrapped as a distribution. A NaN or
    +inf weight propagates into the maximum the observables take, so the
    step that makes one fails as the distribution's own check would.
    """
    omega_m = schedule.segments[0].params.omega_m
    lw = initial.log_weights.copy()
    ws = _Workspace(lw.size)
    rec, norm_log = _observables(0, lw, 0, omega_m, ws, initial.norm_log)
    records = [rec]
    idx = 0
    terminated = False
    for seg_id, seg in enumerate(schedule.segments):
        if terminated:
            break
        if seg.steps == 0:
            continue
        log_survival = build_table(seg.variant, seg.params, initial.n_max).log_survival
        for _ in range(seg.steps):
            lw += log_survival
            idx += 1
            rec, norm_log = _observables(idx, lw, seg_id, seg.params.omega_m, ws)
            records.append(rec)
            if norm_log < DEFAULT_NORM_LOG_FLOOR:
                terminated = True
                break
            if seg.until_n_bar is not None and rec.n_bar <= seg.until_n_bar:
                break
    return RunResult(tuple(records), PopulationDistribution(lw, norm_log=norm_log),
                     terminated)


def _interpolate_log_weight(log_p: np.ndarray, index: float) -> float:
    """Log-linear interpolation of a log-probability array at a real index."""
    lo = int(math.floor(index))
    hi = min(lo + 1, log_p.size - 1)
    frac = index - lo
    a, b = log_p[lo], log_p[hi]
    if frac == 0.0 or lo == hi:
        return float(a)
    if not (np.isfinite(a) and np.isfinite(b)):
        return -math.inf
    return float((1.0 - frac) * a + frac * b)


def asymptotic_limit(initial: PopulationDistribution, variant: str,
                     params: PhysicalParams) -> AsymptoticReport:
    """Large-measurement-number limit of survival probability and occupancy.

    Only the ground state and the cooling-free indices survive infinitely
    many measurements; the limiting survival probability is the initial
    weight they carry and the limiting occupancy is their weighted mean.
    """
    log_p = initial.log_weights - initial.norm_log
    p0 = float(np.exp(log_p[0]))
    report = cooling_free_report(variant, params, initial.n_max)

    contributions = []
    ideal_mass, ideal_moment = p0, 0.0
    strict_mass, strict_moment = p0, 0.0
    for entry in report.entries:
        if entry.index <= 0.0:
            continue
        w = math.exp(_interpolate_log_weight(log_p, entry.index))
        contributions.append((entry.index, w))
        ideal_mass += w
        ideal_moment += entry.index * w
        if entry.coef_magnitude >= 1.0 - 1e-12:
            w_int = float(np.exp(log_p[entry.nearest]))
            strict_mass += w_int
            strict_moment += entry.nearest * w_int
    return AsymptoticReport(
        survival_ideal=ideal_mass,
        n_bar_ideal=ideal_moment / ideal_mass,
        survival_strict=strict_mass,
        n_bar_strict=strict_moment / strict_mass,
        contributions=tuple(contributions),
    )


def initial_state(thermal: ThermalSpec, schedule: ProtocolSchedule, *,
                  hard_cap: int = DEFAULT_HARD_CAP) -> PopulationDistribution:
    """Thermal start of a run, truncated by the thermal tail bound alone.

    The schedule does not enter the truncation. c_0 = 1, so the ground
    weight never decays and every other weight only shrinks: the levels
    cut at ``thermal.epsilon_tail`` hold at most epsilon_tail / P_g <=
    epsilon_tail * (n_bar_th + 1) of the conditional mass after any number
    of measurements, wherever the cooling-free levels lie. Raises
    ``CapacityError`` if the thermal tail needs more than ``hard_cap``
    levels.
    """
    return thermal_distribution(thermal, hard_cap=hard_cap)


@dataclass(frozen=True)
class SweepPoint:
    axis: str
    value: float
    record: StepRecord | None
    error: str | None = None


def _apply_axis(axis: str, value: float, thermal: ThermalSpec,
                schedule: ProtocolSchedule) -> tuple[ThermalSpec, ProtocolSchedule]:
    if axis == "g_f":
        # Grid values are driving strengths in units of g_m; segments whose
        # variant keeps the driving off are left as they are.
        segs = tuple(
            replace(s, params=replace(s.params, g_f=value * s.params.g_m))
            if switches(s.variant)[0] else s
            for s in schedule.segments
        )
        return thermal, ProtocolSchedule(segs)
    if axis == "T":
        if thermal.omega_m is None:
            raise ValueError("temperature sweep needs a thermal spec with omega_m")
        return replace(thermal, temperature=value, n_bar_th=None), schedule
    if axis == "tau":
        segs = tuple(replace(s, params=replace(s.params, tau=value))
                     for s in schedule.segments)
        return thermal, ProtocolSchedule(segs)
    if axis == "N":
        if value != int(value):
            raise ValueError(f"N must be a whole number of measurements, got {value}")
        segs = schedule.segments[:-1] + (replace(schedule.segments[-1],
                                                 steps=int(value)),)
        return thermal, ProtocolSchedule(segs)
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(axis: str, values, thermal: ThermalSpec, schedule: ProtocolSchedule, *,
          hard_cap: int = DEFAULT_HARD_CAP) -> list[SweepPoint]:
    """Independent runs over a parameter grid, keeping terminal observables.

    A failing grid point is recorded with its error message and the sweep
    moves on.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep grid must be nonempty")
    points = []
    for value in values:
        try:
            th, sched = _apply_axis(axis, float(value), thermal, schedule)
            init = initial_state(th, sched, hard_cap=hard_cap)
            result = run(init, sched)
            points.append(SweepPoint(axis, float(value), result.records[-1]))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            points.append(SweepPoint(axis, float(value), None, f"{type(exc).__name__}: {exc}"))
    return points

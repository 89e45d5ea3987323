"""Repeated-measurement protocol engine.

The post-measurement operator is diagonal in the Fock basis and the
initial state is diagonal, so a run never materializes a density matrix:
each measurement multiplies the population weights elementwise by the
squared coefficient magnitudes, exactly and in O(n_max) per step. Within a
segment that factor is one fixed operator, so the engine adds the
segment's per-level log survival to one log-weight array in place. All
observables (mean occupancy, ground fidelity, cumulative survival
probability, effective temperature, thermality) are evaluated after every
step. A sweep keeps only each grid point's last record, so it reads that
off the closed form: k_i measurements of segment i leave the log-weights
lw_0 + sum_i k_i log_survival_i, observed once.

The log-weights lw are the state of record, updated exactly as the
one-step reference :func:`step` updates them. The observables come from
an amplitude view of the same state, u_n = exp((lw_n - top) / 2), which
each measurement multiplies by |c_n|; mass, n_bar and ground fidelity are
then sums of products of u, with no ``exp`` per step. The view is built
from lw with one ``exp`` at the start of a run, and rebuilt whenever its
mass u.u falls below ``_MIN_VIEW_MASS``, so it stays exact over any dynamic
range. It is not rebuilt at a segment switch: lw carries more rounding
than u (each step rounds a log-weight of tens of e-folds), and a rebuild
would hand it to the records: at the switch of ``fig7`` it moved the
final n_bar by 7e-15 relative, against 8e-16 without.

The thermal fidelity's reference is the untruncated thermal state
rho^(2n) / Z, rho^2 = n_bar / (1 + n_bar), Z = 1 + n_bar, so it depends on
the state alone and not on n_max. Its overlap with the state uses the same
708 e-fold convention as every sum of exponentials here
(``fock.LOG_TINY``): rho^n is evaluated as rho^(128 a) rho^b, and a term
with a factor more than 708 e-folds down is dropped, which moves the
fidelity's square root by less than exp(-708).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import HBAR, KB, PhysicalParams
from .fock import (
    DEFAULT_HARD_CAP,
    CapacityError,
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

# The amplitude view of a run is rebuilt from the log-weights once its mass
# falls below this. Its largest weight is then at least this over n_max + 1,
# so a weight or product of amplitudes keeps full precision down to
# tiny * (n_max + 1) / _MIN_VIEW_MASS ~ 1e-292 (n_max + 1) of the mass. A
# thermal start never rebuilds: c_0 = 1 keeps its top amplitude u_0 at 1.
_MIN_VIEW_MASS = 1e-16

_DOT_CHUNK = 8192
_BLOCK = 128

SWEEP_AXES = ("g_f", "T", "tau", "N", "switch")


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
        switches(self.variant)
        if self.steps < 0:
            raise ValueError(f"'steps' must be nonnegative, got {self.steps}")
        if self.until_n_bar is not None and not self.until_n_bar > 0.0:
            raise ValueError(f"'until_n_bar' must be positive, got {self.until_n_bar}")


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


# Observables after measurement number ``step`` (0 = initial state).
StepRecord = np.dtype([
    ("step", np.int64),
    ("n_bar", np.float64),
    ("ground_fidelity", np.float64),
    ("survival_probability", np.float64),
    ("t_eff_kelvin", np.float64),
    ("thermal_fidelity", np.float64),
    ("segment", np.int64),
])


@dataclass(frozen=True, eq=False)
class RunResult:
    records: np.recarray  # read-only, dtype StepRecord
    final: PopulationDistribution
    terminated_early: bool
    steps_run: tuple[int, ...]  # measurements each segment ran
    # each segment's operator (:func:`_tables`); None where it has zero steps
    tables: tuple[CoefficientTable | None, ...]


@dataclass(frozen=True)
class AsymptoticReport:
    """Infinite-measurement limit of a variant on an initial distribution.

    The protected indices are generically non-integer, so only integer
    levels whose coefficient magnitude is 1 within 1e-12 are counted.
    """

    survival_strict: float
    n_bar_strict: float


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b, in pieces of at most ``_DOT_CHUNK`` elements.

    OpenBLAS spreads a ddot of more than 10,000 elements over its thread
    pool; on a 2-core machine that doubled the CPU time and made a run at
    n_max 23,189 slower than one thread does.
    """
    if a.size <= _DOT_CHUNK:
        return float(a.dot(b))
    return float(sum(a[i:i + _DOT_CHUNK].dot(b[i:i + _DOT_CHUNK])
                     for i in range(0, a.size, _DOT_CHUNK)))


class _AmplitudeView:
    """u_n = exp((lw_n - top) / 2): square roots of the weights, scaled by the largest.

    :meth:`observe` rebuilds u from the log-weights (:meth:`refresh`)
    whenever its mass has fallen below ``_MIN_VIEW_MASS``; the grid starts
    empty, so the first call builds it. Levels more than ``LOG_TINY``
    below the largest amplitude are 0 in u until the next rebuild: u only
    shrinks and the mass stays above ``_MIN_VIEW_MASS`` until then, so
    their share stays below exp(2 LOG_TINY) / _MIN_VIEW_MASS.

    u is the head of a zero-padded grid of ``_BLOCK`` columns, level
    n = _BLOCK a + b at row a, column b, so that the thermal-fidelity
    overlap sum_a rho^(_BLOCK a) sum_b u_n rho^b is one matrix-vector
    product and two short ``exp`` calls instead of one ``exp`` per level.
    """

    def __init__(self, size: int):
        rows = -(-size // _BLOCK)
        self.grid = np.zeros((rows, _BLOCK))
        self.u = self.grid.reshape(-1)[:size]
        self.levels = np.arange(size, dtype=float)
        self.t = np.empty(size)
        self.top = 0.0
        # n = _BLOCK a + b: exponents b along a row and _BLOCK a down the rows
        self.col = np.arange(_BLOCK, dtype=float)
        self.row = np.arange(rows, dtype=float) * _BLOCK
        # rho^b and rho^(_BLOCK a); index 0 stays 1
        self.col_pow = np.ones(_BLOCK)
        self.row_pow = np.ones(rows)

    def refresh(self, lw: np.ndarray) -> None:
        top = float(lw.max())  # NaN or +inf anywhere in lw shows up here
        if math.isnan(top) or top == math.inf:
            raise ValueError("log_weights must be finite or -inf")
        if top == -math.inf:
            raise ValueError("distribution has no surviving population")
        x = np.subtract(lw, top, out=self.t)
        x *= 0.5
        self.u.fill(0.0)
        np.exp(x, out=self.u, where=x > LOG_TINY)
        self.top = top

    def _mass_and_moment(self) -> tuple[float, float]:
        """u.u and u.(n u)."""
        u = self.u
        return _dot(u, u), _dot(np.multiply(self.levels, u, out=self.t), u)

    def _overlap(self, log_rho: float) -> float:
        """sum_n u_n rho^n, dropping each factor rho^b, rho^(_BLOCK a) under exp(LOG_TINY)."""
        cols = min(_BLOCK, int(LOG_TINY / log_rho) + 1)
        rows = min(self.row.size, int(LOG_TINY / (_BLOCK * log_rho)) + 1)
        x = np.multiply(self.col[1:cols], log_rho, out=self.col_pow[1:cols])
        np.exp(x, out=x)
        self.col_pow[cols:] = 0.0
        x = np.multiply(self.row[1:rows], log_rho, out=self.row_pow[1:rows])
        np.exp(x, out=x)
        return float((self.grid[:rows] @ self.col_pow).dot(self.row_pow[:rows]))

    def observe(self, lw: np.ndarray, norm_log: float | None = None
                ) -> tuple[float, float, float, float, float]:
        """(n_bar, ground fidelity, survival, thermal fidelity, log mass) of ``lw``.

        ``norm_log`` overrides the log mass where it is known exactly (the
        initial state). A term of the thermal overlap whose rho^n has a
        factor under exp(``LOG_TINY``) is dropped; u_n^2 <= mass and
        Z >= 1, so it would move the fidelity's square root by less than
        exp(LOG_TINY).
        """
        mass, moment = self._mass_and_moment()
        if not mass >= _MIN_VIEW_MASS:  # also NaN and an empty view
            self.refresh(lw)
            mass, moment = self._mass_and_moment()
        if norm_log is None:
            norm_log = self.top + math.log(mass)
        try:
            survival = math.exp(norm_log)
        except OverflowError:
            raise ValueError(f"norm_log {norm_log!r} exceeds log(DBL_MAX): the "
                             "survival probability overflows a double") from None
        n_bar = moment / mass
        u0 = float(self.u[0])
        ground = u0 / mass * u0
        if n_bar > 0.0:
            log_rho = -0.5 * math.log1p(1.0 / n_bar)
            thermal = (self._overlap(log_rho) / math.sqrt(mass * (1.0 + n_bar))) ** 2
        else:
            thermal = ground
        return n_bar, ground, survival, thermal, norm_log


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
    instead; a thermal start cannot reach this, because c_0 = 1. A start
    whose ``norm_log`` exceeds log(DBL_MAX) ~ 709.78 raises ``ValueError``,
    since its survival probability is not a double.

    The log-weights are the state of record: each measurement adds the
    segment's log survival to them in place, exactly as :func:`step`
    does, and the final state wraps them. The records come from an
    amplitude view of the same state, which each measurement multiplies
    by the segment's |c_n|; it is built from the log-weights at the start
    and rebuilt whenever its mass falls below ``_MIN_VIEW_MASS``, so it
    stays exact whatever the dynamic range of the state (module
    docstring). A NaN weight propagates into the view's mass, and the
    rebuild it forces fails as the distribution's own check would.

    The records are gathered as rows and become one read-only array at
    the end (:func:`_records`). Every segment's table is built before the
    first step (:func:`_tables`) and returned in ``tables``, so a segment
    whose table cannot be built raises even if the run would stop first.
    """
    tables = _tables(schedule, initial.n_max)
    lw = initial.log_weights.copy()
    view = _AmplitudeView(lw.size)
    n_bar, ground, survival, thermal, norm_log = view.observe(lw, initial.norm_log)
    rows = [(0, n_bar, ground, survival, thermal, 0)]
    steps_run = [0] * len(schedule.segments)
    terminated = False
    for seg_id, (seg, table) in enumerate(zip(schedule.segments, tables)):
        if terminated:
            break
        if table is None:
            continue
        log_survival, magnitude = table.log_survival, table.magnitude
        first = len(rows)
        for _ in range(seg.steps):
            lw += log_survival
            view.u *= magnitude
            n_bar, ground, survival, thermal, norm_log = view.observe(lw)
            rows.append((len(rows), n_bar, ground, survival, thermal, seg_id))
            if norm_log < DEFAULT_NORM_LOG_FLOOR:
                terminated = True
                break
            if seg.until_n_bar is not None and n_bar <= seg.until_n_bar:
                break
        steps_run[seg_id] = len(rows) - first
    return RunResult(_records(rows, schedule), PopulationDistribution(lw, norm_log=norm_log),
                     terminated, tuple(steps_run), tables)


def _tables(schedule: ProtocolSchedule, n_max: int) -> tuple[CoefficientTable | None, ...]:
    """The coefficient table of each segment up to ``n_max``, None for one of
    zero steps; segments of the same variant and params share one table."""
    built = {}
    for s in schedule.segments:
        if s.steps and (s.variant, s.params) not in built:
            built[s.variant, s.params] = build_table(s.variant, s.params, n_max)
    return tuple(built[s.variant, s.params] if s.steps else None
                 for s in schedule.segments)


def _records(rows, schedule: ProtocolSchedule) -> np.recarray:
    """Rows (step, n_bar, ground, survival, thermal, segment) as one read-only
    ``StepRecord`` array; ``t_eff_kelvin`` is :func:`effective_temperature`
    at the ``omega_m`` of the row's segment, NaN where that is unset."""
    omega_m = [s.params.omega_m for s in schedule.segments]
    records = np.array([
        (step_, n_bar, ground, survival,
         math.nan if omega_m[seg] is None else effective_temperature(n_bar, omega_m[seg]),
         thermal, seg) for step_, n_bar, ground, survival, thermal, seg in rows],
        dtype=StepRecord).view(np.recarray)
    records.flags.writeable = False
    return records


def _terminal_record(initial: PopulationDistribution, schedule: ProtocolSchedule) -> np.record:
    """The last record of ``run(initial, schedule)``, without stepping through it.

    Each segment applies one fixed diagonal operator, so k_i measurements
    of segment i leave the log-weights ``initial + sum_i k_i log_survival_i``:
    one observation of that state is the terminal record. Two schedules
    take :func:`run` instead, because where it stops depends on the path:
    one with an ``until_n_bar`` segment, and one whose terminal log mass
    lies within one e-fold of ``DEFAULT_NORM_LOG_FLOOR``. The log mass never
    grows by more than rounding from step to step (|c_n| <= 1 + 1e-12),
    so above that margin no earlier step can have crossed the floor.
    """
    if any(s.until_n_bar is not None for s in schedule.segments):
        return run(initial, schedule).records[-1]
    lw = initial.log_weights.copy()
    last = 0
    for seg_id, (seg, table) in enumerate(zip(schedule.segments,
                                              _tables(schedule, initial.n_max))):
        if table is not None:
            lw += seg.steps * table.log_survival
            last = seg_id
    steps = schedule.total_steps
    n_bar, ground, survival, thermal, norm_log = _AmplitudeView(lw.size).observe(
        lw, None if steps else initial.norm_log)
    if norm_log < DEFAULT_NORM_LOG_FLOOR + 1.0:
        return run(initial, schedule).records[-1]
    return _records([(steps, n_bar, ground, survival, thermal, last)], schedule)[0]


def asymptotic_limit(initial: PopulationDistribution, variant: str,
                     params: PhysicalParams) -> AsymptoticReport:
    """Large-measurement-number limit of survival probability and occupancy.

    Only the ground state and the cooling-free indices survive infinitely
    many measurements; the limiting survival probability is the initial
    weight they carry and the limiting occupancy is their weighted mean.
    The strict reading counts each level within 1e-12 of |c| = 1 once,
    however many indices round to it; the ground level's weight is p_0.
    """
    log_p = initial.log_weights - initial.norm_log
    p0 = float(np.exp(log_p[0]))
    report = cooling_free_report(variant, params, initial.n_max)

    strict_mass, strict_moment = p0, 0.0
    counted = {0}
    for entry in report.entries:
        if entry.coef_magnitude >= 1.0 - 1e-12 and entry.nearest not in counted:
            counted.add(entry.nearest)
            w_int = float(np.exp(log_p[entry.nearest]))
            strict_mass += w_int
            strict_moment += entry.nearest * w_int
    return AsymptoticReport(survival_strict=strict_mass,
                            n_bar_strict=strict_moment / strict_mass)


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
    record: np.record | None  # dtype StepRecord
    error: str | None = None


def _check_axis(axis: str, has_omega_m: bool, n_segments: int = 2) -> None:
    """A sweep's shape, apart from its grid values: ``axis`` is known,
    ``switch`` has two of the schedule's ``n_segments`` to move steps between,
    and ``T`` has an ``omega_m`` to turn each temperature into an occupancy."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == "switch" and n_segments < 2:
        raise ValueError("switch sweep needs a schedule of at least two segments")
    if axis == "T" and not has_omega_m:
        raise ValueError("temperature sweep needs omega_m (SI units)")


def _apply_axis(axis: str, value: float, thermal: ThermalSpec,
                schedule: ProtocolSchedule) -> tuple[ThermalSpec, ProtocolSchedule]:
    """The thermal state and schedule of one grid point; raises if ``value``
    breaks its axis's rule."""
    _check_axis(axis, thermal.omega_m is not None, len(schedule.segments))
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
    # switch: grid values are the first segment's steps; the first two
    # segments keep their combined total.
    segs = schedule.segments
    total = segs[0].steps + segs[1].steps
    if value != int(value) or not 0 <= value <= total:
        raise ValueError(f"switch must be a whole number of steps in [0, {total}], "
                         f"got {value}")
    k = int(value)
    segs = (replace(segs[0], steps=k), replace(segs[1], steps=total - k)) + segs[2:]
    return thermal, ProtocolSchedule(segs)


def sweep(axis: str, values, thermal: ThermalSpec, schedule: ProtocolSchedule, *,
          hard_cap: int = DEFAULT_HARD_CAP) -> list[SweepPoint]:
    """Independent runs over a parameter grid, keeping terminal observables.

    Each grid point's terminal record is read off the closed form of its
    schedule (:func:`_terminal_record`), equal to the last record of a
    stepped :func:`run`. A grid point that fails as an input or numeric
    fault (``ValueError``, ``ArithmeticError``, ``CapacityError``) is
    recorded with its error message and the sweep moves on; any other
    exception is a fault of the program and propagates.
    """
    # n_segments keeps its default: a schedule too short for switch fails per grid point
    _check_axis(axis, thermal.omega_m is not None)
    values = list(values)
    if not values:
        raise ValueError("sweep grid must be nonempty")
    points = []
    for value in values:
        try:
            th, sched = _apply_axis(axis, float(value), thermal, schedule)
            init = initial_state(th, sched, hard_cap=hard_cap)
            points.append(SweepPoint(axis, float(value), _terminal_record(init, sched)))
        except (ValueError, ArithmeticError, CapacityError) as exc:
            points.append(SweepPoint(axis, float(value), None, f"{type(exc).__name__}: {exc}"))
    return points

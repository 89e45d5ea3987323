"""Repeated-measurement protocol engine.

The post-measurement operator is diagonal in the Fock basis and the
initial state is diagonal, so a run never materializes a density matrix:
each measurement multiplies the population weights elementwise by the
squared coefficient magnitudes, exactly and in O(n_max) per step. Within a
segment that factor is one fixed operator, so k measurements of a segment
leave the log-weights lw_start + k log_survival. All observables (mean
occupancy, ground fidelity, cumulative survival probability, effective
temperature, thermality) are evaluated after every step. A sweep keeps
only each grid point's last record, so it reads that off the closed form:
k_i measurements of segment i leave the log-weights
lw_0 + sum_i k_i log_survival_i, observed once. The trajectory sampler
needs only the survival curve, so it goes through the same step loop
(:func:`_evolve`) scaling u alone and reading its mass, with no
observable past the survival (:func:`_survival_curve`). A schedule with an
``until_n_bar`` segment reads n_bar in that loop too, since it stops on
n_bar, and a sweep reads the realized steps off it before the closed
form, stepping the schedule only up to its last such segment.

The observables come from an amplitude view of the state,
u_n = exp((lw_n - top) / 2) and v_n = sqrt(n) u_n, which each measurement
multiplies by |c_n|: the mass u.u, n_bar = v.v / u.u and the ground
fidelity u_0^2 / u.u take no ``exp`` and write no product array per step.
The view is built from the log-weights with one ``exp`` at the start of a
run, and rebuilt whenever its mass falls below ``_MIN_VIEW_MASS``, so it
stays exact over any dynamic range. A step touches the view alone: the
log-weights are formed as lw_start + j log_survival (:func:`_advance`)
only when the view is rebuilt at step j of a segment, and once at the
segment's end, so each carries two roundings per segment, not one per
measurement. The view is not rebuilt at a segment switch, which would
cost an ``exp`` pass and gain nothing: at the switch of ``fig7`` a
rebuild leaves the final n_bar 6e-17 relative from a long-double
evaluation, as no rebuild does.

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
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .params import HBAR, KB, PhysicalParams
from .fock import (
    DEFAULT_HARD_CAP,
    CapacityError,
    LOG_TINY,
    PopulationDistribution,
    ThermalSpec,
    logsumexp,  # noqa: F401  stays bound here, though unused: bench/ wraps it by name
    thermal_distribution,
)
from .coefficients import CoefficientTable, build_table, switches

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
# what fails one grid point of a sweep; any other exception is a fault of the program
_POINT_FAULTS = (ValueError, ArithmeticError, CapacityError)


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


class _AmplitudeView:
    """u_n = exp((lw_n - top) / 2): square roots of the weights, scaled by the largest.

    :meth:`observe` rebuilds u from the log-weights (:meth:`refresh`)
    whenever its mass has fallen below ``_MIN_VIEW_MASS``; the grid starts
    empty, so the first call builds it. Levels more than ``LOG_TINY``
    below the largest amplitude are 0 in u until the next rebuild: u only
    shrinks and the mass stays above ``_MIN_VIEW_MASS`` until then, so
    their share stays below exp(2 LOG_TINY) / _MIN_VIEW_MASS.

    u and v = sqrt(n) u are the two rows of one buffer, zero past the
    last level. Each sum adds its dots over ``_DOT_CHUNK``-level
    chunks left to right, the whole chunks of both rows in one batched
    ``matmul`` and the rest (unpadded: ddot orders a short tail otherwise)
    in one dot per row, so the mass is bitwise one ddot per chunk. OpenBLAS
    threads a longer ddot, which on 2 cores slowed a run at n_max 23,189.

    u is the head of a grid of ``_BLOCK`` columns, level n = _BLOCK a + b
    at row a, column b, so that the thermal-fidelity overlap
    sum_a rho^(_BLOCK a) sum_b u_n rho^b is one matrix-vector product and
    one short ``exp`` over the joint exponents (b, then _BLOCK a) instead
    of one ``exp`` per level.
    """

    def __init__(self, size: int):
        rows = -(-size // _BLOCK)
        self.uv = np.zeros((2, rows * _BLOCK))
        self.grid = self.uv[0].reshape(rows, _BLOCK)
        self.u, self.v = self.uv[:, :size]
        whole = size - size % _DOT_CHUNK if size > _DOT_CHUNK else 0
        self.chunks = (self.uv[:, :whole].reshape(2, -1, 1, _DOT_CHUNK),
                       self.uv[:, :whole].reshape(2, -1, _DOT_CHUNK, 1))
        self.rest = tuple(self.uv[:, whole:size])
        self.top = 0.0
        # n = _BLOCK a + b: exponents b along a row, then _BLOCK a down the rows
        self.exponents = np.concatenate((np.arange(_BLOCK, dtype=float),
                                         np.arange(rows, dtype=float) * _BLOCK))
        # rho^b and rho^(_BLOCK a), two views of one buffer
        self.powers = np.empty_like(self.exponents)
        self.col_pow, self.row_pow = self.powers[:_BLOCK], self.powers[_BLOCK:]
        # the rows the last overlap kept, and the heads of grid and row_pow over them
        self.rows, self.grid_head, self.row_pow_head = rows, self.grid, self.row_pow

    def refresh(self, lw: np.ndarray) -> None:
        top = float(lw.max())  # NaN or +inf anywhere in lw shows up here
        if math.isnan(top) or top == math.inf:
            raise ValueError("log_weights must be finite or -inf")
        if top == -math.inf:
            raise ValueError("distribution has no surviving population")
        x = np.subtract(lw, top, out=self.v)
        x *= 0.5
        self.u.fill(0.0)
        np.exp(x, out=self.u, where=x > LOG_TINY)
        np.multiply(np.sqrt(np.arange(self.v.size)), self.u, out=self.v)
        self.top = top

    def _mass_and_moment(self) -> tuple[float, float]:
        """u.u and v.v, each summed over its chunks left to right."""
        mass = moment = 0.0
        if self.chunks[0].size:
            for m, n in zip(*np.matmul(*self.chunks).reshape(2, -1).tolist()):
                mass += m
                moment += n
        u, v = self.rest
        return mass + float(u.dot(u)), moment + float(v.dot(v))

    def _mass(self) -> tuple[float]:
        """(u.u,), bitwise the mass of :meth:`_mass_and_moment`, from u alone."""
        mass = 0.0
        if self.chunks[0].size:
            for m in np.matmul(self.chunks[0][0], self.chunks[1][0]).ravel().tolist():
                mass += m
        u = self.rest[0]
        return (mass + float(u.dot(u)),)

    def _overlap(self, log_rho: float) -> float:
        """sum_n u_n rho^n, dropping each factor rho^b, rho^(_BLOCK a) under exp(LOG_TINY)."""
        cols = min(_BLOCK, int(LOG_TINY / log_rho) + 1)
        if cols == 1:  # so rows == 1; also log_rho = -inf, where 0 * log_rho is NaN
            return float(self.u[0])
        rows = min(self.row_pow.size, int(LOG_TINY / (_BLOCK * log_rho)) + 1)
        # exp(0) = 1 keeps rho^0 exact in both views
        np.exp(np.multiply(self.exponents, log_rho, out=self.powers), out=self.powers)
        if cols < _BLOCK:
            self.col_pow[cols:] = 0.0
        if rows != self.rows:
            self.rows = rows
            self.grid_head, self.row_pow_head = self.grid[:rows], self.row_pow[:rows]
        return float((self.grid_head @ self.col_pow).dot(self.row_pow_head))

    def observe(self, log_weights: Callable[[], np.ndarray], norm_log: float | None = None,
                moments: bool = True) -> tuple[float, float, float, float, float]:
        """(n_bar, ground fidelity, survival, thermal fidelity, log mass) of the state.

        ``log_weights()`` returns the state's log-weights; it is called
        only when the view must be rebuilt. ``norm_log`` overrides the log
        mass where it is known exactly (the initial state). A term of the
        thermal overlap whose rho^n has a factor under exp(``LOG_TINY``) is
        dropped; u_n^2 <= mass and Z >= 1, so it would move the fidelity's
        square root by less than exp(LOG_TINY). Without ``moments`` only
        the survival and log mass are read, off u alone (:meth:`_mass`; v
        need only be current after a rebuild), and the rest are NaN.
        """
        found = self._mass_and_moment() if moments else self._mass()
        if not found[0] >= _MIN_VIEW_MASS:  # also NaN and an empty view
            self.refresh(log_weights())
            found = self._mass_and_moment() if moments else self._mass()
        mass = found[0]
        if norm_log is None:
            norm_log = self.top + math.log(mass)
        try:
            survival = math.exp(norm_log)
        except OverflowError:
            raise ValueError(f"norm_log {norm_log!r} exceeds log(DBL_MAX): the "
                             "survival probability overflows a double") from None
        if not moments:
            return math.nan, math.nan, survival, math.nan, norm_log
        n_bar = found[1] / mass
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

    Each measurement scales the amplitude view of the module docstring,
    and the records come from it. The log-weights after k measurements of
    a segment are ``lw_start + k log_survival`` (:func:`_advance`), formed
    only where the view is rebuilt and at the segment's end; the final
    state wraps the last of them, as :func:`_terminal_record` forms it.
    A NaN weight propagates into the view's mass, and the rebuild it
    forces fails as the distribution's own check would.

    The records are gathered as rows and become one read-only array at
    the end (:func:`_records`). Every segment's table is built before the
    first step (:func:`_tables`) and returned in ``tables``, so a segment
    whose table cannot be built raises even if the run would stop first.
    """
    tables = _tables(schedule, initial.n_max)
    rows, lw, norm_log, terminated, steps_run = _evolve(initial, schedule, tables, True)
    return RunResult(_records(rows, schedule), PopulationDistribution(lw, norm_log=norm_log),
                     terminated, steps_run, tables)


def _survival_curve(initial: PopulationDistribution, schedule: ProtocolSchedule,
                    tables: tuple[CoefficientTable | None, ...]
                    ) -> tuple[np.ndarray, tuple[int, ...]]:
    """``run(initial, schedule)``'s survival column (read-only) and
    ``steps_run``, bit for bit, from :func:`_evolve` without records.

    Each measurement scales u alone and sums its mass, with no moment,
    overlap or effective temperature, unless a segment stops on n_bar
    (:func:`_evolve`). ``tables`` are :func:`_tables` of the schedule.
    Raises what :func:`run` raises on the same start.
    """
    rows, *_, steps_run = _evolve(initial, schedule, tables, False)
    survival = np.array([row[3] for row in rows])
    survival.flags.writeable = False
    return survival, steps_run


def _evolve(initial: PopulationDistribution, schedule: ProtocolSchedule,
            tables: tuple[CoefficientTable | None, ...], moments: bool):
    """The step loop of :func:`run` and :func:`_survival_curve`.

    Each measurement multiplies the amplitude view's u row by |c_n|, and
    its v row too if ``moments``, and :meth:`_AmplitudeView.observe` then
    reads the state, with or without ``moments``; the initial state is
    read first, at its ``norm_log``. A segment ends at its step budget or
    its ``until_n_bar``, and the run below the norm floor. A schedule with
    an ``until_n_bar`` segment reads the moments whatever ``moments`` says,
    so it stops where :func:`run` stops. Returns the rows (step, n_bar,
    ground, survival, thermal, segment), the final log-weights and log
    mass, whether the run stopped at the floor, and the measurements each
    segment ran.
    """
    moments = moments or any(s.until_n_bar is not None for s in schedule.segments)
    lw = initial.log_weights
    view = _AmplitudeView(lw.size)
    u, v = view.u, view.v  # a rebuild writes into these
    observe = view.observe
    n_bar, ground, survival, thermal, norm_log = observe(lambda: lw, initial.norm_log, moments)
    rows = [(0, n_bar, ground, survival, thermal, 0)]
    steps_run = [0] * len(schedule.segments)
    terminated = False
    for seg_id, (seg, table) in enumerate(zip(schedule.segments, tables)):
        if terminated:
            break
        if table is None:
            continue
        magnitude = table.magnitude

        def log_weights():  # called within the step loop: lw at the segment's start
            return _advance(lw, table, k)
        for k in range(1, seg.steps + 1):
            u *= magnitude
            if moments:
                v *= magnitude
            n_bar, ground, survival, thermal, norm_log = observe(log_weights, None, moments)
            rows.append((len(rows), n_bar, ground, survival, thermal, seg_id))
            if norm_log < DEFAULT_NORM_LOG_FLOOR:
                terminated = True
                break
            if seg.until_n_bar is not None and n_bar <= seg.until_n_bar:
                break
        steps_run[seg_id] = k
        lw = _advance(lw, table, k)
    return rows, lw, norm_log, terminated, tuple(steps_run)


def _advance(lw: np.ndarray, table: CoefficientTable, k: int) -> np.ndarray:
    """The log-weights after k measurements of ``table`` from ``lw``.

    ``lw + k * log_survival`` as a new array: one rounding of k S and one
    of the sum per level, however large k is. ``lw`` itself for k = 0,
    since a zero coefficient's log survival is -inf and 0 * -inf is NaN.
    """
    return lw + k * table.log_survival if k else lw


def _tables(schedule: ProtocolSchedule, n_max: int, build=None
            ) -> tuple[CoefficientTable | None, ...]:
    """The coefficient table of each segment up to ``n_max``, None for one of
    zero steps; segments of the same variant and params share one table.

    ``build(variant, params)``, where given, returns a table of at least
    ``n_max`` levels, and its head is taken: every coefficient depends on
    its own level alone, so the head is bitwise the table of ``n_max``.
    """
    built = {}
    for s in schedule.segments:
        key = s.variant, s.params
        if s.steps and key not in built:
            table = build(*key) if build else build_table(*key, n_max)
            if table.n_max != n_max:
                table = replace(table, values=table.values[: n_max + 1])
            built[key] = table
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


def _terminal_record(initial: PopulationDistribution, schedule: ProtocolSchedule,
                     tables: tuple[CoefficientTable | None, ...] | None = None) -> np.record:
    """The last record of ``run(initial, schedule)``, without observing each step.

    Each segment applies one fixed diagonal operator, so k_i measurements
    of segment i leave the log-weights ``initial + sum_i k_i log_survival_i``,
    formed segment by segment by :func:`_advance` as :func:`run` forms its
    final state: one observation of that state is the terminal record.
    k_i is the segment's budget, except up to the last segment that stops
    on n_bar, where it is the ``steps_run`` of :func:`_survival_curve` over
    that prefix of the schedule: what follows that segment cannot change
    where it stops. ``initial`` is a thermal
    start (:func:`initial_state`), so :func:`run`'s norm floor is out of
    reach: c_0 = 1 keeps the log mass above log p_0 = -log(1 + n_bar_th).
    ``tables`` defaults to :func:`_tables` of the schedule.
    """
    if tables is None:
        tables = _tables(schedule, initial.n_max)
    segments = schedule.segments
    steps_run = [s.steps for s in segments]
    stops = [i for i, s in enumerate(segments) if s.until_n_bar is not None]
    if stops:  # realize the prefix that ends at the last segment stopping on n_bar
        j = stops[-1] + 1
        steps_run[:j] = _survival_curve(initial, ProtocolSchedule(segments[:j]),
                                        tables[:j])[1]
    lw = initial.log_weights
    last = 0
    for seg_id, (table, k) in enumerate(zip(tables, steps_run)):
        if k:
            lw = _advance(lw, table, k)
            last = seg_id
    steps = sum(steps_run)
    n_bar, ground, survival, thermal, _ = _AmplitudeView(lw.size).observe(
        lambda: lw, None if steps else initial.norm_log)
    return _records([(steps, n_bar, ground, survival, thermal, last)], schedule)[0]


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
    stepped :func:`run`. Each operator (variant and params) is built once,
    at the largest n_max of the grid points that apply it, and every such
    point reads its head. A grid point that fails as an input or numeric
    fault (``ValueError``, ``ArithmeticError``, ``CapacityError``) is
    recorded with its error message and the sweep moves on; any other
    exception is a fault of the program and propagates.
    """
    # n_segments keeps its default: a schedule too short for switch fails per grid point
    _check_axis(axis, thermal.omega_m is not None)
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep grid must be nonempty")
    starts = []  # each grid point's schedule and thermal start, or why it has none
    sizes = {}  # the largest n_max at which each operator is applied
    for value in values:
        try:
            th, sched = _apply_axis(axis, value, thermal, schedule)
            init = initial_state(th, sched, hard_cap=hard_cap)
        except _POINT_FAULTS as exc:
            starts.append(exc)
            continue
        starts.append((sched, init))
        for seg in sched.segments:
            key = seg.variant, seg.params
            sizes[key] = max(sizes.get(key, 0), init.n_max)
    # a failed build is not cached: each grid point that needs it fails on its own
    build = cache(lambda variant, params: build_table(variant, params, sizes[variant, params]))
    points = []
    for value, start in zip(values, starts):
        try:
            if isinstance(start, Exception):
                raise start
            sched, init = start
            record = _terminal_record(init, sched, _tables(sched, init.n_max, build))
            points.append(SweepPoint(axis, value, record))
        except _POINT_FAULTS as exc:
            points.append(SweepPoint(axis, value, None, f"{type(exc).__name__}: {exc}"))
    return points

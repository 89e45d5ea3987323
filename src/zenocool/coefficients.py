"""Closed-form per-level cooling coefficients and cooling-free-set analysis.

A single successful ground-state measurement of the ancilla multiplies the
amplitude of resonator Fock level n by c_n = <g,n| exp(-i H tau) |g,n>. In
the n-excitation block {|g,n>, |e,n-1>, |f,n-1>} the driving g_f couples
|e,n-1> only to |f,n-1>, so |g,n> splits into a dark and a bright part,

    |g,n> = (g_f / W) |dark> + (g_m sqrt(n) / W) |bright>,
    W^2 = g_f^2 + n g_m^2.

The dark state has eigenvalue 0; the bright state and |e,n-1> form a
two-level Rabi problem with coupling W and detuning delta_e. One formula
therefore covers every protocol variant:

    c_n = g_f^2 / W^2 + (n g_m^2 / W^2) r_n,
    r_n = exp(-i delta tau / 2) (cos(Wt tau) + i (delta / 2 Wt) sin(Wt tau)),
    Wt^2 = W^2 + delta^2 / 4,

with c_0 = 1 exactly. A variant label only switches parameters off
(:func:`variant_params`):

``driven``
    g_f on, delta_e = 0: ``1 + n g_m^2 (cos(W tau) - 1) / W^2``.
``conventional``
    g_f = 0, delta_e = 0: ``cos(g_m sqrt(n) tau)``.
``driven-detuned``
    g_f and delta_e on: the general formula.
``conventional-detuned``
    g_f = 0, delta_e on: the detuned two-level amplitude r_n.

Every variant leaves the ground state untouched (coefficient exactly 1)
and has magnitude at most 1 elsewhere. Fock levels where the magnitude
equals 1 are immune to the measurement ("cooling-free"); their locations
and spacings determine the protocol's usable cooling range. The same
formula gives them all: |c_n| = 1 exactly where Wt_n tau = m pi, that is

    n_m = ((m pi)^2 - (g_f tau)^2 - (delta tau / 2)^2) / (g_m tau)^2,

for every m with the driving off and for even m with it on (c_n = 1
then needs cos(W tau) = 1); driving and detuning together leave no
level. :func:`cooling_free_report` lists them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .params import PhysicalParams

# variant -> (driving g_f on, detuning delta_e on)
_SWITCHES = {
    "conventional": (False, False),
    "driven": (True, False),
    "conventional-detuned": (False, True),
    "driven-detuned": (True, True),
}
VARIANTS = tuple(_SWITCHES)

_MAG_TOL = 1e-12


def switches(variant: str) -> tuple[bool, bool]:
    """Whether ``variant`` keeps (the driving g_f, the detuning delta_e) on."""
    try:
        return _SWITCHES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; 'variant' must be one of "
                         f"{VARIANTS}") from None


def variant_params(variant: str, params: PhysicalParams) -> PhysicalParams:
    """``params`` with what ``variant`` switches off set to zero.

    Conventional variants run with the driving off (g_f = 0); resonant
    ones run without detuning (delta_e = 0).
    """
    driving, detuned = switches(variant)
    return replace(params, g_f=params.g_f if driving else 0.0,
                   delta_e=params.delta_e if detuned else 0.0)


def variant_of(params: PhysicalParams) -> str:
    """The variant that leaves ``params`` unchanged: the rule's inverse."""
    on = (params.g_f > 0.0, params.delta_e != 0.0)
    return next(v for v, s in _SWITCHES.items() if s == on)


def _values(gm_tau, gf_tau, delta_tau, n: np.ndarray) -> np.ndarray:
    """c_n at every index of ``n`` from g_m tau, g_f tau and delta tau as given.

    The three products are scalars or arrays of ``n``'s shape, so one call
    tabulates a variant or evaluates a batch of parameter draws. Nothing
    is switched off here (see :func:`variant_params`).
    """
    # x * x gives inf where Python's float x**2 raises OverflowError
    gf2 = gf_tau * gf_tau
    half_delta = 0.5 * delta_tau
    # n = 0 with the driving off is a 0/0, set to 1 below; any other 0/0,
    # inf/inf or cos(inf) is left for the caller to reject
    with np.errstate(invalid="ignore"):
        bright = n * (gm_tau * gm_tau)
        w2 = gf2 + bright
        wt = np.sqrt(w2 + half_delta * half_delta)
        bright /= w2  # bright-state weight n g_m^2 / W^2
        out = np.zeros(wt.shape, dtype=complex)
        re = np.cos(wt)
        if np.count_nonzero(half_delta):  # np.any costs ~4 us on a scalar
            # rotate by the phase exp(-i delta tau / 2) in real arithmetic;
            # (cos 0, sin 0) = (1, 0) leaves a resonant element's real part
            # exact, and its imaginary part stays the +0 it has without one
            im = (half_delta / wt) * np.sin(wt)
            c, s = np.cos(half_delta), np.sin(half_delta)
            re, im = c * re + s * im, c * im - s * re
            out.imag = np.where(half_delta != 0.0, bright * im, 0.0)
        out.real = gf2 / w2 + bright * re
    out[n == 0.0] = 1.0
    return out


def coefficient(variant: str, params: PhysicalParams, n):
    """Coefficient c_n of ``variant`` at a real level index n >= 0.

    A scalar n gives a complex number, an array of indices an array.
    Raises ``ValueError`` where a coefficient is not finite: an underflowing
    (g_m tau)^2 with the driving off makes every n > 0 a 0/0, an infinite
    g_m tau an inf/inf, and an overflowing (g_f tau)^2 an inf/inf too; the
    message gives the three products of the switched params.
    """
    idx = np.asarray(n, dtype=float)
    if not np.all(idx >= 0.0):
        raise ValueError("Fock index must be nonnegative")
    p = variant_params(variant, params)
    out = _values(p.gm_tau, p.gf_tau, p.delta_tau, idx.reshape(-1)).reshape(idx.shape)
    if not np.isfinite(out).all():
        raise ValueError(f"coefficient of {variant!r} is not finite at "
                         f"g_m tau = {p.gm_tau!r}, g_f tau = {p.gf_tau!r}, "
                         f"delta tau = {p.delta_tau!r}")
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Per-level coefficients of one variant for n = 0..n_max."""

    variant: str
    values: np.ndarray
    params: PhysicalParams

    def __post_init__(self):
        switches(self.variant)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if v[0] != 1.0:
            raise ValueError("ground-state coefficient must be exactly 1")
        bad = ~(self.magnitude <= 1.0 + _MAG_TOL)  # a NaN magnitude fails too
        if bad.any():
            n = int(np.argmax(bad))
            raise ValueError(f"coefficient {complex(v[n])} at n={n} must be finite "
                             "with magnitude at most 1")

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    @cached_property
    def magnitude(self) -> np.ndarray:
        """Per-level amplitude factor |c_n| of one measurement (read-only).

        ``log_survival`` is computed from it, and the engine's amplitude
        view of the state is multiplied by it at every measurement.
        """
        out = np.abs(self.values)
        out.flags.writeable = False
        return out

    @cached_property
    def log_survival(self) -> np.ndarray:
        """Per-level log survival 2 log|c_n| of one measurement (read-only).

        A segment applies this same diagonal factor at every measurement,
        so the engine and the trajectory sampler both read it from here; a
        zero coefficient gives ``-inf``.
        """
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(self.magnitude)
        out.flags.writeable = False
        return out


def build_table(variant: str, params: PhysicalParams, n_max: int) -> CoefficientTable:
    """Tabulate the variant's coefficient for every integer n up to n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    n = np.arange(n_max + 1, dtype=float)
    return CoefficientTable(variant, coefficient(variant, params, n), params)


@dataclass(frozen=True)
class ProtectedIndex:
    """One cooling-free point: |coefficient| = 1 at real index ``index``."""

    generator: int        # m / step of W~_n tau = m pi (step 2 with the driving on)
    index: float          # real-valued protected Fock index, >= 0
    quasi_period: float   # spacing to the next protected index
    nearest: int          # nearest integer Fock level within the truncation
    coef_magnitude: float  # |coefficient| at that integer level


@dataclass(frozen=True)
class CoolingFreeReport:
    """Protected indices of a variant up to a truncation."""

    variant: str
    entries: tuple[ProtectedIndex, ...]

    @property
    def indices(self) -> tuple[float, ...]:
        return tuple(e.index for e in self.entries)


def _protected_points(variant: str, params: PhysicalParams):
    """(m / step, n_m, n_{m+step} - n_m) of every level, by increasing n_m.

    m steps by 2 with the driving on and by 1 without (module docstring).
    Raises ``ValueError`` if (g_m tau)^2 underflows to 0 or is infinite, or
    if (g_f tau)^2 + (delta tau / 2)^2 is infinite.
    """
    p = variant_params(variant, params)
    # x * x gives inf where Python's float x**2 raises OverflowError
    gm2 = p.gm_tau * p.gm_tau
    offset = p.gf_tau * p.gf_tau + p.delta_tau * p.delta_tau / 4.0
    if not (0.0 < gm2 < math.inf and offset < math.inf):
        raise ValueError(f"(g_m tau)^2 = {gm2!r} must be positive and finite, and "
                         f"(g_f tau)^2 + (delta tau / 2)^2 = {offset!r} finite")
    driving = p.gf_tau > 0.0
    if driving and p.delta_tau != 0.0:
        return
    step = 2 if driving else 1
    m = step * max(1, math.ceil(math.sqrt(offset) / (step * math.pi) - 1e-9))
    while True:
        idx = ((m * math.pi) ** 2 - offset) / gm2
        # cancellation noise at an exact boundary (m pi)^2 = offset
        if idx >= -64.0 * np.finfo(float).eps * (m * math.pi) ** 2 / gm2:
            yield m // step, max(idx, 0.0), step * (2 * m + step) * math.pi**2 / gm2
        m += step


def cooling_free_report(variant: str, params: PhysicalParams, n_max: int) -> CoolingFreeReport:
    """Locate every protected (cooling-free) index at or below n_max.

    The set is that of the switched parameters: a driven variant with
    ``g_f = 0`` has the conventional set, and a detuned protocol with the
    driving on has none, so its report is empty.
    """
    entries = []
    for gen, idx, period in _protected_points(variant, params):
        if idx > n_max:
            break
        nearest = round(idx)
        mag = abs(coefficient(variant, params, nearest))
        entries.append(ProtectedIndex(gen, idx, period, nearest, float(mag)))
    return CoolingFreeReport(variant, tuple(entries))


def first_protected_index(variant: str, params: PhysicalParams) -> float | None:
    """Smallest strictly positive protected index, or None if there is none.

    This is the first level that the variant never cools, so its distance
    from the ground level in thermal e-folds says whether a run can reach
    a low occupancy.
    """
    return next((idx for _, idx, _ in _protected_points(variant, params)
                 if idx > 0.0), None)

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
and spacings determine the protocol's usable cooling range and are
computed by :func:`cooling_free_report`.
"""

from __future__ import annotations

import itertools
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
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}") from None


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


def _values(params: PhysicalParams, n: np.ndarray) -> np.ndarray:
    """c_n at every index of ``n`` for ``params`` as given (no switching)."""
    gf2 = params.gf_tau**2
    half_delta = 0.5 * params.delta_tau
    out = np.ones(n.shape, dtype=complex)
    pos = n > 0
    bright = n[pos] * params.gm_tau**2
    w2 = gf2 + bright
    wt = np.sqrt(w2 + half_delta**2)
    bright /= w2  # bright-state weight n g_m^2 / W^2
    re = np.cos(wt)
    if half_delta:
        # the phase exp(-i delta tau / 2) is one scalar: rotate in real arithmetic
        im = (half_delta / wt) * np.sin(wt)
        c, s = math.cos(half_delta), math.sin(half_delta)
        re, im = c * re + s * im, c * im - s * re
        out.imag[pos] = bright * im
    out.real[pos] = gf2 / w2 + bright * re
    return out


def coefficient(variant: str, params: PhysicalParams, n):
    """Coefficient c_n of ``variant`` at a real level index n >= 0.

    A scalar n gives a complex number, an array of indices an array.
    """
    idx = np.asarray(n, dtype=float)
    if not np.all(idx >= 0.0):
        raise ValueError("Fock index must be nonnegative")
    out = _values(variant_params(variant, params), idx.reshape(-1)).reshape(idx.shape)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Per-level coefficients of one variant for n = 0..n_max."""

    variant: str
    values: np.ndarray
    params: PhysicalParams

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if v[0] != 1.0:
            raise ValueError("ground-state coefficient must be exactly 1")
        mags = self.magnitude
        if np.any(mags > 1.0 + _MAG_TOL):
            worst = int(np.argmax(mags))
            raise ValueError(
                f"coefficient magnitude {mags[worst]!r} at n={worst} exceeds 1"
            )

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
        so the engine, the reference ``step`` and the trajectory sampler all
        read it from here; a zero coefficient gives ``-inf``.
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

    generator: int        # integer j (driven) or k (conventional) producing it
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


def _driven_protected(gm_tau: float, gf_tau: float):
    two_pi = 2.0 * math.pi
    j = max(1, math.ceil(gf_tau / two_pi - 1e-9))
    while True:
        idx = ((two_pi * j) ** 2 - gf_tau**2) / gm_tau**2
        # cancellation noise at an exactly-integer g_f tau / 2 pi boundary
        rounding = 64.0 * np.finfo(float).eps * (two_pi * j) ** 2 / gm_tau**2
        if idx >= -rounding:
            period = 4.0 * (2 * j + 1) * math.pi**2 / gm_tau**2
            yield j, max(idx, 0.0), period
        j += 1


def _conventional_protected(gm_tau: float, delta_tau: float):
    # delta_tau = 0 gives the resonant set n_k = (k pi / (g_m tau))^2.
    k = math.floor(abs(delta_tau) / (2.0 * math.pi)) + 1
    while True:
        idx = ((k * math.pi) ** 2 - delta_tau**2 / 4.0) / gm_tau**2
        period = (2 * k + 1) * math.pi**2 / gm_tau**2
        yield k, idx, period
        k += 1


def _protected_points(variant: str, params: PhysicalParams):
    """Every protected (generator, index, quasi-period), by increasing index.

    The set follows the switched parameters, not the variant label; see
    :func:`cooling_free_report`.
    """
    p = variant_params(variant, params)
    if p.gf_tau > 0.0:
        if p.delta_tau != 0.0:
            return iter(())
        return _driven_protected(p.gm_tau, p.gf_tau)
    return _conventional_protected(p.gm_tau, p.delta_tau)


def cooling_free_report(variant: str, params: PhysicalParams, n_max: int) -> CoolingFreeReport:
    """Locate every protected (cooling-free) index at or below n_max.

    Driven variants with ``g_f = 0`` are handled by the conventional set
    (detuned or not), since the driven coefficient then reduces to the
    conventional one with twice as many magnitude-1 points as the driven
    formula alone would find. A detuned driven protocol with the driving
    on has no exactly protected level above the ground state for generic
    detuning, so its report is empty.
    """
    points = itertools.takewhile(lambda point: point[1] <= n_max,
                                 _protected_points(variant, params))
    entries = []
    for gen, idx, period in points:
        nearest = int(min(max(round(idx), 0), n_max))
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

"""Closed-form per-level cooling coefficients and cooling-free-set analysis.

A single successful ground-state measurement of the ancilla multiplies the
amplitude of resonator Fock level n by a coefficient that depends on the
protocol variant:

``driven``
    Resonant model with the external-level driving on,
    ``1 + n g_m^2 (cos(W_n tau) - 1) / W_n^2`` with
    ``W_n = sqrt(g_f^2 + n g_m^2)``.
``conventional``
    Resonant model with the driving off, ``cos(g_m sqrt(n) tau)``.
``driven-detuned``
    Driving on with excited-level detuning ``delta_e``; see
    :func:`alpha_tilde_n`.
``conventional-detuned``
    Driving off with detuning; see :func:`beta_tilde_n`.

Every variant leaves the ground state untouched (coefficient exactly 1)
and has magnitude at most 1 elsewhere. Fock levels where the magnitude
equals 1 are immune to the measurement ("cooling-free"); their locations
and spacings determine the protocol's usable cooling range and are
computed by :func:`cooling_free_report`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import PhysicalParams

VARIANTS = ("conventional", "driven", "conventional-detuned", "driven-detuned")

_MAG_TOL = 1e-12


def _scalar(n) -> np.ndarray:
    v = float(n)
    if v < 0.0:
        raise ValueError("Fock index must be nonnegative")
    return np.array([v])


def _alpha_values(n: np.ndarray, gm_tau: float, gf_tau: float) -> np.ndarray:
    out = np.ones(n.shape, dtype=complex)
    pos = n > 0
    w2 = gf_tau**2 + n[pos] * gm_tau**2
    w = np.sqrt(w2)
    out[pos] = 1.0 + (n[pos] * gm_tau**2 / w2) * (np.cos(w) - 1.0)
    return out


def _beta_values(n: np.ndarray, gm_tau: float) -> np.ndarray:
    return np.cos(gm_tau * np.sqrt(n)).astype(complex)


def _alpha_tilde_values(n: np.ndarray, gm_tau: float, gf_tau: float,
                        delta_tau: float) -> np.ndarray:
    out = np.ones(n.shape, dtype=complex)
    pos = n > 0
    npos = n[pos]
    w2 = gf_tau**2 + npos * gm_tau**2
    wt = np.sqrt(w2 + delta_tau**2 / 4.0)
    phase = np.exp(-0.5j * delta_tau)
    num = (2.0 * gf_tau**2 * wt
           + phase * gm_tau**2 * npos * (1j * delta_tau * np.sin(wt)
                                         + 2.0 * wt * np.cos(wt)))
    out[pos] = num / (2.0 * w2 * wt)
    return out


def _beta_tilde_values(n: np.ndarray, gm_tau: float, delta_tau: float) -> np.ndarray:
    out = np.ones(n.shape, dtype=complex)
    pos = n > 0
    wc = np.sqrt(n[pos] * gm_tau**2 + delta_tau**2 / 4.0)
    # cos(2 theta_n) from delta / (2 W_c) directly; the arctan route is
    # singular at delta -> 0.
    cos2t = (delta_tau / 2.0) / wc
    out[pos] = np.exp(-0.5j * delta_tau) * (np.cos(wc) + 1j * np.sin(wc) * cos2t)
    return out


def _variant_values(variant: str, params: PhysicalParams, n: np.ndarray) -> np.ndarray:
    if variant == "driven":
        return _alpha_values(n, params.gm_tau, params.gf_tau)
    if variant == "conventional":
        return _beta_values(n, params.gm_tau)
    if variant == "driven-detuned":
        return _alpha_tilde_values(n, params.gm_tau, params.gf_tau, params.delta_tau)
    if variant == "conventional-detuned":
        return _beta_tilde_values(n, params.gm_tau, params.delta_tau)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def alpha_n(n, params: PhysicalParams) -> complex:
    """Driven resonant coefficient for level n.

    ``(W_n^2 + n g_m^2 (cos(W_n tau) - 1)) / W_n^2`` with
    ``W_n = sqrt(g_f^2 + n g_m^2)``; real on resonance. ``n = 0`` returns
    exactly 1, which also covers the otherwise indeterminate
    ``g_f = 0, n = 0`` corner. With ``g_f = 0`` this reduces to
    :func:`beta_n`.
    """
    return complex(_alpha_values(_scalar(n), params.gm_tau, params.gf_tau)[0])


def beta_n(n, params: PhysicalParams) -> complex:
    """Conventional (driving off) coefficient cos(g_m sqrt(n) tau)."""
    return complex(_beta_values(_scalar(n), params.gm_tau)[0])


def alpha_tilde_n(n, params: PhysicalParams) -> complex:
    """Driven coefficient with excited-level detuning.

    ``[2 g_f^2 Wt_n + exp(-i delta tau / 2) g_m^2 n (i delta sin(Wt_n tau)
    + 2 Wt_n cos(Wt_n tau))] / (2 W_n^2 Wt_n)`` with
    ``Wt_n = sqrt(n g_m^2 + g_f^2 + delta^2 / 4)``. Reduces to
    :func:`alpha_n` at zero detuning and to :func:`beta_tilde_n` at
    ``g_f = 0``; ``n = 0`` returns exactly 1.
    """
    return complex(_alpha_tilde_values(_scalar(n), params.gm_tau, params.gf_tau,
                                       params.delta_tau)[0])


def beta_tilde_n(n, params: PhysicalParams) -> complex:
    """Conventional coefficient with detuning.

    ``exp(-i tau delta / 2) (cos(Wc tau) + i sin(Wc tau) cos(2 theta_n))``
    with ``Wc = sqrt(n g_m^2 + delta^2 / 4)`` and
    ``cos(2 theta_n) = (delta / 2) / Wc``. ``n = 0`` returns exactly 1.
    """
    return complex(_beta_tilde_values(_scalar(n), params.gm_tau, params.delta_tau)[0])


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
        mags = np.abs(v)
        if np.any(mags > 1.0 + _MAG_TOL):
            worst = int(np.argmax(mags))
            raise ValueError(
                f"coefficient magnitude {mags[worst]!r} at n={worst} exceeds 1"
            )

    @property
    def n_max(self) -> int:
        return self.values.size - 1

    @cached_property
    def log_survival(self) -> np.ndarray:
        """Per-level log survival 2 log|c_n| of one measurement (read-only).

        A segment applies this same diagonal factor at every measurement,
        so the engine, the reference ``step`` and the trajectory sampler all
        read it from here; a zero coefficient gives ``-inf``.
        """
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(np.abs(self.values))
        out.flags.writeable = False
        return out


def build_table(variant: str, params: PhysicalParams, n_max: int) -> CoefficientTable:
    """Tabulate the variant's coefficient for every integer n up to n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    n = np.arange(n_max + 1, dtype=float)
    return CoefficientTable(variant, _variant_values(variant, params, n), params)


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

    The set follows the coefficient, not the variant label; see
    :func:`cooling_free_report`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    detuning = params.delta_tau if variant.endswith("detuned") else 0.0
    if variant.startswith("driven") and params.gf_tau > 0.0:
        if detuning != 0.0:
            return iter(())
        return _driven_protected(params.gm_tau, params.gf_tau)
    return _conventional_protected(params.gm_tau, detuning)


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
        mag = abs(_variant_values(variant, params,
                                  np.array([float(nearest)]))[0])
        entries.append(ProtectedIndex(gen, idx, period, nearest, float(mag)))
    return CoolingFreeReport(variant, tuple(entries))


def first_protected_index(variant: str, params: PhysicalParams) -> float | None:
    """Smallest strictly positive protected index, or None if there is none.

    Used by the protocol layer to size truncations so that population
    aggregating near the first cooling-free level is never clipped.
    """
    return next((idx for _, idx, _ in _protected_points(variant, params)
                 if idx > 0.0), None)

"""Truncated Fock-space populations and thermal state preparation.

Populations live in the log domain. After N ground-state measurements the
weight of Fock level n has shrunk by |coef_n|**(2N); with N up to a few
hundred these factors underflow linear floats, while their logarithms stay
comfortably finite. The log of the total unnormalized mass doubles as the
cumulative survival probability of the measurement record.

The log-weights are the state of record. ``protocol.run`` reads its
per-step observables from an amplitude view u = exp((log_weights - max) / 2)
of them and its multiple sqrt(n) u, rebuilt from them only at the start and
when its mass falls below a fixed floor. Every sum of exponentials in the
package skips terms more than ``LOG_TINY`` (708 e-folds) below its largest
term: they cannot move a double-precision sum. The view of a run over more
than 16,384 levels also drops every 128-level row whose amplitudes have
all fallen to 2^-60 / (n_max + 1) of the ground level's, which moves no
record by more than 2^-58 relative (see ``protocol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import HBAR, KB

DEFAULT_EPSILON_TAIL = 1e-12
DEFAULT_HARD_CAP = 65536


class CapacityError(RuntimeError):
    """More Fock levels than the configured cap."""


# Below this log, exp() leaves the normal doubles, and numpy's vector exp
# falls back to a slow scalar path. A term this far under the largest one
# cannot change a double-precision sum, so sums of exponentials skip it.
LOG_TINY = -708.0


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-d array, shifted by its maximum.

    An all ``-inf`` input (no mass at all) gives ``-inf``; a NaN or
    ``+inf`` entry propagates to the result.
    """
    a = np.asarray(a, dtype=float)
    shift = a.max()
    if not math.isfinite(shift):
        return float(shift)
    x = a - shift
    return float(shift + math.log(np.exp(x[x > LOG_TINY]).sum()))


def thermal_occupation(omega_m: float, temperature: float) -> float:
    """Bose-Einstein mean occupancy 1 / (exp(hbar*omega_m / kB*T) - 1).

    Returns 0.0 (the ground state) when hbar*omega_m / kB*T is too large
    for ``expm1``.

    Parameters
    ----------
    omega_m : float
        Resonator angular frequency in rad/s, > 0.
    temperature : float
        Bath temperature in kelvin, > 0.
    """
    if not 0.0 < omega_m < math.inf:
        raise ValueError(f"omega_m must be positive and finite, got {omega_m}")
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    try:
        return 1.0 / math.expm1(HBAR * omega_m / (KB * temperature))
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal initial state, given either as (T, omega_m) or as n_bar_th.

    Exactly one of ``temperature`` (with ``omega_m``) or ``n_bar_th`` must
    be provided. ``epsilon_tail`` bounds the geometric tail mass discarded
    by the Fock truncation and must lie in (0, 1e-6].
    """

    temperature: float | None = None
    omega_m: float | None = None
    n_bar_th: float | None = None
    epsilon_tail: float = DEFAULT_EPSILON_TAIL

    def __post_init__(self):
        if (self.temperature is None) == (self.n_bar_th is None):
            raise ValueError("give exactly one of temperature or n_bar_th")
        if self.temperature is not None:
            if self.omega_m is None:
                raise ValueError("temperature requires omega_m")
            thermal_occupation(self.omega_m, self.temperature)
        if self.n_bar_th is not None and not 0.0 <= self.n_bar_th < math.inf:
            raise ValueError(
                f"n_bar_th must be nonnegative and finite, got {self.n_bar_th}")
        if not 0.0 < self.epsilon_tail <= 1e-6:
            raise ValueError(f"epsilon_tail must be in (0, 1e-6], got {self.epsilon_tail}")

    @property
    def n_bar(self) -> float:
        """Mean occupancy implied by the spec."""
        if self.n_bar_th is not None:
            return self.n_bar_th
        return thermal_occupation(self.omega_m, self.temperature)


@dataclass(frozen=True, eq=False)
class PopulationDistribution:
    """Diagonal Fock-state weights, stored as logs.

    ``log_weights[n]`` is the log of the unnormalized weight of level n
    (``-inf`` marks zero population). ``norm_log`` is the log of the total
    mass, kept equal to ``logsumexp(log_weights)``; for a state evolved
    from a normalized start it is the log of the cumulative survival
    probability. Instances are treated as immutable values.
    """

    log_weights: np.ndarray
    norm_log: float = None  # type: ignore[assignment]

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.size == 0:
            raise ValueError("log_weights must be a nonempty 1-d array")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("log_weights must be finite or -inf")
        object.__setattr__(self, "log_weights", lw)
        if self.norm_log is None:
            object.__setattr__(self, "norm_log", logsumexp(lw))

    @classmethod
    def from_probabilities(cls, probs) -> "PopulationDistribution":
        """Build from linear-domain weights (zeros become -inf logs)."""
        p = np.asarray(probs, dtype=float)
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        with np.errstate(divide="ignore"):
            return cls(np.log(p))

    @property
    def n_max(self) -> int:
        return self.log_weights.size - 1

    @property
    def survival_probability(self) -> float:
        """Total unnormalized mass, exp(norm_log)."""
        return float(np.exp(self.norm_log))

    def probabilities(self) -> np.ndarray:
        """Normalized view; the conditional post-measurement populations."""
        if self.norm_log == -np.inf:
            raise ValueError("distribution has no surviving population")
        return np.exp(self.log_weights - self.norm_log)


def _tail_n_max(n_bar: float, epsilon_tail: float) -> int | float:
    """Smallest truncation whose geometric tail mass is below epsilon_tail.

    One extra level is kept beyond the bare bound so the truncated mean
    stays within epsilon_tail * n_max of the untruncated one. From
    n_bar ~ 2**53 on, r rounds to 1 and no truncation is enough: ``inf``.
    """
    r = n_bar / (1.0 + n_bar)
    log_r = math.log(r)
    if log_r == 0.0:
        return math.inf
    m = max(0, math.ceil(math.log(epsilon_tail) / log_r - 1.0))
    while (m + 1) * log_r >= math.log(epsilon_tail):
        m += 1
    return m + 1


def thermal_distribution(spec: ThermalSpec, *,
                         hard_cap: int = DEFAULT_HARD_CAP) -> PopulationDistribution:
    """Truncated geometric distribution p_n = n_bar^n / (1 + n_bar)^(n+1).

    The truncation keeps the discarded tail mass below ``spec.epsilon_tail``;
    n_bar = 0 gives the one-level ground state. The result is normalized
    over the kept levels.

    Raises
    ------
    CapacityError
        If the required truncation exceeds ``hard_cap``.
    """
    n_bar = spec.n_bar
    if n_bar == 0.0:
        return PopulationDistribution(np.zeros(1), norm_log=0.0)
    n_max = _tail_n_max(n_bar, spec.epsilon_tail)
    if n_max > hard_cap:
        raise CapacityError(
            f"thermal state with n_bar={n_bar:g} needs n_max={n_max}, "
            f"above the hard cap {hard_cap}"
        )
    n = np.arange(n_max + 1, dtype=float)
    lw = n * math.log(n_bar / (1.0 + n_bar)) - math.log1p(n_bar)
    lw -= logsumexp(lw)
    return PopulationDistribution(lw, norm_log=0.0)

"""Model parameters in a single dimensionless convention."""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K


@dataclass(frozen=True)
class PhysicalParams:
    """Rates and intervals of the resonator-ancilla model, divided by omega_m.

    Attributes
    ----------
    g_m : float
        Resonator-ancilla coupling in units of ``omega_m``. Must be positive.
    tau : float
        Free-evolution interval between measurements in units of
        ``1/omega_m``, i.e. the product ``omega_m * tau``. Must be positive.
    g_f : float
        Strength of the resonant driving between the excited and external
        ancilla levels, in units of ``omega_m``. Zero means driving off.
    delta_e : float
        Detuning of the excited ancilla level from the resonator, in units
        of ``omega_m``. Any sign.
    omega_m : float or None
        Resonator angular frequency in rad/s, used only to convert to and
        from SI quantities (seconds, kelvins). ``None`` marks a purely
        dimensionless model with no kelvin scale.
    """

    g_m: float
    tau: float
    g_f: float = 0.0
    delta_e: float = 0.0
    omega_m: float | None = None

    def __post_init__(self):
        if self.omega_m is not None and not 0.0 < self.omega_m < math.inf:
            raise ValueError(f"omega_m must be positive and finite, got {self.omega_m}")
        if not 0.0 < self.g_m < math.inf:
            raise ValueError(f"g_m must be positive and finite, got {self.g_m}")
        if not 0.0 <= self.g_f < math.inf:
            raise ValueError(f"g_f must be nonnegative and finite, got {self.g_f}")
        if not math.isfinite(self.delta_e):
            raise ValueError(f"delta_e must be finite, got {self.delta_e}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    @classmethod
    def from_si(cls, omega_m: float, g_m: float, tau: float,
                g_f: float = 0.0, delta_e: float = 0.0) -> "PhysicalParams":
        """Build from SI inputs: rates in rad/s, ``tau`` in seconds."""
        if not 0.0 < omega_m < math.inf:
            raise ValueError(f"omega_m must be positive and finite, got {omega_m}")
        return cls(
            g_m=g_m / omega_m,
            tau=tau * omega_m,
            g_f=g_f / omega_m,
            delta_e=delta_e / omega_m,
            omega_m=omega_m,
        )

    def to_si(self) -> dict[str, float]:
        """SI view of the parameters; requires the ``omega_m`` anchor."""
        if self.omega_m is None:
            raise ValueError("params carry no omega_m anchor; SI view undefined")
        w = self.omega_m
        return {
            "omega_m_rad_s": w,
            "g_m_rad_s": self.g_m * w,
            "g_f_rad_s": self.g_f * w,
            "delta_e_rad_s": self.delta_e * w,
            "tau_s": self.tau / w,
        }

    # Dimensionless products that enter every cooling coefficient.

    @property
    def gm_tau(self) -> float:
        return self.g_m * self.tau

    @property
    def gf_tau(self) -> float:
        return self.g_f * self.tau

    @property
    def delta_tau(self) -> float:
        return self.delta_e * self.tau

"""The one closed form against two independent references, over all variants.

Each draw picks a variant and raw parameters, switches the parameters the
variant turns off (written out here, not taken from the package), and
compares ``coefficient`` with the 3x3 block eigen-propagator and with a
40-digit mpmath matrix exponential of the same block.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zenocool import VARIANTS, PhysicalParams, coefficient  # noqa: E402
from zenocool.oracle import _oracle_elements  # noqa: E402


def switched(variant, g_m, tau, g_f, delta_e):
    """Driving off for conventional variants, detuning off for resonant ones."""
    return PhysicalParams(
        g_m=g_m, tau=tau,
        g_f=g_f if variant.startswith("driven") else 0.0,
        delta_e=delta_e if variant.endswith("detuned") else 0.0)


def oracle_elements(params, n):
    """<g,n| exp(-i H tau) |g,n> and unitarity defects of ``params``' blocks at levels ``n``."""
    n, g_m, tau, g_f, delta_e = np.broadcast_arrays(
        np.asarray(n, dtype=float), params.g_m, params.tau, params.g_f, params.delta_e)
    return _oracle_elements(n, g_m, tau, g_f, delta_e)


def mp_element(n, params):
    """<g,n| exp(-i H tau) |g,n> of the n-excitation block at 40 digits."""
    if n == 0:
        return 1.0 + 0.0j
    with mpmath.workdps(40):
        c = mpmath.mpf(params.g_m) * mpmath.sqrt(n)
        g_f = mpmath.mpf(params.g_f)
        h = mpmath.matrix([[0, c, 0], [c, mpmath.mpf(params.delta_e), g_f],
                           [0, g_f, 0]])
        u = mpmath.expm(-1j * mpmath.mpf(params.tau) * h)
        return complex(u[0, 0])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(variant=st.sampled_from(VARIANTS),
       log_g_m=st.floats(-5.0, -3.0),
       tau=st.floats(10.0, 1000.0),
       driving=st.floats(0.0, 100.0),
       detuning=st.floats(-50.0, 50.0),
       n=st.integers(0, 3000))
def test_coefficient_matches_eigen_and_mpmath_references(variant, log_g_m, tau,
                                                         driving, detuning, n):
    g_m = 10.0 ** log_g_m
    raw = PhysicalParams(g_m=g_m, tau=tau, g_f=driving * g_m,
                         delta_e=detuning * g_m)
    params = switched(variant, g_m, tau, raw.g_f, raw.delta_e)
    closed = coefficient(variant, raw, n)
    assert abs(closed - oracle_elements(params, n)[0]) <= 1e-10
    assert abs(closed - mp_element(n, params)) <= 1e-13

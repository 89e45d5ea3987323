"""Seeded workload generation.

A workload is a list of operations. Each operation is a JSON-ready dict:
``kind`` is one of ``run``, ``sweep``, ``traj`` or ``oracle`` (the four
runner entry points the CLI dispatches to), ``name`` labels it in reports,
and the remaining keys are exactly what the entry point receives: a raw
config mapping, a trajectory count, an RNG seed, a draw count. The same
seed always gives the same list; the program sees only these values.

Every workload also carries a few small *coverage* operations, so that
each layer the traced run measures does some work on every workload. They
are sized to stay a small share of the pass; each result's ``op_median_s``
shows their share.
"""

from __future__ import annotations

import math
import random

# Anchors of the 100 K runs, in SI units: a 15.6 GHz (angular) resonator
# coupled at 2*pi*1 MHz and measured every 220 resonator periods' worth of
# time, as in the paper's fig. 6.
OMEGA_M = 1.56e10
G_M = 2.0 * math.pi * 1.0e6
TAU_220 = 220.0 / OMEGA_M

FIGURE_RUNS = (
    "fig2", "fig3a", "fig3a_conventional", "fig3b", "fig3b_conventional",
    "fig3c", "fig3c_conventional", "fig4", "fig4_conventional", "fig5a",
    "fig5b", "fig5c", "fig7", "fig7_threshold", "fig9",
)
FIGURE_SWEEPS = ("fig8",)

HOT_RUNS = 8
HOT_STEPS = 300
HOT_T_RANGE = (80.0, 120.0)
HOT_GF_RANGE = (40.0, 60.0)       # g_f in units of g_m
HOT_COVERAGE_TRAJECTORIES = 10_000

FIGURE_COVERAGE_TRAJECTORIES = 20_000
VALIDATION_TRAJECTORIES = 250_000
VALIDATION_REPEATS = 3
ORACLE_DRAWS = 200

# Fixed per workload, so that runs stay comparable. Each keeps at least ten
# samples beyond it at the run length in BENCHMARK.json, and sits inside
# the times of one group of similar operations rather than on the edge
# between two groups, where it would jump between runs. Each result
# records how many samples lay beyond it.
TAIL_PERCENTILE = {"figures-10k": 95, "hot-100k": 75, "validation": 75}

WORKLOADS = tuple(TAIL_PERCENTILE)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _preset(kind: str, name: str, rng: random.Random, **extra) -> dict:
    return {"kind": kind, "name": name,
            "config": {"preset": name, "seed": _seed(rng), **extra}}


def _trajectories(name: str, config: dict, n: int, rng: random.Random) -> dict:
    return {"kind": "traj", "name": name, "config": config,
            "n_trajectories": n, "seed": _seed(rng)}


def _oracle(rng: random.Random) -> dict:
    return {"kind": "oracle", "name": "oracle-check", "draws": ORACLE_DRAWS,
            "seed": _seed(rng)}


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal bins, in random order.

    Stratifying keeps the total work of a pass nearly the same for every
    seed, while each seed still gives different parameters.
    """
    width = (hi - lo) / k
    values = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(values)
    return values


def _hot_config(T: float, gf_over_gm: float, rng: random.Random) -> dict:
    return {
        "omega_m_rad_s": OMEGA_M,
        "g_m": G_M,
        "g_f": gf_over_gm * G_M,
        "delta_e": 0.0,
        "tau": TAU_220,
        "T_kelvin": T,
        "segments": [{"variant": "driven", "steps": HOT_STEPS}],
        "seed": _seed(rng),
    }


def figures_10k(rng: random.Random) -> list[dict]:
    ops = [_preset("run", name, rng) for name in FIGURE_RUNS]
    ops += [_preset("sweep", name, rng) for name in FIGURE_SWEEPS]
    ops.append(_trajectories("traj-fig3c", {"preset": "fig3c", "seed": _seed(rng)},
                             FIGURE_COVERAGE_TRAJECTORIES, rng))
    ops.append(_oracle(rng))
    rng.shuffle(ops)
    return ops


def hot_100k(rng: random.Random) -> list[dict]:
    temps = _stratified(rng, *HOT_T_RANGE, HOT_RUNS)
    drives = _stratified(rng, *HOT_GF_RANGE, HOT_RUNS)
    ops = []
    for i in range(HOT_RUNS):
        config = _hot_config(temps[i], drives[i], rng)
        if i == 0:
            config["outputs"] = {"run_csv": True, "histogram_csv": True,
                                 "coefficients_csv": True}
        ops.append({"kind": "run", "name": f"hot-{i}", "config": config})
    ops.append(_preset("sweep", "fig6_sweep", rng))
    ops.append(_trajectories("traj-fig6", {"preset": "fig6", "seed": _seed(rng)},
                             HOT_COVERAGE_TRAJECTORIES, rng))
    ops.append(_oracle(rng))
    rng.shuffle(ops)
    return ops


def validation(rng: random.Random) -> list[dict]:
    ops = [
        _trajectories(f"traj-{name}-{i}", {"preset": name, "seed": _seed(rng)},
                      VALIDATION_TRAJECTORIES, rng)
        for i in range(VALIDATION_REPEATS) for name in ("fig4", "fig7")
    ]
    ops.append(_oracle(rng))
    ops.append(_preset("run", "fig5c", rng,
                       outputs={"run_csv": True, "histogram_csv": True,
                                "coefficients_csv": True}))
    ops.append(_preset("sweep", "fig8", rng))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"figures-10k": figures_10k, "hot-100k": hot_100k,
               "validation": validation}


def generate(workload: str, seed: int) -> list[dict]:
    """The operation list of ``workload`` for ``seed``; deterministic."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    # The workload name enters the seed, so workloads do not share draws.
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))

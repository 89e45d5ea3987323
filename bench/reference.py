"""Independent reference and correctness gate for every operation.

The reference does not use the program's coefficient formulas or its
evolution engine. Each measurement multiplies the weight of Fock level n
by |u00(n)|^2, where u00(n) = <g,n| exp(-i H tau) |g,n> comes from the
eigendecomposition of the 3x3 block of the model Hamiltonian in the
n-excitation subspace. A segment applied k times therefore adds
k * log|u00(n)|^2 to the thermal log-weights, and the terminal
observables follow in closed form.

From the program the reference takes only how it read the config (the
segment parameters), the Fock truncation n_max it chose, and the realized
number of measurements per segment, so ``until_n_bar`` switches count.

``prepare`` computes what an operation must produce, before timing;
``check`` compares one execution's files against it and returns the list
of mismatches (empty when the operation passes).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

REL_TOL = 1e-9
# Absolute floor for quantities that are exactly 0 in exact arithmetic,
# such as the log survival of a run with no measurements.
ABS_TOL = 1e-12
COEF_ABS_TOL = 1e-9
HIST_TV_TOL = 1e-9
# Each Monte Carlo estimate must lie within this many standard errors of
# the exact survival probability.
TRAJECTORY_Z = 6.0


def ground_elements(g_m: float, g_f: float, delta_e: float, tau: float,
                    n) -> np.ndarray:
    """u00(n) for each integer n in ``n``, from 3x3 block eigensolves.

    The n-excitation block in the basis {|g,n>, |e,n-1>, |f,n-1>} is
    ``[[0, g_m sqrt(n), 0], [g_m sqrt(n), delta_e, g_f], [0, g_f, 0]]``;
    the n = 0 subspace is |g,0> alone, with element exactly 1.
    """
    n = np.asarray(n, dtype=float)
    out = np.ones(n.shape, dtype=complex)
    pos = n > 0
    c = g_m * np.sqrt(n[pos])
    h = np.zeros((c.size, 3, 3))
    h[:, 0, 1] = h[:, 1, 0] = c
    h[:, 1, 1] = delta_e
    h[:, 1, 2] = h[:, 2, 1] = g_f
    evals, vecs = np.linalg.eigh(h)
    out[pos] = np.sum(vecs[:, 0, :] ** 2 * np.exp(-1j * evals * tau), axis=1)
    return out


def variant_params(variant: str, params) -> tuple[float, float, float, float]:
    """(g_m, g_f, delta_e, tau) that define a variant's coefficient.

    Conventional variants have the driving off; resonant ones have no
    detuning.
    """
    g_f = 0.0 if variant.startswith("conventional") else params.g_f
    delta_e = params.delta_e if variant.endswith("detuned") else 0.0
    return params.g_m, g_f, delta_e, params.tau


def thermal_occupation(omega_m: float, temperature: float) -> float:
    return 1.0 / math.expm1(HBAR * omega_m / (KB * temperature))


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    if top == -math.inf:
        return top
    return top + math.log(float(np.sum(np.exp(x - top))))


def thermal_log_weights(n_bar: float, n_max: int) -> np.ndarray:
    """Normalized log-weights of the geometric state truncated at n_max."""
    lw = np.full(n_max + 1, -math.inf)
    if n_bar == 0.0:
        lw[0] = 0.0
        return lw
    n = np.arange(n_max + 1, dtype=float)
    lw = n * math.log(n_bar / (1.0 + n_bar)) - math.log1p(n_bar)
    return lw - _logsumexp(lw)


def evolve(n_bar: float, n_max: int, legs) -> np.ndarray:
    """Log-weights after each (variant, params, k) leg is applied k times."""
    lw = thermal_log_weights(n_bar, n_max)
    n = np.arange(n_max + 1)
    for variant, params, k in legs:
        if k == 0:
            continue
        u = ground_elements(*variant_params(variant, params), n)
        with np.errstate(divide="ignore"):
            lw = lw + k * np.log(np.abs(u) ** 2)
    return lw


def terminal(lw: np.ndarray) -> dict:
    """n_bar, ground fidelity, log survival and populations of log-weights."""
    log_survival = _logsumexp(lw)
    p = np.exp(lw - log_survival)
    return {"n_bar": float(np.dot(np.arange(p.size, dtype=float), p)),
            "ground": float(p[0]), "log_survival": log_survival, "p": p}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_terminal(label: str, got: dict, want: dict) -> list[str]:
    bad = []
    for key in ("n_bar", "ground", "log_survival"):
        if not _close(got[key], want[key]):
            bad.append(f"{label}: {key} {got[key]!r} != reference {want[key]!r}")
    return bad


def _n_bar_of(config) -> float:
    if config.temperature is not None:
        return thermal_occupation(config.params.omega_m, config.temperature)
    return config.n_bar_th


def _fill_legs(segments, total: int) -> list:
    """Split ``total`` measurements over segments in order, without switches."""
    legs = []
    for seg in segments:
        if seg.until_n_bar is not None:
            raise ValueError("a conditional switch needs the realized segment column")
        k = min(seg.steps, total)
        legs.append((seg.variant, seg.params, k))
        total -= k
    return legs


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _manifest(out_dir: Path) -> dict:
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_terminal(row: list[str]) -> dict:
    # RUN_COLUMNS: N, n_bar, F_ground, P_g, T_eff_K, F_th, segment
    p_g = float(row[3])
    return {"n_bar": float(row[1]), "ground": float(row[2]),
            "log_survival": math.log(p_g) if p_g > 0.0 else -math.inf}


# --------------------------------------------------------------------------
# Expected results, computed once per operation before timing.

def prepare(op: dict, out_dir: Path, zc) -> dict:
    """What ``op`` must produce, from the files of one untimed execution.

    ``zc`` is the imported ``zenocool`` package, used only to read the
    config and to ask for the truncation of sweep points.
    """
    kind = op["kind"]
    if kind == "oracle":
        return {}
    config = zc.parse_config_data(op["config"])
    if kind == "run":
        return _prepare_run(config, out_dir)
    if kind == "sweep":
        return _prepare_sweep(op["config"], config, zc)
    if kind == "traj":
        manifest = _manifest(out_dir)["resolved"]
        n_steps = manifest["n_steps"]
        lw = evolve(_n_bar_of(config), manifest["n_max"],
                    _fill_legs(config.schedule().segments, n_steps))
        return {"n_max": manifest["n_max"], "n_steps": n_steps,
                "terminal": terminal(lw)}
    raise ValueError(f"unknown operation kind {kind!r}")


def _prepare_run(config, out_dir: Path) -> dict:
    expected: dict = {}
    outputs = config.outputs
    has_thermal = config.temperature is not None or config.n_bar_th is not None
    if has_thermal:
        n_max = _manifest(out_dir)["resolved"]["n_max"]
        rows = _read_rows(out_dir / "run.csv")[1:]
        counts = [0] * max(1, len(config.segments))
        for row in rows[1:]:
            counts[int(row[6])] += 1
        segments = config.schedule().segments if config.segments else ()
        legs = [(s.variant, s.params, k) for s, k in zip(segments, counts)]
        result = terminal(evolve(_n_bar_of(config), n_max, legs))
        expected.update(n_max=n_max, counts=counts, terminal=result,
                        histogram=outputs.histogram_csv)
    if outputs.coefficients_csv:
        tables = {}
        variants = outputs.variants or tuple(dict.fromkeys(
            s.variant for s in config.segments))
        table_n_max = outputs.n_max if outputs.n_max is not None else expected["n_max"]
        for variant in variants:
            params = next((config.segment_params(s) for s in config.segments
                           if s.variant == variant), config.params)
            tables[variant] = ground_elements(*variant_params(variant, params),
                                              np.arange(table_n_max + 1))
        expected.update(tables=tables, powers=outputs.powers)
    return expected


def _sweep_point_config(raw: dict, axis: str, value: float, config) -> dict:
    """The raw config of one sweep point, as a plain run."""
    point = {k: v for k, v in raw.items() if k != "sweep"}
    if axis == "T":
        point["T_kelvin"] = value
    elif axis == "g_f":
        # Grid values are driving strengths in units of g_m.
        g_m = config.params.g_m * (config.params.omega_m if config.si_units else 1.0)
        point["g_f"] = value * g_m
    else:
        raise ValueError(f"the gate does not cover sweep axis {axis!r}")
    return point


def _prepare_sweep(raw: dict, config, zc) -> dict:
    points = []
    for value in config.sweep.values:
        point = zc.parse_config_data(_sweep_point_config(raw, config.sweep.axis,
                                                         value, config))
        schedule = point.schedule()
        n_max = zc.initial_state(point.thermal_spec(), schedule,
                                 hard_cap=point.hard_cap).n_max
        steps = schedule.total_steps
        result = terminal(evolve(_n_bar_of(point), n_max,
                                 _fill_legs(schedule.segments, steps)))
        points.append({"value": value, "n_max": n_max, "steps": steps,
                       "terminal": result})
    return {"points": points}


# --------------------------------------------------------------------------
# Per-execution checks.

def check(op: dict, out_dir: Path, expected: dict) -> list[str]:
    """Mismatches between one execution's files and the reference."""
    kind = op["kind"]
    if kind == "run":
        return _check_run(out_dir, expected)
    if kind == "sweep":
        return _check_sweep(out_dir, expected)
    if kind == "traj":
        return _check_trajectories(out_dir, expected)
    if kind == "oracle":
        return _check_oracle(out_dir)
    raise ValueError(f"unknown operation kind {kind!r}")


def _check_run(out_dir: Path, expected: dict) -> list[str]:
    bad = []
    if "terminal" in expected:
        rows = _read_rows(out_dir / "run.csv")[1:]
        counts = [0] * len(expected["counts"])
        for row in rows[1:]:
            counts[int(row[6])] += 1
        if counts != expected["counts"]:
            bad.append(f"run.csv: segment lengths {counts} != {expected['counts']}")
        bad += _compare_terminal("run.csv", _run_terminal(rows[-1]),
                                 expected["terminal"])
        if expected["histogram"]:
            p = np.loadtxt(out_dir / "histogram.csv", delimiter=",", skiprows=1,
                           ndmin=2)[:, 1]
            want = expected["terminal"]["p"]
            if p.size != want.size:
                bad.append(f"histogram.csv: {p.size} levels != {want.size}")
            elif float(np.sum(np.abs(p - want))) > HIST_TV_TOL:
                bad.append(f"histogram.csv: total variation "
                           f"{float(np.sum(np.abs(p - want))):g} > {HIST_TV_TOL:g}")
    for variant, u in expected.get("tables", {}).items():
        table = np.loadtxt(out_dir / f"coefficients_{variant}.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        abs2 = np.abs(u) ** 2
        want = np.column_stack([np.arange(u.size), u.real, u.imag, abs2]
                               + [abs2 ** p for p in expected["powers"]])
        if table.shape != want.shape:
            bad.append(f"coefficients_{variant}.csv: shape {table.shape} != {want.shape}")
        elif float(np.max(np.abs(table - want))) > COEF_ABS_TOL:
            bad.append(f"coefficients_{variant}.csv: max error "
                       f"{float(np.max(np.abs(table - want))):g} > {COEF_ABS_TOL:g}")
    return bad


def _check_sweep(out_dir: Path, expected: dict) -> list[str]:
    rows = _read_rows(out_dir / "sweep.csv")[1:]
    points = expected["points"]
    if len(rows) != len(points):
        return [f"sweep.csv: {len(rows)} points != {len(points)}"]
    bad = []
    for row, point in zip(rows, points):
        label = f"sweep.csv {row[0]}={row[1]}"
        if row[-1]:
            bad.append(f"{label}: error {row[-1]}")
            continue
        if float(row[1]) != point["value"] or int(row[2]) != point["steps"]:
            bad.append(f"{label}: point or step count differs from the grid")
            continue
        bad += _compare_terminal(label, _run_terminal(row[2:]), point["terminal"])
    return bad


def _check_trajectories(out_dir: Path, expected: dict) -> list[str]:
    data = np.loadtxt(out_dir / "trajectories.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    if data.shape[0] != expected["n_steps"] + 1:
        return [f"trajectories.csv: {data.shape[0]} rows != {expected['n_steps'] + 1}"]
    bad = []
    n = _manifest(out_dir)["resolved"]["n_trajectories"]
    p_hat, stderr, p_exact = data[:, 1], data[:, 2], data[:, 3]
    want = expected["terminal"]["log_survival"]
    if not _close(math.log(p_exact[-1]), want):
        bad.append(f"trajectories.csv: terminal log p_exact "
                   f"{math.log(p_exact[-1])!r} != reference {want!r}")
    sigma = np.maximum(stderr, np.sqrt(p_exact * (1.0 - p_exact) / n))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(p_hat == p_exact, 0.0, np.abs(p_hat - p_exact) / sigma)
    worst = int(np.argmax(z))
    if not z[worst] <= TRAJECTORY_Z:
        bad.append(f"trajectories.csv: p_hat at N={worst} is {z[worst]:.2f} "
                   f"standard errors from p_exact (limit {TRAJECTORY_Z})")
    return bad


def _check_oracle(out_dir: Path) -> list[str]:
    with open(out_dir / "oracle_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    bad = []
    for row in report["rows"]:
        u = ground_elements(row["g_m"], row["g_f"], row["delta_e"], row["tau"],
                            [row["n"]])[0]
        closed = complex(*row["closed_form"])
        if abs(closed - u) > COEF_ABS_TOL:
            bad.append(f"oracle_report.json: {row['variant']} n={row['n']} closed "
                       f"form {closed!r} != reference {u!r}")
    if report["max_abs_error"] > report["tolerance"]:
        bad.append(f"oracle_report.json: max_abs_error {report['max_abs_error']:g} "
                   f"above its tolerance")
    return bad

"""Experiment orchestration and persistent CSV/JSON artifacts.

Numbers are written with 17 significant digits so regression tolerances on
the files are meaningful; identical config and seed produce byte-identical
CSV output.
"""

from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from itertools import repeat, zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .fock import PopulationDistribution
from .coefficients import CoefficientTable, build_table, variant_of
from .protocol import (
    ProtocolSchedule,
    RunResult,
    Segment,
    initial_state,
    run,
    sweep,
)
from .oracle import compare_random_draws, sample_trajectories
from .config import ConfigError, ExperimentConfig

RUN_COLUMNS = ("N", "n_bar", "F_ground", "P_g", "T_eff_K", "F_th", "segment")


_RECORD_FMT = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d"

# Largest unitarity defect of an oracle propagator that run_oracle_check accepts.
UNITARITY_TOLERANCE = 1e-12


def _write_csv(path: Path, header, row_fmt: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        line = row_fmt + "\n"
        fh.writelines(line % row for row in rows)


def _probe_writable(out_dir: Path):
    """Fail on unwritable output locations before any computation starts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    probe.touch()
    probe.unlink()


def write_run_csv(path: Path, result: RunResult):
    _write_csv(path, RUN_COLUMNS, _RECORD_FMT, result.records.tolist())


def write_histogram_csv(path: Path, d: PopulationDistribution):
    p = d.probabilities()
    _write_csv(path, ("n", "p_n"), "%d,%.17g", enumerate(p.tolist()))


def write_coefficients_csv(path: Path, table: CoefficientTable, powers):
    """One row per level, written column by column: each column's cells are
    formatted once, and the power-1 column reuses the ``abs2`` cells."""
    header = ["n", "re", "im", "abs2"] + [f"abs2_pow_{2 * N}" for N in powers]
    values = table.values
    abs2 = (np.abs(values) ** 2).tolist()
    cell = "%.17g".__mod__
    abs2_cells = list(map(cell, abs2))
    columns = [map(str, range(len(abs2))), map(cell, values.real.tolist()),
               map(cell, values.imag.tolist()), abs2_cells]
    # A scalar power per element: numpy's array ** differs in the last ulp.
    columns += [abs2_cells if N == 1 else map(cell, map(pow, abs2, repeat(N)))
                for N in powers]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _dimensionless_params(params) -> dict:
    return {"g_m": params.g_m, "g_f": params.g_f, "delta_e": params.delta_e,
            "tau": params.tau, "omega_m_rad_s": params.omega_m}


def _write_json(path: Path, data: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _artifacts(out_dir, config: ExperimentConfig, command: str):
    """Probe ``out_dir``, time the body and then write its ``manifest.json``.

    Yields ``(out_dir, outputs, resolved)``: the body names each file it
    writes in ``outputs`` and adds what it resolved to ``resolved``, which
    starts with the config's params and seed. A body that raises leaves no
    manifest.
    """
    out_dir = Path(out_dir)
    _probe_writable(out_dir)
    start = time.perf_counter()
    outputs: dict[str, str] = {}
    resolved = {"params": _dimensionless_params(config.params), "seed": config.seed}
    yield out_dir, outputs, resolved
    path = out_dir / "manifest.json"
    _write_json(path, {
        "package": "zenocool",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "resolved": resolved,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - start,
    })
    outputs["manifest"] = str(path)


def _write_tables(config: ExperimentConfig, schedule: ProtocolSchedule, tables,
                  out_dir: Path, default_n_max: int | None, outputs: dict[str, str]):
    """One table per variant, at the params of the variant's first segment
    (the config's own params for a variant outside the schedule). That
    segment's table in the run's ``tables`` is written where it has the
    export's n_max; any other table is built here."""
    first = {}
    for s, table in zip_longest(schedule.segments, tables):
        first.setdefault(s.variant, (s.params, table))
    n_max = config.outputs.n_max if config.outputs.n_max is not None else default_n_max
    if n_max is None:
        raise ConfigError("coefficient export needs outputs.n_max when there "
                          "is no thermal state to size the truncation")
    for variant in config.outputs.variants or tuple(first):
        params, table = first.get(variant, (config.params, None))
        if table is None or table.n_max != n_max:
            table = build_table(variant, params, n_max)
        name = f"coefficients_{variant}.csv"
        write_coefficients_csv(out_dir / name, table, config.outputs.powers)
        outputs[name] = str(out_dir / name)


def run_experiment(config: ExperimentConfig, out_dir) -> dict[str, str]:
    """Run the configured schedule and write every requested artifact.

    Returns a name -> path mapping of the files written. A zero-segment
    config still produces the single initial-state record (and histogram,
    if requested); a config with no thermal state at all can only export
    coefficient tables.
    """
    has_thermal = config.temperature is not None or config.n_bar_th is not None
    with _artifacts(out_dir, config, "run") as (out_dir, outputs, resolved):
        if not has_thermal and (config.segments or config.outputs.run_csv
                                and not config.outputs.coefficients_csv):
            raise ConfigError("running a schedule needs a thermal state: "
                              "set T_kelvin or n_bar_th")
        if config.segments:
            schedule = config.schedule()
        else:
            # Observation-only: one zero-step segment of the base model.
            schedule = ProtocolSchedule((Segment(variant_of(config.params),
                                                 config.params, 0),))
        n_max, tables = None, ()
        if has_thermal:
            thermal = config.thermal_spec()
            initial = initial_state(thermal, schedule, hard_cap=config.hard_cap)
            n_max = initial.n_max
            result = run(initial, schedule)
            tables = result.tables
            if config.outputs.run_csv:
                path = out_dir / "run.csv"
                write_run_csv(path, result)
                outputs["run_csv"] = str(path)
            if config.outputs.histogram_csv:
                path = out_dir / "histogram.csv"
                write_histogram_csv(path, result.final)
                outputs["histogram_csv"] = str(path)
            resolved.update({
                "n_bar_th": thermal.n_bar,
                "epsilon_tail": config.epsilon_tail,
                "n_max": n_max,
                "segments": [
                    {"variant": s.variant, "steps": s.steps, "steps_run": k,
                     "until_n_bar": s.until_n_bar,
                     "params": _dimensionless_params(s.params)}
                    for s, k in zip(schedule.segments, result.steps_run)
                ],
                "measurements_recorded": len(result.records) - 1,
                "terminated_early": result.terminated_early,
            })
        if config.outputs.coefficients_csv:
            _write_tables(config, schedule, tables, out_dir, n_max, outputs)
            if config.outputs.n_max is not None:
                resolved["table_n_max"] = config.outputs.n_max
    return outputs


def run_sweep(config: ExperimentConfig, out_dir) -> dict[str, str]:
    """Independent runs over the configured grid, one terminal row each."""
    if config.sweep is None:
        raise ConfigError("config has no 'sweep' block")
    with _artifacts(out_dir, config, "sweep") as (out_dir, outputs, resolved):
        points = sweep(config.sweep.axis, config.sweep.values, config.thermal_spec(),
                       config.schedule(), hard_cap=config.hard_cap)
        path = out_dir / "sweep.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("axis", "value") + RUN_COLUMNS + ("error",))
            for pt in points:
                if pt.record is None:
                    cells = [""] * len(RUN_COLUMNS)
                else:
                    cells = (_RECORD_FMT % pt.record.item()).split(",")
                writer.writerow([pt.axis, format(pt.value, ".17g"), *cells, pt.error or ""])
        outputs["sweep_csv"] = str(path)
        resolved.update({
            "axis": config.sweep.axis,
            "values": list(config.sweep.values),
            "failures": sum(1 for p in points if p.error is not None),
        })
    return outputs


def run_oracle_check(out_dir, *, draws: int = 200, seed: int = 7,
                     tolerance: float = 1e-10) -> dict:
    """Closed form versus eigen-exponential report; raises if out of tolerance."""
    out_dir = Path(out_dir)
    _probe_writable(out_dir)
    start = time.perf_counter()
    rows = compare_random_draws(draws, seed)

    def worst(key):  # np.max, unlike max, carries a NaN through to the checks
        return float(np.max([r[key] for r in rows]))
    report = {
        "seed": seed,
        "draws": draws,
        "max_abs_error": worst("abs_error"),
        "max_phase_aligned_error": worst("phase_aligned_error"),
        "max_unitarity_defect": worst("unitarity_defect"),
        "tolerance": tolerance,
        "unitarity_tolerance": UNITARITY_TOLERANCE,
        "rows": rows,
        "wall_time_s": time.perf_counter() - start,
        "package": "zenocool",
        "version": __version__,
    }
    _write_json(out_dir / "oracle_report.json", report)
    # "not <=" so that a NaN error or tolerance fails the check
    if not report["max_abs_error"] <= tolerance:
        raise FloatingPointError(
            f"oracle disagreement {report['max_abs_error']:g} exceeds {tolerance:g}"
        )
    if not report["max_unitarity_defect"] <= UNITARITY_TOLERANCE:
        raise FloatingPointError(
            f"unitarity defect {report['max_unitarity_defect']:g} exceeds "
            f"{UNITARITY_TOLERANCE:g}"
        )
    return report


def run_trajectories(config: ExperimentConfig, out_dir, *,
                     n_trajectories: int, seed: int | None = None) -> dict[str, str]:
    """Monte Carlo survival estimates next to the deterministic curve."""
    seed = config.seed if seed is None else seed
    with _artifacts(out_dir, config, "trajectories") as (out_dir, outputs, resolved):
        thermal = config.thermal_spec()
        schedule = config.schedule()
        initial = initial_state(thermal, schedule, hard_cap=config.hard_cap)
        batch = sample_trajectories(initial, schedule,
                                    n_trajectories=n_trajectories, seed=seed)
        estimates = batch.estimates()
        errors = batch.standard_errors()
        path = out_dir / "trajectories.csv"
        rows = ((N, estimates[N], errors[N], batch.exact_survival[N])
                for N in range(batch.n_steps + 1))
        _write_csv(path, ("N", "p_hat", "stderr", "p_exact"), "%d,%.17g,%.17g,%.17g", rows)
        outputs["trajectories_csv"] = str(path)
        resolved.update({
            "n_bar_th": thermal.n_bar,
            "n_max": initial.n_max,
            "n_trajectories": batch.n_trajectories,
            "n_steps": batch.n_steps,
            "seed": seed,
            "stream_ids": list(batch.stream_ids),
        })
    return outputs

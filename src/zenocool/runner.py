"""Experiment orchestration and persistent CSV/JSON artifacts.

Every CSV number is written exactly as ``"%.17g" % x`` writes it (an
integer column as ``"%d"``), so regression tolerances on the files are
meaningful and identical config and seed produce byte-identical CSV
output. One streaming writer, ``_write_csv``, writes each table's header
and the chunks of CSV lines that ``_cells.lines`` cuts and formats;
``sweep.csv`` takes its numeric cells from the same generator.

Every JSON file (each ``manifest.json`` and ``oracle_report.json``) is
written by ``_write_json`` as one line of key-sorted JSON;
``python -m json.tool FILE`` pretty-prints it.

Every artifact goes to disk through one writer, ``_write``, which
rewrites an existing file in place and then cuts it at its new length.
A rerun into the same out-dir, as every benchmark pass is, would
otherwise truncate each file to zero, or rename a new one over it, and
ext4's default ``auto_da_alloc`` starts writeback of such a file when it
is closed: about 100 µs a file, against about 10 µs in place.

Each call opens each of its files once and creates no other file. The
open of the JSON file it writes last (``manifest.json``, or
``oracle_report.json`` for the oracle check) is the probe that the
out-dir is writable: it comes before any computation, and the file is
later written through that open (:func:`_claimed`). A call that raises
removes that file; one killed mid-computation can leave an empty
``manifest.json`` in a fresh out-dir.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from contextlib import contextmanager
from itertools import chain, repeat, zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from ._cells import lines
from .fock import PopulationDistribution
from .coefficients import CoefficientTable, build_table, variant_of
from .protocol import (
    ProtocolSchedule,
    RunResult,
    Segment,
    StepRecord,
    initial_state,
    run,
    sweep,
)
from .oracle import _check_draws, compare_random_draws, sample_trajectories
from .config import ConfigError, ExperimentConfig

RUN_COLUMNS = ("N", "n_bar", "F_ground", "P_g", "T_eff_K", "F_th", "segment")

# Largest unitarity defect of an oracle propagator that run_oracle_check accepts.
UNITARITY_TOLERANCE = 1e-12


# every artifact's open: it creates a missing file and keeps an existing one's bytes
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: Path, chunks, fh=None):
    """Write the byte strings ``chunks`` to ``path`` over what it holds,
    then cut it at their end; a symlink's target is rewritten. ``fh``,
    where given, is ``path`` as :func:`_claimed` opened it, and is closed
    here. The cut also runs when ``chunks`` raises, so a failed write
    leaves what it wrote and nothing of the old file, as a truncating
    open did."""
    if fh is None:
        fh = open(os.open(path, _WRITE_FLAGS, 0o666), "wb")
    with fh:
        try:
            fh.writelines(chunks)
        finally:
            fh.truncate()


def _write_csv(path: Path, header, columns):
    """Write the equal-length int or float arrays ``columns`` under ``header``."""
    _write(path, chain([(",".join(header) + "\n").encode()], lines(columns)))


@contextmanager
def _claimed(path: Path):
    """Open ``path`` for :func:`_write`, making its directory first, and
    yield the open file, which the body writes last; it is closed however
    the body ends.

    This open is the probe that the out-dir is writable: it fails before
    any computation and creates no file but ``path``. A body that raises
    removes ``path``, also one an earlier call left there, which would
    describe files this call may have partly rewritten.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(os.open(path, _WRITE_FLAGS, 0o666), "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _record_columns(records: np.ndarray) -> list[np.ndarray]:
    records = records.view(np.ndarray)  # a recarray's field lookup is slower
    return [records[name] for name in StepRecord.names]


def write_run_csv(path: Path, result: RunResult):
    _write_csv(path, RUN_COLUMNS, _record_columns(result.records))


def write_histogram_csv(path: Path, d: PopulationDistribution):
    p = d.probabilities()
    _write_csv(path, ("n", "p_n"), (np.arange(p.size), p))


def write_coefficients_csv(path: Path, table: CoefficientTable, powers):
    """One row per level: n, Re c_n, Im c_n, |c_n|² and |c_n|^(2N) for each
    N in ``powers``. Each power is Python's scalar ``pow`` of the |c_n|²
    value (numpy's array ``**`` can differ in the last ulp); power 1 is
    the ``abs2`` column itself."""
    header = ["n", "re", "im", "abs2"] + [f"abs2_pow_{2 * N}" for N in powers]
    abs2 = table.magnitude ** 2
    columns = [np.arange(abs2.size), table.values.real, table.values.imag, abs2]
    columns += [abs2 if N == 1 else
                np.fromiter(map(pow, abs2.tolist(), repeat(N)), np.float64, abs2.size)
                for N in powers]
    _write_csv(path, header, columns)


def _dimensionless_params(params) -> dict:
    return {"g_m": params.g_m, "g_f": params.g_f, "delta_e": params.delta_e,
            "tau": params.tau, "omega_m_rad_s": params.omega_m}


def _write_json(path: Path, data: dict, fh=None):
    """A one-shot ``dumps`` without ``indent`` runs json's C encoder;
    ``fh`` is :func:`_write`'s."""
    _write(path, [(json.dumps(data, sort_keys=True) + "\n").encode()], fh)


@contextmanager
def _artifacts(out_dir, config: ExperimentConfig, command: str):
    """Open ``out_dir``'s ``manifest.json`` (:func:`_claimed`, the probe),
    time the body and then write the manifest through that open file.

    Yields ``(out_dir, outputs, resolved)``: the body names each file it
    writes in ``outputs`` and adds what it resolved to ``resolved``, which
    starts with the config's params and seed. A body that raises leaves no
    manifest.
    """
    out_dir = Path(out_dir)
    path = out_dir / "manifest.json"
    with _claimed(path) as fh:
        start = time.perf_counter()
        outputs: dict[str, str] = {}
        resolved = {"params": _dimensionless_params(config.params), "seed": config.seed}
        yield out_dir, outputs, resolved
        _write_json(path, {
            "package": "zenocool",
            "version": __version__,
            "command": command,
            "config": config.to_dict(),
            "resolved": resolved,
            "outputs": outputs,
            "wall_time_s": time.perf_counter() - start,
        }, fh=fh)
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
    with _artifacts(out_dir, config, "run") as (out_dir, outputs, resolved):
        outs = config.outputs
        # every segment and histogram needs a start, and so does run.csv
        # unless a coefficient export is all that is asked for
        needs_start = (config.segments or outs.histogram_csv
                       or outs.run_csv and not outs.coefficients_csv)
        thermal = config.thermal_spec() if needs_start or config.has_thermal else None
        # a zero-segment config observes its start through one zero-step
        # segment of the base model, which the manifest does not list
        schedule = (config.schedule() if config.segments else
                    ProtocolSchedule((Segment(variant_of(config.params), config.params, 0),)))
        n_max, tables = None, ()
        if thermal is not None:
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
                    for s, k in zip(schedule.segments if config.segments else (),
                                    result.steps_run)
                ],
                "measurements_recorded": len(result.records) - 1,
                "terminated_early": result.terminated_early,
            })
        elif outs.run_csv:
            resolved["skipped_outputs"] = {"run_csv": "config has no thermal state"}
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
        points = sweep(config.sweep.axis, config.sweep_values(), config.thermal_spec(),
                       config.schedule(), hard_cap=config.hard_cap)
        path = out_dir / "sweep.csv"
        # the numeric cells from the CSV formatter, the error text quoted by csv;
        # the values in the file's units
        values = b"".join(lines([np.array(config.sweep.values, dtype=np.float64)]))
        records = np.array([pt.record for pt in points if pt.record is not None],
                           dtype=StepRecord)
        rows = iter(b"".join(lines(_record_columns(records))).decode().splitlines())
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("axis", "value") + RUN_COLUMNS + ("error",))
        for pt, value in zip(points, values.decode().splitlines()):
            cells = [""] * len(RUN_COLUMNS) if pt.record is None else next(rows).split(",")
            writer.writerow([pt.axis, value, *cells, pt.error or ""])
        _write(path, [text.getvalue().encode()])
        outputs["sweep_csv"] = str(path)
        resolved.update({
            "axis": config.sweep.axis,
            "values": list(config.sweep.values),
            "failures": sum(1 for p in points if p.error is not None),
        })
    return outputs


def run_oracle_check(out_dir, *, draws: int = 200, seed: int = 7,
                     tolerance: float = 1e-10) -> dict:
    """Closed form versus eigen-exponential report; raises if out of tolerance.

    ``oracle_report.json``'s own open is the probe (:func:`_claimed`): a
    call whose draws raise leaves no report.
    """
    _check_draws(draws)
    path = Path(out_dir) / "oracle_report.json"
    with _claimed(path) as fh:
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
        _write_json(path, report, fh=fh)
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
        path = out_dir / "trajectories.csv"
        _write_csv(path, ("N", "p_hat", "stderr", "p_exact"),
                   (np.arange(batch.n_steps + 1), batch.estimates(), batch.standard_errors(),
                    batch.exact_survival))
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

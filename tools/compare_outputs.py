"""Write every preset's outputs, or compare two such output trees.

A change that should keep the numbers shows it by writing the outputs of
the old and the new source and comparing them:

    PYTHONPATH=<old>/src python tools/compare_outputs.py write /tmp/old
    PYTHONPATH=src python tools/compare_outputs.py write /tmp/new
    python tools/compare_outputs.py diff /tmp/old /tmp/new

``write`` runs every preset with one fixed seed and forces the run,
histogram and coefficient exports of every preset with a thermal state;
it also writes each sweep, Monte Carlo trajectories for every preset
with a schedule, each preset's cooling-free levels (``cooling_free.json``:
the ``cooling_free_report`` entries of every variant at the preset's
params and n_max) and one oracle report. ``diff`` prints, for every file,
whether it is byte-identical and otherwise the largest relative change
|a - b| / max(|a|, |b|) per column (CSV) or per key path (JSON; list
indices collapse to ``[]``). A text cell that differs counts as ``inf``,
as does a file missing from the new tree or a JSON key found in one tree
only; a file found in the new tree alone (a new preset's) is listed as
"only in new" and not counted. ``wall_time_s`` and the ``outputs`` paths
are skipped. ``diff`` exits 1 when any change exceeds ``THRESHOLD``
relative, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

SKIPPED_KEYS = {"wall_time_s", "outputs"}
SEED = 5
TRAJECTORIES = 140_000  # three RNG streams of 65,536, the last one partial
ORACLE_DRAWS = 200
THRESHOLD = 1e-12


def write_outputs(out_dir, presets=None):
    """Write the outputs of ``presets`` under ``out_dir``.

    With no ``presets``, every preset and one oracle report.
    """
    from zenocool import (PRESETS, VARIANTS, cooling_free_report, parse_config_data,
                          run_experiment, run_oracle_check, run_sweep,
                          run_trajectories, thermal_distribution)

    out_dir = Path(out_dir)
    for name in presets if presets is not None else sorted(PRESETS):
        config = replace(parse_config_data({"preset": name}), seed=SEED)
        if config.has_thermal:
            config = replace(config, outputs=replace(
                config.outputs, run_csv=True, histogram_csv=True, coefficients_csv=True))
        run_experiment(config, out_dir / name / "run")
        if config.sweep is not None:
            run_sweep(config, out_dir / name / "sweep")
        if config.has_thermal and config.segments:
            run_trajectories(config, out_dir / name / "trajectories",
                             n_trajectories=TRAJECTORIES, seed=SEED)
        n_max = (config.outputs.n_max if config.outputs.n_max is not None else
                 thermal_distribution(config.thermal_spec(), hard_cap=config.hard_cap).n_max)
        levels = {v: [asdict(e) for e in cooling_free_report(v, config.params, n_max).entries]
                  for v in VARIANTS}
        (out_dir / name / "cooling_free.json").write_text(
            json.dumps(levels, indent=2, sort_keys=True) + "\n")
    if presets is None:
        run_oracle_check(out_dir / "oracle", draws=ORACLE_DRAWS, seed=SEED)


def _relative_change(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _csv_changes(old: Path, new: Path) -> dict[str, float]:
    with open(old, newline="") as fa, open(new, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    header_a, header_b = rows_a.pop(0), rows_b.pop(0)
    if header_a != header_b:
        return {"header": math.inf}
    changes = dict.fromkeys(header_a, 0.0)
    for row_a, row_b in zip(rows_a, rows_b):
        for column, a, b in zip(header_a, row_a, row_b):
            changes[column] = max(changes[column], _relative_change(a, b))
    if len(rows_a) != len(rows_b):
        changes[f"rows ({len(rows_a)} -> {len(rows_b)})"] = math.inf
    return changes


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in SKIPPED_KEYS:
                yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_changes(old: Path, new: Path) -> dict[str, float]:
    leaves_a = dict(_leaves(json.loads(old.read_text())))
    leaves_b = dict(_leaves(json.loads(new.read_text())))
    changes: dict[str, float] = {}
    for path in leaves_a.keys() | leaves_b.keys():
        key = re.sub(r"\[\d+\]", "[]", path)
        if path in leaves_a and path in leaves_b:
            change = _relative_change(str(leaves_a[path]), str(leaves_b[path]))
        else:
            change = math.inf
        changes[key] = max(changes.get(key, 0.0), change)
    return changes


def compare_trees(old_dir, new_dir) -> dict[str, dict[str, float] | str]:
    """Per file: "identical", "only in old"/"only in new", or column -> change."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    files_a = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    files_b = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    report: dict[str, dict[str, float] | str] = {}
    for rel in sorted(files_a | files_b):
        old, new = old_dir / rel, new_dir / rel
        if rel not in files_b:
            report[str(rel)] = "only in old"
        elif rel not in files_a:
            report[str(rel)] = "only in new"
        elif old.read_bytes() == new.read_bytes():
            report[str(rel)] = "identical"
        elif rel.suffix == ".csv":
            report[str(rel)] = _csv_changes(old, new)
        elif rel.suffix == ".json":
            report[str(rel)] = _json_changes(old, new)
        else:
            report[str(rel)] = {"bytes": math.inf}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write every preset's outputs")
    p_write.add_argument("out_dir")
    p_diff = sub.add_parser("diff", help="compare two output trees")
    p_diff.add_argument("old_dir")
    p_diff.add_argument("new_dir")
    args = parser.parse_args(argv)

    if args.command == "write":
        write_outputs(args.out_dir)
        return 0
    report = compare_trees(args.old_dir, args.new_dir)
    overall = 0.0
    for rel, changes in report.items():
        if isinstance(changes, str):
            print(f"{rel}: {changes}")
            if changes == "only in old":
                overall = math.inf
            continue
        largest = max(changes.values(), default=0.0)
        overall = max(overall, largest)
        if not largest:
            print(f"{rel}: no change outside skipped keys")
            continue
        print(f"{rel}: largest relative change {largest:.3g}")
        for column, change in changes.items():
            if change:
                print(f"    {column}: {change:.3g}")
    identical = sum(1 for c in report.values() if c == "identical")
    print(f"{identical} of {len(report)} files identical")
    return 1 if overall > THRESHOLD else 0


if __name__ == "__main__":
    sys.exit(main())

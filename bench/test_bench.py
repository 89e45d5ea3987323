"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import numpy as np
import pytest

import reference
import run
import workloads
from tracing import Tracer

zc = run.load_program()

# Small operations that together reach every output kind and layer.
SMALL_OPS = [
    {"kind": "run", "name": "fig5c",
     "config": {"preset": "fig5c", "seed": 3,
                "outputs": {"run_csv": True, "histogram_csv": True,
                            "coefficients_csv": True}}},
    {"kind": "run", "name": "fig7_threshold",
     "config": {"preset": "fig7_threshold", "seed": 4}},
    {"kind": "run", "name": "fig9", "config": {"preset": "fig9", "seed": 5}},
    {"kind": "sweep", "name": "fig8",
     "config": {"preset": "fig8", "seed": 6,
                "segments": [{"variant": "driven", "steps": 10}]}},
    {"kind": "traj", "name": "traj-fig3c", "config": {"preset": "fig3c", "seed": 7},
     "n_trajectories": 2000, "seed": 8},
    {"kind": "oracle", "name": "oracle-check", "draws": 20, "seed": 9},
]


def _execute_all(ops, base):
    dirs = []
    for i, op in enumerate(ops):
        out_dir = base / f"{i:02d}-{op['name']}"
        run.execute(zc, op, out_dir)
        dirs.append(out_dir)
    return dirs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_workload(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_gate_accepts_program_output(tmp_path):
    dirs = _execute_all(SMALL_OPS, tmp_path)
    for op, out_dir in zip(SMALL_OPS, dirs):
        expected = reference.prepare(op, out_dir, zc)
        assert reference.check(op, out_dir, expected) == [], op["name"]


def test_traced_run_writes_identical_files(tmp_path):
    plain = _execute_all(SMALL_OPS, tmp_path / "plain")
    originals = dict(vars(zc.protocol))
    tracer = Tracer(zc)
    with tracer:
        traced = _execute_all(SMALL_OPS, tmp_path / "traced")
    assert dict(vars(zc.protocol)) == originals
    assert tracer.calls("protocol.step") > 0
    assert tracer.counts["oracle.rng_draws"] > 0
    for a, b in zip(plain, traced):
        names = sorted(p.name for p in a.glob("*.csv"))
        assert names == sorted(p.name for p in b.glob("*.csv"))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report_a = (plain[-1] / "oracle_report.json").read_text()
    report_b = (traced[-1] / "oracle_report.json").read_text()
    strip = [line for line in report_a.splitlines() if "wall_time_s" not in line]
    assert strip == [line for line in report_b.splitlines() if "wall_time_s" not in line]


@pytest.mark.parametrize("name", ["fig5c", "fig7_threshold", "fig8", "traj-fig3c"])
def test_gate_rejects_shifted_log_coefficients(tmp_path, name, monkeypatch):
    """Shift log|c_n|^2 by -1e-6 for n >= 1, through a wrapper on the engine's
    coefficient tables; the program's source is untouched."""
    op = next(o for o in SMALL_OPS if o["name"] == name)
    clean = tmp_path / "clean"
    run.execute(zc, op, clean)
    expected = reference.prepare(op, clean, zc)

    build_table = zc.protocol.build_table

    def shifted(variant, params, n_max):
        table = build_table(variant, params, n_max)
        values = table.values.copy()
        values[1:] *= np.exp(-0.5e-6)
        return zc.coefficients.CoefficientTable(variant, values, params)

    monkeypatch.setattr(zc.protocol, "build_table", shifted)
    monkeypatch.setattr(zc.oracle, "build_table", shifted)
    perturbed = tmp_path / "perturbed"
    run.execute(zc, op, perturbed)
    assert reference.check(op, perturbed, expected) != []


def test_counters_repeat_between_traced_passes(tmp_path):
    dirs = _execute_all(SMALL_OPS, tmp_path)
    expected = [reference.prepare(op, d, zc) for op, d in zip(SMALL_OPS, dirs)]
    works = [run.op_work(op, d, e) for op, d, e in zip(SMALL_OPS, dirs, expected)]
    units = {m["name"]: m["unit"] for m in run.load_spec()["per_layer"]}
    tally = run.Tally()
    tracer = Tracer(zc)
    passes = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            p = run.run_pass(zc, SMALL_OPS, dirs, expected, tally, count_bytes=True)
        passes.append(run.layer_pass(tracer, SMALL_OPS, works, p))
    metrics, problems = run.per_layer(passes, units)
    assert problems == []
    assert tally.failed == 0
    for name in ("protocol.level_steps", "coefficients.build_table.calls",
                 "fock.PopulationDistribution.count", "protocol.logsumexp.calls",
                 "oracle.rng_draws", "runner.bytes_written"):
        assert metrics[name] > 0, name

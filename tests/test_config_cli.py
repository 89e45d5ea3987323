import csv
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zenocool.runner

from zenocool import (CapacityError, ConfigError, PRESETS, PhysicalParams, build_table,
                      parse_config, parse_config_data, thermal_occupation)
from zenocool.cli import main
from zenocool.runner import (run_experiment, run_oracle_check, run_sweep,
                             run_trajectories, write_coefficients_csv)

OMEGA = 1.56e10
G_M = 2 * math.pi * 1e6

SI_CONFIG = {
    "omega_m_rad_s": OMEGA,
    "g_m": G_M,
    "g_f": 30 * G_M,
    "delta_e": 0.0,
    "tau": 700 / OMEGA,
    "T_kelvin": 10.0,
    "segments": [{"variant": "driven", "steps": 5}],
    "seed": 7,
}

# A schedule with no thermal state: only a coefficient export could run it.
NO_THERMAL = {"dimensionless": True, "g_m": 0.0004, "tau": 700.0,
              "segments": [{"variant": "conventional", "steps": 3}]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_minimal_si(tmp_path):
    config = parse_config(write_config(tmp_path, SI_CONFIG))
    assert config.params.omega_m == OMEGA
    assert config.params.g_f == pytest.approx(30 * G_M / OMEGA, rel=1e-15)
    assert config.params.tau == pytest.approx(700.0, rel=1e-12)
    assert config.temperature == 10.0
    assert config.segments[0].variant == "driven"


def test_dimensionless_round_trip():
    data = {
        "dimensionless": True,
        "g_m": 0.0004, "g_f": 0.012, "delta_e": 0.0, "tau": 700.0,
        "n_bar_th": 83.4,
        "segments": [{"variant": "driven", "steps": 3},
                     {"variant": "conventional", "steps": 2, "until_n_bar": 1.0}],
        "seed": 5,
    }
    config = parse_config_data(data)
    again = parse_config_data(config.to_dict())
    assert again == config


def test_si_round_trip():
    config = parse_config_data(SI_CONFIG)
    again = parse_config_data(config.to_dict())
    assert again.params == config.params
    assert again.segments == config.segments


def test_empty_file_lists_required_keys(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ConfigError, match="omega_m_rad_s"):
        parse_config(path)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="'gf_over_gm'"):
        parse_config_data({**SI_CONFIG, "gf_over_gm": 30})


def test_unknown_segment_key_is_named():
    bad = {**SI_CONFIG,
           "segments": [{"variant": "driven", "steps": 5, "ramp": True}]}
    with pytest.raises(ConfigError, match="'ramp'"):
        parse_config_data(bad)


def test_exactly_one_unit_convention():
    with pytest.raises(ConfigError, match="unit convention"):
        parse_config_data({**SI_CONFIG, "dimensionless": True})
    no_units = {k: v for k, v in SI_CONFIG.items() if k != "omega_m_rad_s"}
    with pytest.raises(ConfigError, match="unit convention"):
        parse_config_data(no_units)


def test_kelvin_requires_si():
    data = {"dimensionless": True, "g_m": 1e-4, "tau": 100.0, "T_kelvin": 10.0}
    with pytest.raises(ConfigError, match="T_kelvin"):
        parse_config_data(data)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="fig12"):
        parse_config_data({"preset": "fig12"})


def test_preset_fig4_expansion():
    config = parse_config_data({"preset": "fig4"})
    assert config.params.omega_m == 1.56e10
    si = config.params.to_si()
    assert si["g_m_rad_s"] == pytest.approx(2 * math.pi * 1e6, rel=1e-12)
    assert si["g_f_rad_s"] / si["g_m_rad_s"] == pytest.approx(30.0, rel=1e-12)
    assert config.params.tau == pytest.approx(700.0, rel=1e-12)
    assert config.temperature == 10.0


def test_preset_overlay_keys_win():
    config = parse_config_data({"preset": "fig4", "T_kelvin": 2.0, "seed": 99})
    assert config.temperature == 2.0
    assert config.seed == 99
    assert config.preset == "fig4"


def test_preset_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config_data({"preset": "fig4"}, preset="fig2")


def test_all_presets_parse():
    for name in PRESETS:
        config = parse_config_data({"preset": name})
        assert config.preset == name


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_round_trips(name):
    config = parse_config_data({"preset": name})
    assert parse_config_data(config.to_dict()) == config


def test_si_segment_detuning_is_given_in_rad_s():
    delta = 2 * math.pi * 3e5
    config = parse_config_data({**SI_CONFIG, "segments": [
        {"variant": "conventional-detuned", "steps": 2, "delta_e": delta}]})
    assert config.schedule().segments[0].params.delta_e == delta / OMEGA
    assert config.params.delta_e == 0.0
    assert config.to_dict()["segments"][0]["delta_e"] == delta


def test_resonant_variant_rejects_detuning():
    bad = {**SI_CONFIG, "delta_e": 1e5}
    with pytest.raises(ConfigError, match="driven-detuned"):
        parse_config_data(bad)


def test_conventional_segment_forces_driving_off():
    data = {**SI_CONFIG,
            "segments": [{"variant": "conventional", "steps": 2}]}
    config = parse_config_data(data)
    seg = config.schedule().segments[0]
    assert seg.params.g_f == 0.0


def test_run_experiment_artifacts(tmp_path):
    config = parse_config_data({**SI_CONFIG, "outputs": {"histogram_csv": True}})
    outputs = run_experiment(config, tmp_path / "out")
    rows = read_csv(outputs["run_csv"])
    assert len(rows) == 6
    assert rows[0]["N"] == "0"
    assert float(rows[0]["P_g"]) == 1.0
    assert list(rows[0]) == ["N", "n_bar", "F_ground", "P_g", "T_eff_K",
                             "F_th", "segment"]
    hist = read_csv(outputs["histogram_csv"])
    total = sum(float(r["p_n"]) for r in hist)
    assert total == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads(Path(outputs["manifest"]).read_text())
    assert manifest["package"] == "zenocool"
    assert manifest["resolved"]["n_bar_th"] == pytest.approx(83.42, rel=1e-3)
    assert manifest["resolved"]["segments"][0]["params"]["g_m"] > 0
    assert manifest["config"]["seed"] == 7


def test_manifest_gives_the_steps_each_segment_ran(tmp_path):
    # fig7_threshold leaves its 300-step driven segment at n_bar = 10
    outputs = run_experiment(parse_config_data({"preset": "fig7_threshold"}),
                             tmp_path / "out")
    resolved = json.loads(Path(outputs["manifest"]).read_text())["resolved"]
    driven, conventional = resolved["segments"]
    assert driven["steps"] == 300
    assert 0 < driven["steps_run"] < 300
    assert conventional["steps_run"] == conventional["steps"]
    assert (driven["steps_run"] + conventional["steps_run"]
            == resolved["measurements_recorded"])


def _trajectories(config, out_dir):
    return run_trajectories(config, out_dir, n_trajectories=50)


ENTRY_POINTS = {"run": run_experiment, "sweep": run_sweep, "trajectories": _trajectories}


@pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
def test_manifest_names_its_entry_point_and_every_output(tmp_path, command):
    config = parse_config_data({
        **SI_CONFIG,
        "outputs": {"histogram_csv": True, "coefficients_csv": True},
        "sweep": {"axis": "T", "values": [1.0, 10.0]},
    })
    outputs = ENTRY_POINTS[command](config, tmp_path)
    manifest = json.loads(Path(outputs["manifest"]).read_text())
    assert sorted(manifest) == ["command", "config", "outputs", "package",
                                "resolved", "version", "wall_time_s"]
    assert manifest["command"] == command
    assert outputs["manifest"] == str(tmp_path / "manifest.json")
    assert manifest["outputs"] == {k: v for k, v in outputs.items() if k != "manifest"}
    assert all(Path(path).exists() for path in outputs.values())


def _indented_json(path, data):
    """The JSON writer as it was before files went to one line."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_every_json_file_is_one_sorted_line_that_reads_as_the_indented_one(
        tmp_path, monkeypatch):
    write_json = zenocool.runner._write_json
    written = []

    def both(path, data):  # the indented copy goes out with the same data
        write_json(path, data)
        _indented_json(tmp_path / f"indented_{len(written)}.json", data)
        written.append(path)
    monkeypatch.setattr(zenocool.runner, "_write_json", both)
    assert main(["--quiet", "run", "--preset", "fig4",
                 "--out-dir", str(tmp_path / "fig4")]) == 0
    run_oracle_check(tmp_path / "oracle")
    assert [p.name for p in written] == ["manifest.json", "oracle_report.json"]
    for k, path in enumerate(written):
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert json.loads(text) == json.loads((tmp_path / f"indented_{k}.json").read_text())


@pytest.mark.parametrize("command, config, error", [
    ("run", {**SI_CONFIG, "hard_cap": 10}, CapacityError),
    ("trajectories", {**SI_CONFIG, "hard_cap": 10}, CapacityError),
    ("sweep", {**{k: v for k, v in SI_CONFIG.items() if k != "T_kelvin"},
               "sweep": {"axis": "g_f", "values": [1.0]}}, ConfigError),
])
def test_an_entry_point_that_raises_writes_no_manifest(tmp_path, command, config, error):
    with pytest.raises(error):
        ENTRY_POINTS[command](parse_config_data(config), tmp_path / "out")
    assert (tmp_path / "out").is_dir()
    assert list((tmp_path / "out").iterdir()) == []


def test_zero_step_schedule_single_row(tmp_path):
    config = parse_config_data({**SI_CONFIG, "segments": []})
    outputs = run_experiment(config, tmp_path / "out")
    rows = read_csv(outputs["run_csv"])
    assert len(rows) == 1
    assert rows[0]["N"] == "0"


def test_byte_identical_reruns(tmp_path):
    config = parse_config_data({**SI_CONFIG, "outputs": {"histogram_csv": True}})
    out_a = run_experiment(config, tmp_path / "a")
    out_b = run_experiment(config, tmp_path / "b")
    for key in ("run_csv", "histogram_csv"):
        assert Path(out_a[key]).read_bytes() == Path(out_b[key]).read_bytes()


def test_fig2_coefficient_export(tmp_path):
    config = parse_config_data({"preset": "fig2"})
    outputs = run_experiment(config, tmp_path / "out")
    rows = read_csv(outputs["coefficients_conventional.csv"])
    assert list(rows[0]) == ["n", "re", "im", "abs2", "abs2_pow_2", "abs2_pow_20"]
    abs2 = np.array([float(r["abs2"]) for r in rows])
    # conventional magnitude first returns to one near the 124-126 region
    first_peak = 50 + int(np.argmax(abs2[50:200]))
    assert 123 <= first_peak <= 127
    assert abs2[first_peak] > 1.0 - 1e-5
    driven = read_csv(outputs["coefficients_driven.csv"])
    assert len(driven) == 2501
    assert float(driven[0]["abs2"]) == 1.0


def _row_wise_coefficients_csv(path, table, powers):
    """The coefficient table one %-formatted row at a time: the reference layout."""
    header = ["n", "re", "im", "abs2"] + [f"abs2_pow_{2 * N}" for N in powers]
    abs2 = (np.abs(table.values) ** 2).tolist()
    line = "%d" + ",%.17g" * (3 + len(powers)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for n, (re, im, a) in enumerate(zip(table.values.real.tolist(),
                                            table.values.imag.tolist(), abs2)):
            fh.write(line % (n, re, im, a, *[a ** N for N in powers]))


@pytest.mark.parametrize("powers", [(1,), (1, 10)])
@pytest.mark.parametrize("variant", ["driven", "conventional-detuned"])
def test_coefficients_csv_matches_the_row_wise_layout(tmp_path, variant, powers):
    table = build_table(variant, PhysicalParams(g_m=0.0004, tau=700.0, g_f=0.02,
                                                delta_e=0.002), 2500)
    write_coefficients_csv(tmp_path / "got.csv", table, powers)
    _row_wise_coefficients_csv(tmp_path / "want.csv", table, powers)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_coefficients_need_truncation(tmp_path):
    data = {"dimensionless": True, "g_m": 1e-4, "tau": 100.0,
            "outputs": {"run_csv": False, "coefficients_csv": True}}
    with pytest.raises(ConfigError, match="n_max"):
        run_experiment(parse_config_data(data), tmp_path / "out")


def test_run_needs_thermal_state(tmp_path):
    data = {k: v for k, v in SI_CONFIG.items() if k != "T_kelvin"}
    with pytest.raises(ConfigError, match="thermal"):
        run_experiment(parse_config_data(data), tmp_path / "out")


NO_THERMAL_SWEEP = {**NO_THERMAL, "sweep": {"axis": "tau", "values": [700.0]}}
NO_THERMAL_START = {k: v for k, v in NO_THERMAL.items() if k != "segments"}


@pytest.mark.parametrize("command, config", [
    ("run", NO_THERMAL_SWEEP),
    ("sweep", NO_THERMAL_SWEEP),
    ("trajectories", NO_THERMAL_SWEEP),
    ("run", {**NO_THERMAL_START, "outputs": {"run_csv": False, "histogram_csv": True}}),
    ("run", {**NO_THERMAL_START, "outputs": {"coefficients_csv": True,
                                             "histogram_csv": True, "n_max": 10}}),
], ids=["run", "sweep", "trajectories", "histogram", "histogram-and-coefficients"])
def test_a_missing_thermal_state_is_one_error_everywhere(tmp_path, capsys, command, config):
    out = tmp_path / "out"
    assert main(["--quiet", command, "--config", str(write_config(tmp_path, config)),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: config has no thermal state: set T_kelvin or n_bar_th\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("run_csv", [True, False])
def test_manifest_names_a_run_csv_skipped_for_want_of_a_thermal_state(tmp_path, run_csv):
    config = {**NO_THERMAL_START, "outputs": {"coefficients_csv": True, "n_max": 10}}
    if not run_csv:
        config["outputs"]["run_csv"] = False
    out = tmp_path / "out"
    assert main(["--quiet", "run", "--config", str(write_config(tmp_path, config)),
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["coefficients_conventional.csv",
                                                     "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["outputs"]["run_csv"] is run_csv
    skipped = manifest["resolved"].get("skipped_outputs")
    assert skipped == ({"run_csv": "config has no thermal state"} if run_csv else None)


def test_manifest_lists_no_segment_for_a_zero_segment_run(tmp_path):
    assert main(["--quiet", "run", "--preset", "fig5a", "--out-dir", str(tmp_path)]) == 0
    resolved = json.loads((tmp_path / "manifest.json").read_text())["resolved"]
    assert resolved["segments"] == []
    assert resolved["measurements_recorded"] == 0


def test_sweep_runner(tmp_path):
    config = parse_config_data({
        **SI_CONFIG,
        "sweep": {"axis": "T", "values": [1.0, 10.0]},
    })
    outputs = run_sweep(config, tmp_path / "out")
    rows = read_csv(outputs["sweep_csv"])
    assert [r["value"] for r in rows] == ["1", "10"]
    assert all(r["error"] == "" for r in rows)
    assert float(rows[0]["n_bar"]) < float(rows[1]["n_bar"])


def test_si_temperature_sweep_starts_from_n_bar_th(tmp_path):
    # each grid point sets its own temperature, so the start's occupancy drops out
    grid = {"axis": "T", "values": [5.0, 10.0]}
    from_kelvin = run_sweep(parse_config_data({**SI_CONFIG, "sweep": grid}), tmp_path / "k")
    no_kelvin = {k: v for k, v in SI_CONFIG.items() if k != "T_kelvin"}
    from_n_bar = run_sweep(parse_config_data({**no_kelvin, "n_bar_th": 100.0, "sweep": grid}),
                           tmp_path / "n")
    assert [r["error"] for r in read_csv(from_n_bar["sweep_csv"])] == ["", ""]
    assert (Path(from_n_bar["sweep_csv"]).read_bytes()
            == Path(from_kelvin["sweep_csv"]).read_bytes())


def test_si_tau_sweep_reads_its_grid_in_seconds(tmp_path):
    # fig4's own interval, given in seconds as the file gives it, sweeps to fig4's run
    from zenocool import initial_state, run

    tau_s = PRESETS["fig4"]["tau"]
    config = parse_config_data({"preset": "fig4", "sweep": {"axis": "tau", "values": [tau_s]}})
    outputs = run_sweep(config, tmp_path / "out")
    (row,) = read_csv(outputs["sweep_csv"])
    schedule = config.schedule()
    last = run(initial_state(config.thermal_spec(), schedule), schedule).records[-1]
    assert (float(row["value"]), row["error"]) == (tau_s, "")
    assert (int(row["N"]), int(row["segment"])) == (last.step, last.segment)
    for column, field in [("n_bar", "n_bar"), ("F_ground", "ground_fidelity"),
                          ("P_g", "survival_probability"), ("T_eff_K", "t_eff_kelvin"),
                          ("F_th", "thermal_fidelity")]:
        assert float(row[column]) == pytest.approx(last[field], rel=1e-12, abs=0.0), column
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["resolved"]["values"] == [tau_s]


def test_cli_sweep_writes_a_failed_point_as_an_error_row(tmp_path):
    config = write_config(tmp_path, {"preset": "fig6_sweep",
                                     "sweep": {"axis": "T", "values": [0.5, -1.0]}})
    out = tmp_path / "out"
    assert main(["--quiet", "sweep", "--config", str(config), "--out-dir", str(out)]) == 0
    error = "ValueError: temperature must be positive and finite, got -1.0"
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[2] == "T,-1," + "," * 7 + f'"{error}"'
    rows = read_csv(out / "sweep.csv")
    assert [r["error"] for r in rows] == ["", error]
    assert rows[0]["n_bar"] != ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["failures"] == 1


@pytest.mark.parametrize("config", [
    {**{k: v for k, v in SI_CONFIG.items() if k != "T_kelvin"}, "n_bar_th": 1e16},
    {"preset": "fig4", "T_kelvin": 1e20},
])
def test_cli_occupation_past_double_resolution_is_a_capacity_error(tmp_path, capsys, config):
    # n_bar / (1 + n_bar) rounds to 1 here, and the tail bound once divided by its log
    out = tmp_path / "out"
    code = main(["--quiet", "run", "--config", str(write_config(tmp_path, config)),
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numeric failure: thermal state with n_bar=")
    assert err.endswith(" needs n_max=inf, above the hard cap 65536\n")
    assert list(out.iterdir()) == []


def test_sweep_point_past_double_resolution_is_a_capacity_error_row(tmp_path):
    config = parse_config_data({"preset": "fig6_sweep",
                                "sweep": {"axis": "T", "values": [0.5, 1e20]}})
    rows = read_csv(run_sweep(config, tmp_path / "out")["sweep_csv"])
    n_bar = thermal_occupation(config.thermal_spec().omega_m, 1e20)
    assert [r["error"] for r in rows] == [
        "", f"CapacityError: thermal state with n_bar={n_bar:g} needs n_max=inf, "
            "above the hard cap 65536"]


@pytest.mark.parametrize("content", [
    b"\xff{}",
    b'{"seed": ' + b"1" * 5000 + b"}",
    b"[" * 200_000,
], ids=["not-utf-8", "integer-past-digit-limit", "nested-past-recursion-limit"])
def test_cli_config_that_cannot_be_decoded_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code = main(["--quiet", "run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: config {path} is not valid JSON: ")
    assert "Traceback" not in err


def test_sweep_requires_block(tmp_path):
    with pytest.raises(ConfigError, match="sweep"):
        run_sweep(parse_config_data(SI_CONFIG), tmp_path / "out")


def test_oracle_check_report(tmp_path):
    report = run_oracle_check(tmp_path / "out", draws=40, seed=3)
    assert report["max_abs_error"] < 1e-10
    on_disk = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert len(on_disk["rows"]) == 40
    assert on_disk["seed"] == 3


def test_a_nan_in_the_oracle_rows_fails_the_check(tmp_path, monkeypatch):
    draws = zenocool.runner.compare_random_draws

    def poisoned(n_draws, seed):
        rows = draws(n_draws, seed)
        rows[1]["abs_error"] = math.nan
        rows[2]["unitarity_defect"] = math.nan
        return rows
    monkeypatch.setattr(zenocool.runner, "compare_random_draws", poisoned)
    with pytest.raises(FloatingPointError):
        run_oracle_check(tmp_path / "out", draws=20)
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert math.isnan(report["max_abs_error"])
    assert math.isnan(report["max_unitarity_defect"])
    assert "NaN" in (tmp_path / "out" / "oracle_report.json").read_text()
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path / "o"),
                 "--draws", "20"]) == 2


def test_an_oracle_propagator_that_is_not_unitary_fails_the_check(tmp_path, monkeypatch):
    draws = zenocool.runner.compare_random_draws

    def skewed(n_draws, seed):
        rows = draws(n_draws, seed)
        rows[0]["unitarity_defect"] = 1e-11
        return rows
    monkeypatch.setattr(zenocool.runner, "compare_random_draws", skewed)
    with pytest.raises(FloatingPointError, match="unitarity defect 1e-11 exceeds 1e-12"):
        run_oracle_check(tmp_path / "out", draws=4)


def test_cli_oracle_check_keeps_the_runner_defaults(tmp_path):
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert (report["seed"], report["draws"], report["tolerance"]) == (7, 200, 1e-10)


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: zenocool" in capsys.readouterr().out


def test_preset_expansion_is_logged(caplog):
    with caplog.at_level(logging.INFO, logger="zenocool.config"):
        parse_config_data({"preset": "fig4", "seed": 3})
    (record,) = caplog.records
    assert record.getMessage().startswith("expanded preset 'fig4' to {")
    assert '"seed": 3' in record.getMessage()


def test_cli_run_and_exit_codes(tmp_path):
    config_path = write_config(tmp_path, SI_CONFIG)
    assert main(["--quiet", "run", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "run.csv").exists()

    bad = write_config(tmp_path, {**SI_CONFIG, "bogus": 1}, "bad.json")
    assert main(["--quiet", "run", "--config", str(bad),
                 "--out-dir", str(tmp_path / "out2")]) == 1

    # out-dir path already exists as a file -> I/O failure
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(["--quiet", "run", "--config", str(config_path),
                 "--out-dir", str(blocker)]) == 3


def test_cli_oracle_numeric_failure(tmp_path):
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path / "o"),
                 "--draws", "8", "--tolerance", "0.0"]) == 2
    assert main(["--quiet", "oracle-check", "--out-dir", str(tmp_path / "o2"),
                 "--draws", "8"]) == 0


def test_cli_preset_and_seed_override(tmp_path):
    assert main(["--quiet", "run", "--preset", "fig5c", "--seed", "123",
                 "--out-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["resolved"]["seed"] == 123
    assert (tmp_path / "out" / "histogram.csv").exists()


def test_cli_requires_config_or_preset(tmp_path):
    assert main(["--quiet", "run", "--out-dir", str(tmp_path / "out")]) == 1


def test_cli_coeffs(tmp_path):
    assert main(["--quiet", "coeffs", "--preset", "fig9",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "coefficients_driven-detuned.csv").exists()
    assert (tmp_path / "out" / "coefficients_conventional-detuned.csv").exists()


def test_cli_sweep_and_trajectories(tmp_path):
    config_path = write_config(tmp_path, {
        **SI_CONFIG,
        "sweep": {"axis": "g_f", "values": [11.14, 33.43]},
    })
    assert main(["--quiet", "sweep", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "sweep.csv").exists()

    assert main(["--quiet", "trajectories", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "t"), "--trajectories", "500"]) == 0
    rows = read_csv(tmp_path / "t" / "trajectories.csv")
    assert len(rows) == 6
    assert float(rows[0]["p_hat"]) == 1.0
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    # one multinomial draw from the root stream of the seed
    assert manifest["resolved"]["stream_ids"] == ["()"]


@pytest.mark.parametrize("key", ["g_f", "T_kelvin", "n_bar_th", "delta_e"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, literal):
    data = dict(SI_CONFIG)
    if key == "n_bar_th":
        del data["T_kelvin"]
    data[key] = 0.0
    text = json.dumps(data).replace(f'"{key}": 0.0', f'"{key}": {literal}')
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main(["--quiet", "run", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert f"'{key}'" in err
    assert "Traceback" not in err


def test_non_finite_sweep_value_rejected():
    with pytest.raises(ConfigError, match="finite"):
        parse_config_data({**SI_CONFIG,
                           "sweep": {"axis": "T", "values": [1.0, math.nan]}})


@pytest.mark.parametrize("key, value", [("T_kelvin", -1.0), ("n_bar_th", -1.0)])
def test_invalid_thermal_state_is_config_error(tmp_path, key, value):
    data = {k: v for k, v in SI_CONFIG.items() if k != "T_kelvin"}
    data[key] = value
    with pytest.raises(ConfigError, match=key):
        run_experiment(parse_config_data(data), tmp_path / "out")


def test_negative_segment_driving_is_config_error():
    bad = {**SI_CONFIG, "segments": [{"variant": "driven", "steps": 5, "g_f": -1.0}]}
    with pytest.raises(ConfigError, match="g_f"):
        parse_config_data(bad)


def test_cli_cold_limit_runs_in_ground_state(tmp_path):
    path = write_config(tmp_path, {"preset": "fig4", "T_kelvin": 1e-30})
    assert main(["--quiet", "run", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "run.csv")
    assert len(rows) == 301
    assert all(float(r["n_bar"]) == 0.0 for r in rows)
    assert all(float(r["F_ground"]) == 1.0 for r in rows)
    assert all(float(r["P_g"]) == 1.0 for r in rows)


def test_package_exports_each_name_once_and_no_test_only_code():
    import zenocool
    assert len(set(zenocool.__all__)) == len(zenocool.__all__)
    for name in zenocool.__all__:
        assert getattr(zenocool, name) is not None, name
    assert not hasattr(zenocool, "joint_hamiltonian")
    assert not hasattr(zenocool, "joint_from_blocks")
    assert not hasattr(zenocool.oracle, "joint_hamiltonian")
    assert not hasattr(zenocool.oracle, "joint_from_blocks")
    for name in ("ExcitationBlock", "block_hamiltonian", "block_propagator",
                 "extract_vg_element"):
        assert not hasattr(zenocool, name), name
        assert not hasattr(zenocool.oracle, name), name
    assert not hasattr(zenocool.PopulationDistribution, "renormalized")
    # the one-step references live in tests/engine_reference.py
    for module, names in ((zenocool.protocol, ("step", "asymptotic_limit", "AsymptoticReport")),
                          (zenocool.fock, ("mean_occupation",))):
        for name in names:
            assert not hasattr(zenocool, name), name
            assert not hasattr(module, name), name
    # unused where they are bound, but the bench tracer reads the first by
    # name and bench/test_bench.py patches the second
    assert zenocool.protocol.logsumexp is zenocool.fock.logsumexp
    assert zenocool.oracle.build_table is zenocool.coefficients.build_table


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_scipy_out():
    out = fresh_python("import sys, zenocool; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_cli_import_loads_no_third_party_module_but_numpy():
    out = fresh_python(
        "import sys; before = set(sys.modules); import zenocool.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))")
    assert out.strip() == "['numpy', 'zenocool']"


@pytest.mark.parametrize("command, extra, config, named", [
    ("oracle-check", ["--tolerance", "nan"], None, "--tolerance"),
    ("oracle-check", ["--tolerance", "inf"], None, "--tolerance"),
    ("oracle-check", ["--tolerance", "-1e-10"], None, "--tolerance"),
    ("oracle-check", ["--draws", "0"], None, "--draws"),
    ("oracle-check", ["--draws", "-1"], None, "--draws"),
    ("oracle-check", ["--seed", "-1"], None, "--seed"),
    ("trajectories", ["--trajectories", "0"], SI_CONFIG, "--trajectories"),
    ("trajectories", ["--seed", "-1"], SI_CONFIG, "--seed"),
    ("trajectories", [], {**SI_CONFIG, "seed": -1}, "'seed'"),
    ("sweep", [], {**SI_CONFIG, "sweep": {"axis": "N", "values": [10.7]}}, "'values'"),
    ("sweep", [], {**SI_CONFIG, "sweep": {"axis": "N", "values": [-2]}}, "'values'"),
    ("run", [], {**SI_CONFIG, "segments": [
        {"variant": "driven", "steps": 5, "until_n_bar": -1.0}]}, "'until_n_bar'"),
    ("trajectories", [], {**SI_CONFIG, "segments": [
        {"variant": "driven", "steps": 5, "until_n_bar": 0.0}]}, "'until_n_bar'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"coefficients_csv": True,
                                                  "n_max": 10**12}}, "'n_max'"),
    ("sweep", [], {**SI_CONFIG, "sweep": {"axis": "switch", "values": [2]}}, "'axis'"),
    ("sweep", [], {"preset": "fig7_switch", "sweep": {"axis": "switch", "values": [2.5]}},
     "'values'"),
    ("sweep", [], {"preset": "fig7_switch", "sweep": {"axis": "switch", "values": [301]}},
     "'values'"),
    ("sweep", [], {"preset": "fig7_switch", "sweep": {"axis": "switch", "values": [-1]}},
     "'values'"),
    ("run", [], {**SI_CONFIG, "segments": [{"variant": "zeno", "steps": 5}]}, "'variant'"),
    ("run", [], {**SI_CONFIG, "segments": [{"variant": "driven", "steps": -1}]}, "'steps'"),
    ("sweep", [], {**SI_CONFIG, "sweep": {"axis": "kappa", "values": [1.0]}}, "'axis'"),
    ("run", [], {**SI_CONFIG, "n_bar_th": 5.0}, "'T_kelvin'"),
    ("sweep", [], {"dimensionless": True, "g_m": 0.0004, "g_f": 0.012, "tau": 700.0,
                   "n_bar_th": 83.4, "segments": [{"variant": "driven", "steps": 3}],
                   "sweep": {"axis": "T", "values": [5.0]}}, "'axis'"),
    ("oracle-check", ["--preset", "fig4"], None, "--preset"),
    ("run", [], {**SI_CONFIG, "epsilon_tail": 1e-3}, "'epsilon_tail'"),
    ("run", [], {**SI_CONFIG, "hard_cap": -1}, "'hard_cap'"),
    ("run", [], {"preset": "fig4", "segments": 5}, "'segments'"),
    ("run", [], {"preset": "fig4", "segments": {"variant": "driven", "steps": 5}},
     "'segments'"),
    ("run", [], {"preset": "fig4", "segments": None}, "'segments'"),
    ("run", [], {"preset": "fig4", "outputs": 5}, "'outputs'"),
    ("run", [], {"preset": "fig4", "outputs": []}, "'outputs'"),
    ("run", [], {"preset": "fig4", "outputs": None}, "'outputs'"),
    ("run", [], {**SI_CONFIG, "segments": [5]}, "segments[0]"),
    ("run", [], {**SI_CONFIG, "segments": [{"variant": "driven"}]}, "'steps'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"powers": [0]}}, "'powers'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"powers": []}}, "'powers'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"variants": []}}, "'variants'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"variants": ["zeno"]}}, "'variants'"),
    ("coeffs", [], {"preset": "fig2", "outputs": {"n_max": -1}}, "'n_max'"),
    ("run", [], [SI_CONFIG], "config root"),
    ("run", [], {**SI_CONFIG, "preset": 5}, "'preset'"),
    ("run", [], {**SI_CONFIG, "g_m": -1.0}, "g_m"),
    ("trajectories", ["--preset", "fig5a"], None, "segments"),
    ("run", [], {**NO_THERMAL, "sweep": {"axis": "N", "values": [1]}}, "n_bar_th"),
    ("sweep", [], {**NO_THERMAL, "sweep": {"axis": "N", "values": [1]}}, "n_bar_th"),
    ("run", [], {**NO_THERMAL, "segments": NO_THERMAL["segments"] * 2,
                 "sweep": {"axis": "switch", "values": [1]}}, "n_bar_th"),
    ("sweep", [], {**NO_THERMAL, "segments": NO_THERMAL["segments"] * 2,
                   "sweep": {"axis": "switch", "values": [1]}}, "n_bar_th"),
    ("oracle-check", ["--draws", "x"], None, "--draws"),
    ("oracle-check", ["--tolerance", "abc"], None, "--tolerance"),
])
def test_cli_rejects_invalid_numbers(tmp_path, capsys, command, extra, config, named):
    argv = ["--quiet", command, "--out-dir", str(tmp_path / "out")] + extra
    if config is not None:
        argv += ["--config", str(write_config(tmp_path, config))]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("g_m, tau", [(1e-200, 700.0), (1e200, 1e200)])
@pytest.mark.parametrize("command", ["run", "coeffs"])
def test_cli_non_finite_coefficients_are_a_numeric_failure(tmp_path, capsys, command,
                                                           g_m, tau):
    # (g_m tau)^2 underflows to 0 (every n > 0 is 0/0) or g_m tau is inf (inf/inf)
    config = {"dimensionless": True, "g_m": g_m, "tau": tau, "n_bar_th": 1.0,
              "segments": [{"variant": "conventional", "steps": 5}]}
    out = tmp_path / "out"
    code = main(["--quiet", command, "--out-dir", str(out),
                 "--config", str(write_config(tmp_path, config))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numeric failure:")
    assert "finite" in err
    assert "Traceback" not in err
    assert list(out.glob("*.csv")) == []


def test_cli_trajectory_count_past_the_multinomial_is_a_config_error(tmp_path, capsys):
    # Generator.multinomial takes the count as a C long; 10**12 runs in O(N)
    out = tmp_path / "out"
    code = main(["--quiet", "trajectories", "--preset", "fig3c", "--out-dir", str(out),
                 "--trajectories", str(2**63)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"argument --trajectories: must be <= {2**63 - 1}, got {2**63}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["--quiet", "trajectories", "--preset", "fig3c", "--out-dir", str(out),
                 "--trajectories", str(10**12)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["n_trajectories"] == 10**12


def test_cli_config_that_is_not_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"preset": "fig4",')
    code = main(["--quiet", "run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, preset, step", [
    ("run", "fig4", "initial_state"),
    ("coeffs", "fig2", "build_table"),
])
def test_cli_array_beyond_memory_is_a_numeric_failure(tmp_path, capsys, monkeypatch,
                                                      command, preset, step):
    # what numpy raises for an n_max it cannot allocate; nothing is requested here
    message = ("Unable to allocate 206. GiB for an array with shape (27631021885,) "
               "and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(zenocool.runner, step, refuse)
    out = tmp_path / "out"
    code = main(["--quiet", command, "--preset", preset, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"numeric failure: {message}\n"
    assert list(out.iterdir()) == []


# Replacement values for the keys of a preset; DROP removes the key. Every
# count, grid value and hard cap is small, so a config that runs runs fast.
DROP = object()
MUTATIONS = {
    "T_kelvin": [DROP, -1.0, 0.0, 0.5, "10"],
    "n_bar_th": [DROP, 2.0, -1.0, 0.0],
    "dimensionless": [DROP, True, False, 1],
    "omega_m_rad_s": [DROP, 1.56e10, -1.0, None],
    "g_m": [DROP, 0.0004, -1.0, 0.0, "x"],
    "g_f": [DROP, 0.02, -1.0, 1e300],
    "delta_e": [DROP, 0.002, -0.002],
    "tau": [DROP, 700.0, 0.0, True],
    "epsilon_tail": [DROP, 1e-3, 0.0, 1e-8],
    "seed": [DROP, -1, 2.5, 3],
    "hard_cap": [DROP, 0, 10, 3000, -1, 2.5],
    "segments": [DROP, [], [5], {}, [{"variant": "driven"}],
                 [{"variant": "driven", "steps": 2}],
                 [{"variant": "conventional", "steps": 2, "until_n_bar": 1.0}],
                 [{"variant": "driven", "steps": 1}, {"variant": "conventional", "steps": 2}],
                 [{"variant": "driven-detuned", "steps": 1, "delta_e": 0.001, "g_f": -1.0}],
                 [{"variant": "zeno", "steps": 1}], [{"variant": "driven", "steps": -1}]],
    "outputs": [DROP, [], {"coefficients_csv": True, "n_max": 20},
                {"histogram_csv": True, "powers": [1, 2]}, {"powers": [0]},
                {"variants": []}, {"variants": ["zeno"]}, {"n_max": -1},
                {"coefficients_csv": True, "variants": ["conventional"]},
                {"coefficients_csv": True, "n_max": 10**6}],
    "sweep": [DROP, {"axis": "N", "values": [0, 2]}, {"axis": "switch", "values": [1]},
              {"axis": "T", "values": [1.0]}, {"axis": "g_f", "values": [1.0]},
              {"axis": "tau", "values": [-1.0]}, {"axis": "N", "values": []},
              {"axis": "N", "values": [2.5]}, {"axis": "N"}, {"axis": "x", "values": [1]},
              5],
}
MUTATED_PRESETS = ["fig2", "fig3a", "fig5a", "fig7", "fig7_switch", "fig8", "fig9"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(preset=st.sampled_from(MUTATED_PRESETS),
       changes=st.dictionaries(st.sampled_from(sorted(MUTATIONS)),
                               st.integers(0, 10), max_size=4))
def test_cli_never_raises_on_any_config(preset, changes):
    config = dict(PRESETS[preset])
    for key, pick in changes.items():
        value = MUTATIONS[key][pick % len(MUTATIONS[key])]
        if value is DROP:
            config.pop(key, None)
        else:
            config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), config)
        for command in ("run", "coeffs", "sweep"):
            code = main(["--quiet", command, "--config", str(path),
                         "--out-dir", os.path.join(tmp, command)])
            assert code in (0, 1, 2), (command, config)


def _counted_trajectories(monkeypatch, tmp_path, preset):
    """A trajectories call on ``preset``, with its survival-curve evaluations
    and the record-building runs (``protocol._records``, under ``run``) it made."""
    import zenocool.oracle
    import zenocool.protocol
    import zenocool.runner

    evaluations, runs = [], []
    survival_curve, records = zenocool.protocol._survival_curve, zenocool.protocol._records

    def counted_curve(*args):
        evaluations.append(args)
        return survival_curve(*args)

    def counted_records(*args):
        runs.append(args)
        return records(*args)
    monkeypatch.setattr(zenocool.oracle, "_survival_curve", counted_curve)
    monkeypatch.setattr(zenocool.protocol, "_records", counted_records)
    config = parse_config_data({"preset": preset})
    zenocool.runner.run_trajectories(config, tmp_path, n_trajectories=500)
    monkeypatch.undo()
    return config, evaluations, runs


def test_trajectories_evolve_the_schedule_once(tmp_path, monkeypatch):
    from zenocool import initial_state, run

    # fig7_threshold's first segment stops on until_n_bar: the step loop
    # reads n_bar to stop there, and still builds no records
    config, evaluations, runs = _counted_trajectories(monkeypatch, tmp_path,
                                                      "fig7_threshold")
    assert len(evaluations) == 1
    assert runs == []

    schedule = config.schedule()
    exact = run(initial_state(config.thermal_spec(), schedule), schedule)
    rows = read_csv(tmp_path / "trajectories.csv")
    assert [int(r["N"]) for r in rows] == [rec.step for rec in exact.records]
    assert [float(r["p_exact"]) for r in rows] == [
        rec.survival_probability for rec in exact.records]


def test_trajectories_without_a_threshold_never_run_the_engine(tmp_path, monkeypatch):
    from zenocool import initial_state, run

    config, evaluations, runs = _counted_trajectories(monkeypatch, tmp_path, "fig4")
    assert len(evaluations) == 1
    assert runs == []

    schedule = config.schedule()
    exact = run(initial_state(config.thermal_spec(), schedule), schedule)
    rows = read_csv(tmp_path / "trajectories.csv")
    assert [float(r["p_exact"]) for r in rows] == [
        rec.survival_probability for rec in exact.records]

import importlib.util
import json
import os
import sys
from pathlib import Path

import zenocool

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "alternate_runs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("alternate_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself(monkeypatch, capsys):
    tool = _load_tool()
    # numpy has loaded already, so this only names a thread count in the header
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 4, 6}, raising=False)
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "fig3a", "--repeats", "3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["case", "n_max"]
    assert header.split()[-2:] == ["usable_cpus=4", "OPENBLAS_NUM_THREADS=3"]
    case, n_max, *_, ratio = row.split()
    assert (case, n_max) == ("fig3a", "24") and float(ratio) > 0.0
    (result,) = tool.alternate(src, src, ["fig3a"], 3)
    assert len(result["old"]) == len(result["new"]) == 3
    assert not [m for m in sys.modules if m.startswith(("zenocool_old", "zenocool_new"))]


def test_a_conventional_and_a_threshold_case_against_itself(capsys):
    tool = _load_tool()
    assert [tool.CASES[c]["preset"] for c in ("fig3c_conventional", "fig7_threshold")] == [
        "fig3c_conventional", "fig7_threshold"]
    # fig7_threshold's first segment stops on until_n_bar
    assert zenocool.PRESETS["fig7_threshold"]["segments"][0]["until_n_bar"] == 10.0
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "fig3c_conventional", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("fig3c_conventional", "511") and float(ratio) > 0.0


def test_a_trajectory_case_against_itself(monkeypatch, capsys):
    tool = _load_tool()
    assert {tool.CASES[c]["trajectories"]
            for c in ("traj-fig4", "traj-fig7", "traj-fig7_threshold")} == {250_000}
    assert tool.CASES["traj-fig6"] == {"preset": "fig6", "trajectories": 10_000}
    assert tool.CASES["traj-fig7_threshold"]["preset"] == "fig7_threshold"
    monkeypatch.setitem(tool.CASES, "traj-fig3a", {"preset": "fig3a", "trajectories": 2_000})
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "traj-fig3a", "--repeats", "3"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("traj-fig3a", "24") and float(ratio) > 0.0
    assert tool.CASES["traj-fig3a"] == {"preset": "fig3a", "trajectories": 2_000}


def test_a_sweep_case_against_itself(capsys):
    tool = _load_tool()
    cases = ("sweep-fig6", "sweep-fig7", "sweep-fig7_threshold")
    assert [tool.CASES[c]["preset"] for c in cases] == [
        "fig6_sweep", "fig7_switch", "fig7_threshold"]
    # a switch sweep of a schedule whose first segment stops on until_n_bar
    assert tool.CASES["sweep-fig7_threshold"]["sweep"]["axis"] == "switch"
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", ",".join(cases), "--repeats", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # the largest n_max of the grid: fig6_sweep's 120 K point, the 10 K start of the others
    assert [(row[0], row[1]) for row in rows] == [("sweep-fig6", "27827"),
                                                  ("sweep-fig7", "2319"),
                                                  ("sweep-fig7_threshold", "2319")]
    assert all(float(row[-1]) > 0.0 for row in rows)


def test_a_sweep_call_reads_an_si_tau_grid_in_seconds(tmp_path):
    tool = _load_tool()
    config = zenocool.parse_config_data({"preset": "fig4"})
    tau_s = zenocool.PRESETS["fig4"]["tau"]
    n_max, call = tool._call(zenocool, {"preset": "fig4",
                                        "sweep": {"axis": "tau", "values": [tau_s]}},
                             tmp_path)
    (point,) = call()
    want = zenocool.sweep("tau", [config.params.tau], config.thermal_spec(), config.schedule())
    assert (n_max, point.record.item()) == (2319, want[0].record.item())


def test_an_export_case_against_itself(monkeypatch, capsys):
    tool = _load_tool()
    export = tool.CASES["export-hot-100k"]
    assert export["export"] and export["segments"] == tool.CASES["hot-100k"]["segments"]
    assert export["outputs"] == {"histogram_csv": True, "coefficients_csv": True}
    monkeypatch.setitem(tool.CASES, "export-fig3a", {"preset": "fig3a", "export": True})
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "export-fig3a", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("export-fig3a", "24") and float(ratio) > 0.0


def test_an_export_call_writes_the_three_files(tmp_path):
    tool = _load_tool()
    n_max, call = tool._call(zenocool, {"preset": "fig3a", "export": True}, tmp_path / "out")
    call()
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert (n_max, names) == (24, ["coefficients.csv", "histogram.csv", "run.csv"])
    assert (tmp_path / "out" / "histogram.csv").read_text().count("\n") == n_max + 2


def test_a_run_experiment_case_against_itself(capsys):
    tool = _load_tool()
    assert tool.CASES["run-fig5c"] == {
        "preset": "fig5c", "experiment": True,
        "outputs": {"histogram_csv": True, "coefficients_csv": True}}
    assert tool.CASES["run-fig3a"] == {"preset": "fig3a", "experiment": True}
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "run-fig3a", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("run-fig3a", "24") and float(ratio) > 0.0


def test_a_coefficient_only_run_experiment_case_against_itself(capsys):
    """``run-fig2`` has no start: its n_max is the coefficient tables'."""
    tool = _load_tool()
    assert tool.CASES["run-fig2"] == {"preset": "fig2", "experiment": True}
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "run-fig2", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("run-fig2", "2500") and float(ratio) > 0.0


def test_the_fig2_and_fig3a_run_experiment_calls_write_their_files(tmp_path):
    """fig2 writes two 2,501-row coefficient tables with powers [1, 10];
    fig3a writes an 81-row run.csv."""
    tool = _load_tool()
    _, call = tool._call(zenocool, tool.CASES["run-fig2"], tmp_path / "fig2")
    call()
    for variant in ("driven", "conventional"):
        lines = (tmp_path / "fig2" / f"coefficients_{variant}.csv").read_text().splitlines()
        assert len(lines) == 2502 and lines[0] == "n,re,im,abs2,abs2_pow_2,abs2_pow_20"
    _, call = tool._call(zenocool, tool.CASES["run-fig3a"], tmp_path / "fig3a")
    call()
    assert (tmp_path / "fig3a" / "run.csv").read_text().count("\n") == 82


def test_a_run_experiment_call_writes_every_file(tmp_path):
    tool = _load_tool()
    n_max, call = tool._call(zenocool, tool.CASES["run-fig5c"], tmp_path / "new")
    call()
    names = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert (n_max, names) == (2319, ["coefficients_driven.csv", "histogram.csv",
                                     "manifest.json", "run.csv"])
    manifest = json.loads((tmp_path / "new" / "manifest.json").read_text())
    assert manifest["config"]["preset"] == "fig5c"


def test_the_run_hot_100k_case_against_itself(capsys, tmp_path):
    """``run-hot-100k`` is the ``hot-100k`` run through ``run_experiment``."""
    tool = _load_tool()
    assert tool.CASES["run-hot-100k"] == {**tool.CASES["hot-100k"], "experiment": True}
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "run-hot-100k", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("run-hot-100k", "23189") and float(ratio) > 0.0
    _, call = tool._call(zenocool, tool.CASES["run-hot-100k"], tmp_path)
    call()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "run.csv"]
    assert (tmp_path / "run.csv").read_text().count("\n") == 302


def test_the_run_fig4_sweep_and_trajectory_runner_cases_against_themselves(capsys):
    tool = _load_tool()
    assert tool.CASES["run-fig4"] == {"preset": "fig4", "experiment": True}
    assert tool.CASES["run-fig8"] == {"preset": "fig8", "experiment": True}
    assert tool.CASES["run-traj-fig4"] == {"preset": "fig4", "experiment": True,
                                           "trajectories": 250_000}
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "run-fig4,run-fig8,run-traj-fig4",
                      "--repeats", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("run-fig4", "2319"), ("run-fig8", "2319"),
                                                  ("run-traj-fig4", "2319")]
    assert all(float(row[-1]) > 0.0 for row in rows)


def test_the_run_fig4_sweep_and_trajectory_runner_calls_write_their_files(tmp_path):
    """Each call goes through the runner entry point that the CLI calls."""
    tool = _load_tool()
    written = {}
    for case in ("run-fig4", "run-fig8", "run-traj-fig4"):
        _, call = tool._call(zenocool, tool.CASES[case], tmp_path / case)
        outputs = call()
        written[case] = sorted(p.name for p in (tmp_path / case).iterdir())
        manifest = json.loads((tmp_path / case / "manifest.json").read_text())
        assert manifest["outputs"] == {k: v for k, v in outputs.items() if k != "manifest"}
    assert written == {"run-fig4": ["manifest.json", "run.csv"],
                       "run-fig8": ["manifest.json", "sweep.csv"],
                       "run-traj-fig4": ["manifest.json", "trajectories.csv"]}
    assert (tmp_path / "run-fig4" / "run.csv").read_text().count("\n") == 302
    assert json.loads((tmp_path / "run-traj-fig4" / "manifest.json").read_text())[
        "resolved"]["n_trajectories"] == 250_000


def test_the_run_traj_fig7_case_against_itself(capsys, tmp_path):
    """``run-traj-fig7`` is ``run_trajectories`` on fig7's two-segment schedule."""
    tool = _load_tool()
    assert tool.CASES["run-traj-fig7"] == {"preset": "fig7", "experiment": True,
                                           "trajectories": 250_000}
    assert len(zenocool.PRESETS["fig7"]["segments"]) == 2
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "run-traj-fig7", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("run-traj-fig7", "2319") and float(ratio) > 0.0
    _, call = tool._call(zenocool, tool.CASES["run-traj-fig7"], tmp_path)
    call()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "trajectories.csv"]
    resolved = json.loads((tmp_path / "manifest.json").read_text())["resolved"]
    assert (resolved["n_trajectories"], resolved["n_steps"]) == (250_000, 300)


def test_an_oracle_check_case_against_itself(capsys):
    tool = _load_tool()
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "oracle-check", "--repeats", "2"]) == 0
    case, n_max, *_, ratio = capsys.readouterr().out.splitlines()[1].split()
    assert (case, n_max) == ("oracle-check", "0") and float(ratio) > 0.0


def test_an_oracle_check_call_writes_its_report(tmp_path):
    tool = _load_tool()
    n_max, call = tool._call(zenocool, tool.CASES["oracle-check"], tmp_path / "old")
    call()
    report = json.loads((tmp_path / "old" / "oracle_report.json").read_text())
    assert (n_max, report["draws"], report["seed"]) == (0, 200, 7)


def test_the_hot_and_the_threshold_trajectory_cases_against_themselves(monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setitem(tool.CASES, "traj-fig7_threshold",
                        {**tool.CASES["traj-fig7_threshold"], "trajectories": 2_000})
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "traj-fig6,traj-fig7_threshold",
                      "--repeats", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("traj-fig6", "23189"),
                                                  ("traj-fig7_threshold", "2319")]
    assert all(float(row[-1]) > 0.0 for row in rows)


def test_the_fig4_conventional_and_traj_fig3c_cases_against_themselves(capsys):
    """``fig4_conventional`` times ``run``; ``traj-fig3c`` is the sampler call
    of a ``figures-10k`` pass."""
    tool = _load_tool()
    assert tool.CASES["fig4_conventional"] == {"preset": "fig4_conventional"}
    assert tool.CASES["traj-fig3c"] == {"preset": "fig3c", "trajectories": 20_000}
    src = str(ROOT / "src")
    assert tool.main([src, src, "--cases", "fig4_conventional,traj-fig3c",
                      "--repeats", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("fig4_conventional", "2319"),
                                                  ("traj-fig3c", "511")]
    assert all(float(row[-1]) > 0.0 for row in rows)

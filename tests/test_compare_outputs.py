import importlib.util
import shutil
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_copies_of_one_preset_compare_as_zero(tmp_path):
    tool = _load_tool()
    tool.write_outputs(tmp_path / "a", ["fig5c"])
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    report = tool.compare_trees(tmp_path / "a", tmp_path / "b")
    assert {"fig5c/run/run.csv", "fig5c/run/histogram.csv",
            "fig5c/run/coefficients_driven.csv",
            "fig5c/trajectories/trajectories.csv"} <= set(report)
    assert set(report.values()) == {"identical"}

    # One changed cell shows up in its own column, and only there.
    run_csv = tmp_path / "b" / "fig5c" / "run" / "run.csv"
    lines = run_csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[1] = ",".join(cells)
    run_csv.write_text("\n".join(lines) + "\n")
    changes = tool.compare_trees(tmp_path / "a", tmp_path / "b")["fig5c/run/run.csv"]
    assert 0.9e-9 < changes["n_bar"] < 1.1e-9
    assert all(v == 0.0 for k, v in changes.items() if k != "n_bar")


def test_diff_exits_1_only_above_the_threshold(tmp_path, capsys):
    tool = _load_tool()
    tool.write_outputs(tmp_path / "a", ["fig5c"])
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    diff = ["diff", str(tmp_path / "a"), str(tmp_path / "b")]
    assert tool.main(diff) == 0

    run_csv = tmp_path / "b" / "fig5c" / "run" / "run.csv"
    lines = run_csv.read_text().splitlines()
    cells = lines[1].split(",")
    n_bar = float(cells[1])
    for factor, code in ((1.0 + 1e-13, 0), (1.0 + 1e-11, 1)):
        cells[1] = repr(n_bar * factor)
        lines[1] = ",".join(cells)
        run_csv.write_text("\n".join(lines) + "\n")
        assert tool.main(diff) == code

    (tmp_path / "b" / "fig5c" / "run" / "run.csv").unlink()
    assert tool.main(diff) == 1
    assert "only in old" in capsys.readouterr().out

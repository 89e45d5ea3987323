"""zenocool benchmark: seeded workloads, timed end to end and traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload figures-10k --seed 1 --seconds 25 --trace 0

The benchmark drives the package in ``src/`` from outside, in one process
and one thread, as a closed loop: each operation starts when the previous
one has finished. One operation is one call of a runner entry point the
CLI dispatches to, with its config parsed first, as the CLI does. Every
operation's files are checked against the independent reference in
``reference.py``; a mismatch or an exception counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of traced passes, which alternate with untraced passes so that
the tracing overhead can be reported. The line before it holds the run's
context (versions, hardware, seed, sample counts). Both are also written
to ``.bench_out/results/``. README.md describes every metric.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60
TIME_UNITS = ("s", "us")

# Machine-speed calibration. The shared machine this benchmark was built on
# runs the same code up to 1.5x slower for stretches of seconds to a
# minute, and CPU time tracks wall time, so the slowdown is in execution
# speed, not in waiting. A fixed kernel owned by the benchmark runs before
# every operation and after the last; each operation's time is scaled by
# CALIBRATION_REFERENCE_S over the mean of the kernel times around it.
# End-to-end times are therefore seconds at the reference speed; the raw
# wall-clock medians are in the context line.
CALIBRATION_REFERENCE_S = 0.003
_CAL_FLOATS = np.linspace(0.0, 1.0, 20_000)
_CAL_FLOATS_OUT = np.empty_like(_CAL_FLOATS)
_CAL_RNG = np.random.default_rng(0)
_CAL_TABLE = np.linspace(0.0, 1.0, 2_320)
_CAL_INDEX = _CAL_RNG.integers(0, _CAL_TABLE.size, 65_536)
_CAL_DRAWS = np.empty(_CAL_INDEX.size)
_CAL_GATHERED = np.empty(_CAL_INDEX.size)
_CAL_SURVIVE = np.empty(_CAL_INDEX.size, dtype=bool)
_CAL_ALIVE = np.empty(_CAL_INDEX.size, dtype=bool)


def calibrate() -> float:
    """Seconds taken by the fixed kernel.

    Large ufunc passes, then uniform draws compared against gathered table
    entries with boolean updates: the shapes of work the operations spend
    their time on. Every result goes into a preallocated buffer, so the
    kernel's cost does not depend on the allocator state the program left.
    """
    start = perf_counter()
    for _ in range(10):
        np.exp(_CAL_FLOATS, out=_CAL_FLOATS_OUT)
        np.log1p(_CAL_FLOATS_OUT, out=_CAL_FLOATS_OUT)
    _CAL_ALIVE.fill(True)
    for _ in range(4):
        _CAL_RNG.random(out=_CAL_DRAWS)
        np.take(_CAL_TABLE, _CAL_INDEX, out=_CAL_GATHERED)
        np.less(_CAL_DRAWS, _CAL_GATHERED, out=_CAL_SURVIVE)
        np.logical_and(_CAL_ALIVE, _CAL_SURVIVE, out=_CAL_ALIVE)
    return perf_counter() - start


def load_program():
    """Import ``zenocool`` from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "zenocool" / "__init__.py").is_file():
        sys.exit(f"benchmark: no zenocool package under {SRC}")
    sys.path.insert(0, str(SRC))
    import zenocool
    if Path(zenocool.__file__).resolve().parent != SRC / "zenocool":
        sys.exit(f"benchmark: imported zenocool from {zenocool.__file__}, "
                 f"not from {SRC}")
    return zenocool


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Operations

def execute(zc, op: dict, out_dir: Path):
    """One operation, as ``zenocool.cli`` would dispatch it."""
    kind = op["kind"]
    if kind == "oracle":
        zc.runner.run_oracle_check(out_dir, draws=op["draws"], seed=op["seed"])
        return
    config = zc.config.parse_config_data(op["config"])
    if kind == "run":
        zc.runner.run_experiment(config, out_dir)
    elif kind == "sweep":
        zc.runner.run_sweep(config, out_dir)
    elif kind == "traj":
        zc.runner.run_trajectories(config, out_dir,
                                   n_trajectories=op["n_trajectories"],
                                   seed=op["seed"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")


def csv_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*.csv"))


@dataclass
class Work:
    """Work one operation does, read from its files."""

    level_steps: int = 0      # sum over runs of (n_max + 1) * measurements
    trajectory_steps: int = 0  # trajectories * measurements simulated


def op_work(op: dict, out_dir: Path, expected: dict) -> Work:
    if op["kind"] == "run" and "terminal" in expected:
        return Work(level_steps=(expected["n_max"] + 1) * sum(expected["counts"]))
    if op["kind"] == "sweep":
        return Work(level_steps=sum((p["n_max"] + 1) * p["steps"]
                                    for p in expected["points"]))
    if op["kind"] == "traj":
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            resolved = json.load(fh)["resolved"]
        return Work(trajectory_steps=resolved["n_trajectories"] * resolved["n_steps"])
    return Work()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, op: dict, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append({"op": op["name"], "problems": problems[:5]})


@dataclass
class Pass:
    seconds: list          # wall time per operation; None where it raised
    ok: list               # per operation: passed the gate
    calibration: list      # kernel times before the first and after each operation
    bytes_written: int = 0

    def scaled(self) -> list:
        """Operation times at the reference machine speed."""
        return [None if s is None else s * 2.0 * CALIBRATION_REFERENCE_S / (a + b)
                for s, a, b in zip(self.seconds, self.calibration,
                                   self.calibration[1:])]

    @property
    def total(self) -> float:
        return sum(s for s in self.scaled() if s is not None)

    @property
    def raw_total(self) -> float:
        return sum(s for s in self.seconds if s is not None)


def run_pass(zc, ops, dirs, expected, tally: Tally, *, count_bytes=False) -> Pass:
    result = Pass([], [], [calibrate()])
    for op, out_dir, want in zip(ops, dirs, expected):
        start = perf_counter()
        try:
            execute(zc, op, out_dir)
            elapsed = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failing operation is a result
            result.seconds.append(None)
            result.ok.append(False)
            tally.record(op, [f"{type(exc).__name__}: {exc}"])
            result.calibration.append(calibrate())
            continue
        try:
            problems = reference.check(op, out_dir, want)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails the gate
            problems = [f"gate: {type(exc).__name__}: {exc}"]
        result.seconds.append(elapsed)
        result.ok.append(not problems)
        tally.record(op, problems)
        if count_bytes:
            result.bytes_written += csv_bytes(out_dir)
        result.calibration.append(calibrate())
    return result


# --------------------------------------------------------------------------
# Set-up

def measure_setup(ops: list[dict], work_dir: Path) -> tuple[list, list]:
    """Wall time of fresh interpreters that import and parse the configs."""
    configs = work_dir / "configs.json"
    configs.write_text(json.dumps([op["config"] for op in ops if "config" in op]),
                       encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(configs)]
    walls, imports = [], []
    before = calibrate()
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = perf_counter() - start
        after = calibrate()
        walls.append(wall * 2.0 * CALIBRATION_REFERENCE_S / (before + after))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


# --------------------------------------------------------------------------
# Metrics

def end_to_end(ops, works, passes: list[Pass], setup_walls, workload) -> tuple[dict, dict]:
    samples = [s for p in passes for s, ok in zip(p.scaled(), p.ok) if ok]
    level_steps = level_time = traj_steps = traj_time = 0.0
    for p in passes:
        for op, work, s, ok in zip(ops, works, p.scaled(), p.ok):
            if not ok:
                continue
            if op["kind"] in ("run", "sweep"):
                level_steps += work.level_steps
                level_time += s
            elif op["kind"] == "traj":
                traj_steps += work.trajectory_steps
                traj_time += s
    pct = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "pass_s": statistics.median(p.total for p in passes),
        "op_p50_s": statistics.median(samples) if samples else float("nan"),
        "op_tail_s": float(np.percentile(samples, pct)) if samples else float("nan"),
        "level_steps_per_s": level_steps / level_time if level_time else float("nan"),
        "trajectory_steps_per_s": traj_steps / traj_time if traj_time else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for s in samples if s > metrics["op_tail_s"])
    raw = [s for p in passes for s, ok in zip(p.seconds, p.ok) if ok]
    per_op = {op["name"]: statistics.median(s) for op, s in zip(ops, zip(
        *(p.scaled() for p in passes))) if None not in s}
    info = {"op_samples": len(samples), "op_tail_percentile": pct,
            "op_tail_samples_beyond": beyond, "op_median_s": per_op,
            "wall_pass_s": statistics.median(p.raw_total for p in passes),
            "wall_op_p50_s": statistics.median(raw) if raw else None,
            "machine_slowdown": statistics.median(
                c for p in passes for c in p.calibration) / CALIBRATION_REFERENCE_S}
    return metrics, info


def layer_pass(tr: Tracer, ops, works, p: Pass) -> dict:
    """Per-layer figures of one traced pass."""
    step_calls = tr.calls("protocol.step")
    step_s = tr.total("protocol.step")
    n_max = sorted(tr.initial_n_max)
    return {
        "config.parse_config_data.s": tr.total("config.parse_config_data"),
        "fock.thermal_distribution.s": tr.total("fock.thermal_distribution"),
        "fock.initial_n_max": n_max[(len(n_max) - 1) // 2] if n_max else 0,
        "fock.PopulationDistribution.count": tr.counts["fock.PopulationDistribution.count"],
        "coefficients.build_table.s": tr.total("coefficients.build_table"),
        "coefficients.build_table.calls": tr.calls("coefficients.build_table"),
        "coefficients.levels_evaluated": tr.counts["coefficients.levels_evaluated"],
        "protocol.step.s": step_s,
        "protocol.step.calls": step_calls,
        "protocol.step.us_per_call": 1e6 * step_s / step_calls if step_calls else 0.0,
        "protocol.run.self_s": tr.self_time("protocol.run"),
        "protocol.logsumexp.calls": tr.calls("protocol.logsumexp"),
        "protocol.logsumexp.s": tr.total("protocol.logsumexp"),
        "protocol.level_steps": sum(w.level_steps for w in works),
        "protocol.initial_state.s": tr.total("protocol.initial_state"),
        "protocol.sweep.self_s": tr.self_time("protocol.sweep"),
        "oracle.sample_trajectories.self_s": tr.self_time("oracle.sample_trajectories"),
        "oracle.rng_draws": tr.counts["oracle.rng_draws"],
        "oracle.useful_draw_ratio": tr.useful_draw_ratio(),
        "oracle.compare_random_draws.s": tr.total("oracle.compare_random_draws"),
        "runner.write_run_csv.s": tr.total("runner.write_run_csv"),
        "runner.write_histogram_csv.s": tr.total("runner.write_histogram_csv"),
        "runner.write_coefficients_csv.s": tr.total("runner.write_coefficients_csv"),
        "runner.bytes_written": p.bytes_written,
        "runner.self_s": tr.self_time("runner.run_experiment", "runner.run_sweep",
                                      "runner.run_trajectories",
                                      "runner.run_oracle_check"),
    }


def per_layer(layer_passes: list[dict], units: dict) -> tuple[dict, list[str]]:
    """Medians of the timed figures; counts must repeat exactly in every pass."""
    metrics, problems = {}, []
    for name, first in layer_passes[0].items():
        values = [lp[name] for lp in layer_passes]
        if units[name] in TIME_UNITS:
            metrics[name] = statistics.median(values)
            continue
        if any(v != first for v in values):
            problems.append(f"counter {name} differs between passes: {values}")
        metrics[name] = first
    return metrics, problems


# --------------------------------------------------------------------------
# Context

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zenocool").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def context(args, zc) -> dict:
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": src_digest(),
        "zenocool": zc.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
    }


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    zc = load_program()
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    ops = workloads.generate(args.workload, args.seed)
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    dirs = [work_dir / "ops" / f"{i:02d}-{op['name']}" for i, op in enumerate(ops)]
    for d in dirs:
        d.mkdir(parents=True)
    info = context(args, zc)

    setup_walls, setup_imports = measure_setup(ops, work_dir)

    # Untimed first pass: absorbs first-call costs, and its files give the
    # reference what it needs (truncation, realized segment lengths).
    tally = Tally()
    warm, expected, works = [], [], []
    for op, out_dir in zip(ops, dirs):
        start = perf_counter()
        try:
            execute(zc, op, out_dir)
            warm.append(perf_counter() - start)
            want = reference.prepare(op, out_dir, zc)
            problems = reference.check(op, out_dir, want)
        except Exception as exc:  # noqa: BLE001 - later passes fail it again
            warm.append(None)
            want, problems = None, [f"{type(exc).__name__}: {exc}"]
        tally.record(op, problems)
        expected.append(want)
        works.append(op_work(op, out_dir, want) if want is not None else Work())
    info["ops_per_pass"] = len(ops)
    info["first_pass_op_s"] = {op["name"]: s for op, s in zip(ops, warm)}

    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    tracer = Tracer(zc)
    deadline = perf_counter() + args.seconds
    while True:
        if args.trace and len(plain) > len(traced):
            tracer.reset()
            with tracer:
                p = run_pass(zc, ops, dirs, expected, tally, count_bytes=True)
            traced.append(p)
            layer_passes.append(layer_pass(tracer, ops, works, p))
        else:
            plain.append(run_pass(zc, ops, dirs, expected, tally))
        if perf_counter() >= deadline and (not args.trace or traced):
            break

    problems = []
    if args.trace:
        metrics, problems = per_layer(layer_passes, units)
        metrics["cli.import_s"] = statistics.median(setup_imports)
        overhead = (statistics.median(p.total for p in traced)
                    - statistics.median(p.total for p in plain))
        metrics["tracing.overhead_s"] = overhead
        metrics["error_rate"] = tally.failed / tally.attempted
        info["tracing_overhead_s"] = overhead
        info["passes"] = {"plain": len(plain), "traced": len(traced)}
    else:
        metrics, tail = end_to_end(ops, works, plain, setup_walls, args.workload)
        info.update(tail)
        info["passes"] = len(plain)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")
    info["errors"] = tally.errors
    if problems:
        info["errors"].append({"op": "counters", "problems": problems})

    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A figure with no successful operation behind it is null; that
        # happens only in a run that is not correct.
        "metrics": {name: {"value": None if value != value else value,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"info": info, "result": result},
                                               indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

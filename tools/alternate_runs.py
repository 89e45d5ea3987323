"""Time ``run``, ``sweep``, the trajectory sampler, the CSV writers or the oracle check of two
source trees, alternating.

    python tools/alternate_runs.py OLD_SRC NEW_SRC [--cases fig4,fig6] [--repeats 21]

OLD_SRC and NEW_SRC are directories holding a ``zenocool`` package (the
``src`` of two checkouts). Each package is copied to a temporary directory
as ``zenocool_old`` and ``zenocool_new``; the package imports itself only
relatively, so both load side by side. Each case parses the same config
on both sides and builds its schedule and thermal start there. A case
with a ``trajectories`` count (the ``traj-*`` cases) times
``sample_trajectories`` at a fixed seed, which includes the survival
curve that realizes the schedule (the engine's step loop without
records, which reads n_bar too where a segment has an ``until_n_bar``,
as in ``traj-fig7_threshold``); a case whose config has a ``sweep``
block (the ``sweep-*`` cases) times ``sweep`` over its whole grid, in
the library units the config converts it to
(``ExperimentConfig.sweep_values``), and its n_max is the largest of
the grid's starts; ``sweep-fig7_threshold`` sweeps the switch of an
``until_n_bar`` schedule, whose terminal records take the realized steps
of that loop;
an ``export`` case (``export-hot-100k``)
runs its schedule once, untimed, and times the run, histogram and
coefficient writers on the result, as a run with every export on calls
them; the ``oracle-check`` case times ``runner.run_oracle_check`` at 200
draws and seed 7, each side writing into a directory of its own, and its
n_max reads 0; every other case times ``run``. After
one untimed call per side, every repeat times one call per side, the old
side first on even repeats and the new side first on odd ones, so that a
drift in machine speed falls on both sides alike. The table gives each side's
median and quartiles in ms and the ratio of the medians, new over old.

Run as a script, it pins the BLAS and OpenMP pools to one thread before
numpy loads, as ``bench/run.py`` does. The pin is a ``setdefault``, so a
value exported beforehand survives it:
``OPENBLAS_NUM_THREADS=2 python tools/alternate_runs.py ...`` times two
BLAS threads. The header line ends with the number of CPUs the process
may use and the ``OPENBLAS_NUM_THREADS`` the run saw (``unset`` if none):
the chunked sums of the engine are faster or slower than one long dot
depending on the BLAS threads.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

_G_M = 2.0 * math.pi * 1.0e6
_OMEGA_M = 1.56e10

# a driven 300-measurement run at 100 K, shaped like a hot-100k run
_HOT_100K = {"omega_m_rad_s": _OMEGA_M, "g_m": _G_M, "g_f": 45.0 * _G_M,
             "delta_e": 0.0, "tau": 220.0 / _OMEGA_M, "T_kelvin": 100.0,
             "segments": [{"variant": "driven", "steps": 300}], "seed": 1}

CASES = {
    "fig3a": {"preset": "fig3a"},
    "fig3c_conventional": {"preset": "fig3c_conventional"},
    "fig4": {"preset": "fig4"},
    "fig7": {"preset": "fig7"},
    "fig7_threshold": {"preset": "fig7_threshold"},
    "fig6": {"preset": "fig6"},
    "hot-100k": _HOT_100K,
    "traj-fig4": {"preset": "fig4", "trajectories": 250_000},
    "traj-fig7": {"preset": "fig7", "trajectories": 250_000},
    # the sampler call of a hot-100k operation: 10^4 trajectories at n_max 23,189
    "traj-fig6": {"preset": "fig6", "trajectories": 10_000},
    # an until_n_bar schedule, whose survival curve's step loop also reads n_bar
    "traj-fig7_threshold": {"preset": "fig7_threshold", "trajectories": 250_000},
    "sweep-fig6": {"preset": "fig6_sweep"},
    "sweep-fig7": {"preset": "fig7_switch"},
    "sweep-fig7_threshold": {"preset": "fig7_threshold",
                             "sweep": {"axis": "switch",
                                       "values": [0, 20, 60, 120, 189, 300]}},
    "export-hot-100k": {**_HOT_100K, "export": True,
                        "outputs": {"histogram_csv": True, "coefficients_csv": True}},
    "oracle-check": {"oracle_check": {"draws": 200, "seed": 7}},
}
TRAJECTORY_SEED = 1
SIDES = ("old", "new")


def _load(src: Path, side: str, tmp: Path):
    name = f"zenocool_{side}"
    shutil.copytree(src / "zenocool", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def _export(package, result, powers, out_dir: Path):
    """The three CSV writers on ``result``, as ``run_experiment`` calls them."""
    runner = package.runner
    runner.write_run_csv(out_dir / "run.csv", result)
    runner.write_histogram_csv(out_dir / "histogram.csv", result.final)
    runner.write_coefficients_csv(out_dir / "coefficients.csv", result.tables[0], powers)


def _call(package, case: dict, out_dir: Path):
    """The case's start's n_max and the call to time on it; an export or
    oracle-check case writes into ``out_dir``."""
    config = dict(case)
    oracle_check = config.pop("oracle_check", None)
    if oracle_check is not None:
        return 0, functools.partial(package.runner.run_oracle_check, out_dir, **oracle_check)
    n_trajectories = config.pop("trajectories", None)
    export = config.pop("export", False)
    config = package.parse_config_data(config)
    schedule, thermal = config.schedule(), config.thermal_spec()
    if config.sweep is not None:
        # a tree older than the config's unit conversion has no SI tau sweep
        values = (config.sweep_values() if hasattr(config, "sweep_values")
                  else config.sweep.values)
        axis = config.sweep.axis
        starts = (package.protocol._apply_axis(axis, v, thermal, schedule) for v in values)
        n_max = max(package.initial_state(th, sched, hard_cap=config.hard_cap).n_max
                    for th, sched in starts)
        return n_max, functools.partial(package.sweep, axis, values, thermal, schedule,
                                        hard_cap=config.hard_cap)
    initial = package.initial_state(thermal, schedule, hard_cap=config.hard_cap)
    if export:
        out_dir.mkdir(parents=True)
        return initial.n_max, functools.partial(
            _export, package, package.run(initial, schedule), config.outputs.powers, out_dir)
    if n_trajectories is None:
        return initial.n_max, functools.partial(package.run, initial, schedule)
    return initial.n_max, functools.partial(
        package.sample_trajectories, initial, schedule,
        n_trajectories=n_trajectories, seed=TRAJECTORY_SEED)


def alternate(old_src, new_src, cases, repeats: int) -> list[dict]:
    """Each case's n_max and its call's times in seconds per side."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            packages = [_load(Path(src), side, Path(tmp))
                        for src, side in zip((old_src, new_src), SIDES)]
            results = []
            for case in cases:
                n_max, calls = zip(*(_call(p, CASES[case], Path(tmp, case, side))
                                     for p, side in zip(packages, SIDES)))
                if len(set(n_max)) != 1:
                    raise SystemExit(f"{case}: the two sides start at n_max {sorted(n_max)}")
                times = ([], [])
                for call in calls:
                    call()
                for k in range(repeats):
                    for i in (0, 1) if k % 2 == 0 else (1, 0):
                        t0 = time.perf_counter()
                        calls[i]()
                        times[i].append(time.perf_counter() - t0)
                results.append({"case": case, "n_max": n_max[0],
                                "old": times[0], "new": times[1]})
            return results
        finally:
            sys.path.remove(tmp)
            for side in SIDES:
                for name in [m for m in sys.modules if m.split(".")[0] == f"zenocool_{side}"]:
                    del sys.modules[name]


def _summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{median * 1e3:8.3f} [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="directory holding the old zenocool package")
    parser.add_argument("new_src", help="directory holding the new zenocool package")
    parser.add_argument("--cases", default=",".join(CASES),
                        help=f"comma-separated subset of {', '.join(CASES)}")
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        parser.error(f"unknown cases {unknown}; expected some of {list(CASES)}")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    width = max(map(len, cases))
    print(f"{'case':{width}} {'n_max':>6}  {'old ms: median [q1, q3]':>30}  "
          f"{'new ms: median [q1, q3]':>30}  new/old  usable_cpus={_usable_cpus()}  "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for r in alternate(args.old_src, args.new_src, cases, args.repeats):
        ratio = statistics.median(r["new"]) / statistics.median(r["old"])
        print(f"{r['case']:{width}} {r['n_max']:6d}  {_summary(r['old']):>30}  "
              f"{_summary(r['new']):>30}  {ratio:7.3f}")
    return 0


if __name__ == "__main__":
    # numpy loads with the packages, after this
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numeric failure (any
``ValueError`` that is not a ``ConfigError``, such as a non-finite
coefficient, or an array that cannot be allocated), 3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace

from .config import ConfigError, PRESETS, parse_config, parse_config_data
from .fock import CapacityError
from .oracle import MAX_TRAJECTORIES, OracleNumericalError
from . import runner

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _integer(minimum: int, maximum: float = math.inf):
    """argparse type: a whole number in [``minimum``, ``maximum``]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite, nonnegative number (NaN or inf would pass anything)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _add_common(sub, reads_config: bool = True):
    if reads_config:
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--preset", choices=sorted(PRESETS),
                         help="bundled parameter preset (overlaid under the config)")
    sub.add_argument("--out-dir", required=True, help="output directory")
    sub.add_argument("--seed", type=_integer(0), help="override the config seed")
    sub.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                     help="suppress progress logging")


def _load_config(args):
    if args.config:
        config = parse_config(args.config, preset=args.preset)
    elif args.preset:
        config = parse_config_data({"preset": args.preset})
    else:
        raise ConfigError("give --config and/or --preset")
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenocool",
        description="Measurement-driven cooling of a thermal resonator: "
                    "runs, parameter sweeps, coefficient tables, oracle "
                    "checks and trajectory sampling.",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a measurement schedule")
    _add_common(p_run)

    p_coeffs = sub.add_parser("coeffs", help="export coefficient tables")
    _add_common(p_coeffs)

    p_sweep = sub.add_parser("sweep", help="scan one axis of the protocol")
    _add_common(p_sweep)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare closed forms against exact propagators")
    _add_common(p_oracle, reads_config=False)
    p_oracle.add_argument("--draws", type=_integer(1))
    p_oracle.add_argument("--tolerance", type=_tolerance)

    p_traj = sub.add_parser("trajectories",
                            help="Monte Carlo survival statistics")
    _add_common(p_traj)
    p_traj.add_argument("--trajectories", type=_integer(1, MAX_TRAJECTORIES),
                        default=10000)
    return parser


def _dispatch(args) -> int:
    if args.command == "run":
        config = _load_config(args)
        runner.run_experiment(config, args.out_dir)
    elif args.command == "coeffs":
        config = _load_config(args)
        if not config.outputs.coefficients_csv:
            config = replace(config, outputs=replace(config.outputs,
                                                     run_csv=False,
                                                     coefficients_csv=True))
        runner.run_experiment(config, args.out_dir)
    elif args.command == "sweep":
        config = _load_config(args)
        runner.run_sweep(config, args.out_dir)
    elif args.command == "oracle-check":
        # a flag that is not given keeps run_oracle_check's default
        flags = {k: getattr(args, k) for k in ("draws", "seed", "tolerance")}
        runner.run_oracle_check(args.out_dir, **{k: v for k, v in flags.items() if v is not None})
    elif args.command == "trajectories":
        config = _load_config(args)
        runner.run_trajectories(config, args.out_dir,
                                n_trajectories=args.trajectories, seed=args.seed)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return EXIT_CONFIG
        return EXIT_OK
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapacityError, OracleNumericalError, ArithmeticError,
            ValueError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

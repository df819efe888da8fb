"""Command-line front end.

Subcommands: steady, evolve, power, gains, landscape, sweep, figure,
validate.  Topologies come from inline flags, from a ``--config`` JSON
file, or both (inline flags override config fields).  Tables go to
stdout or, with ``--out``, to CSV/JSON files.  Exit codes: 0 success,
2 configuration or usage error, 3 numerical failure (singular or
unstable system, a maximum outside the scanned range).  Diagnostics go
to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .config import (FORMATS, load_json, network_from_dict, parse_run_config,
                     resize_topology, topology_from_dict, topology_to_dict)
from .errors import (ConfigError, NoSteadyStateError, QbnetError,
                     ScanEdgeError, UnstableSystemError)
from .export import (SweepTable, table_to_csv_text, table_to_json_text,
                     write_table)
from .figures import FIGURE_IDS, run_figure
from .network import FAMILIES, VARIANTS, TopologyParams, build_network, validate
from .observables import (_raise_first, _report_targets, _steady_points,
                          energy_curve, gain_report, max_power, power_curve)
from .nonreciprocity import _landscape_table, phase_landscape
from .sweep import run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _parse_theta_list(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated angle list: {text!r}")


def _add_topology_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("topology")
    group.add_argument("--family", choices=FAMILIES)
    group.add_argument("--variant", choices=VARIANTS)
    group.add_argument("--n", type=int, help="battery count")
    group.add_argument("--gb", type=float, help="direct coupling strength g_b")
    group.add_argument("--gamma", type=float,
                       help="uniform decay rate for charger and batteries")
    group.add_argument("--gamma-c", type=float,
                       help="charger decay rate (overrides --gamma)")
    group.add_argument("--big-gamma", type=float,
                       help="intermediate-mode decay rate (default: --gamma)")
    group.add_argument("--xi", type=_parse_complex, help="drive amplitude")
    group.add_argument("--theta", type=_parse_theta_list,
                       help="comma-separated direct-coupling phases")


def _add_common_flags(parser: argparse.ArgumentParser, config=True):
    if config:
        parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: print to stdout)")
    parser.add_argument("--format", choices=FORMATS,
                        help="table format (default: csv; sweep: the config's)")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress the timestamp metadata line")


def _topology_from_args(args) -> TopologyParams:
    """Merge --config topology (if any) with inline flag overrides."""
    base = {}
    if getattr(args, "config", None):
        doc = load_json(args.config)
        if "topology" in doc:
            base = topology_to_dict(parse_run_config(doc).topology)
        else:
            base = dict(doc)
    if args.family is not None:
        base["family"] = args.family
    if args.variant is not None:
        base["variant"] = args.variant
    if args.n is not None:
        base = resize_topology(base, args.n)
    if args.gb is not None:
        base["g_b"] = args.gb
    if args.gamma is not None:
        base["gamma_b"] = args.gamma
        base.setdefault("gamma_c", args.gamma)
        base.setdefault("Gamma", args.gamma)
    if args.gamma_c is not None:
        base["gamma_c"] = args.gamma_c
    if args.big_gamma is not None:
        base["Gamma"] = args.big_gamma
    if args.xi is not None:
        base["xi"] = [args.xi.real, args.xi.imag]
    if args.theta is not None:
        base["thetas"] = list(args.theta)
    base.setdefault("variant", "nr")
    base.setdefault("xi", 1.0)
    missing = [k for k in ("family", "n", "g_b", "gamma_c", "gamma_b")
               if k not in base]
    if missing:
        raise ConfigError(
            "missing topology parameters: " + ", ".join(sorted(missing)))
    return topology_from_dict(base, "topology")


def _emit(table: SweepTable, args) -> None:
    fmt = args.format or "csv"
    if args.out:
        for path in write_table(table, args.out, fmt, args.deterministic):
            print(path)
    elif fmt == "json":
        sys.stdout.write(table_to_json_text(table, deterministic=True))
    else:
        sys.stdout.write(table_to_csv_text(table, deterministic=True))


def _time_grid(args, positive: bool = False) -> np.ndarray:
    """The ``--t-*`` grid; a log grid, or one that must be ``positive``,
    starts at ``t_max / points`` unless ``--t-min`` is above zero."""
    if args.t_max <= 0:
        raise ConfigError(f"--t-max must be > 0, got {args.t_max}")
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    t_min = args.t_min
    if t_min <= 0 and (positive or args.log_times):
        t_min = args.t_max / args.points
    spacing = np.geomspace if args.log_times else np.linspace
    return spacing(t_min, args.t_max, args.points)


# --- subcommand handlers ---------------------------------------------------

def _battery_number(target: str) -> float:
    """Battery index for table rows; the charger reports as 0."""
    if target.startswith("b_"):
        return float(target.split("_")[1])
    return 0.0


def _cmd_steady(args) -> int:
    params = _topology_from_args(args)
    targets = [args.target] if args.target else _report_targets(params)
    batch = _steady_points(params)
    _raise_first(batch.errors)
    rows = list(zip(targets, batch.energies(*targets)[0].tolist()))
    if args.out or args.format:
        metadata = {"topology": json.dumps(topology_to_dict(params), sort_keys=True)}
        if args.target:
            metadata["target"] = args.target
        table = SweepTable("steady", ("battery", "E_over_omega"),
                           [[_battery_number(t), e] for t, e in rows], metadata)
        _emit(table, args)
    else:
        for target, energy in rows:
            label = "" if len(rows) == 1 else f"[{target}]"
            print(f"E/omega{label} = {energy:.17g}")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    params = _topology_from_args(args)
    curve = energy_curve(params, args.target, _time_grid(args))
    table = SweepTable("evolve", ("t", "E_over_omega"),
                       [[t, e] for t, e in zip(curve.times, curve.energy)],
                       {"target": curve.mode, "method": curve.method})
    _emit(table, args)
    return EXIT_OK


def _cmd_power(args) -> int:
    params = _topology_from_args(args)
    curve = power_curve(params, args.target, _time_grid(args, positive=True))
    t_star, p_max = max_power(params, curve.mode)
    table = SweepTable("power", ("t", "P"),
                       [[t, p] for t, p in zip(curve.times, curve.power)],
                       {"target": curve.mode, "method": curve.method,
                        "t_star": repr(t_star), "p_max": repr(p_max)})
    _emit(table, args)
    return EXIT_OK


def _cmd_gains(args) -> int:
    params = _topology_from_args(args)
    report = gain_report(params, include_power=args.power)
    columns = ["battery", "E_nr", "E_r1", "E_r2", "G1", "G2"]
    if args.power:
        columns += ["P_max_nr", "P_max_r1", "P_max_r2", "eta1", "eta2"]
    rows, errors = [], []
    for i, target in enumerate(report.targets):
        row = [_battery_number(target), report.e_nr[i], report.e_r1[i],
               report.e_r2[i], report.g1[i], report.g2[i]]
        if args.power:
            row += [report.p_max_nr[i], report.p_max_r1[i], report.p_max_r2[i],
                    report.eta1[i], report.eta2[i]]
        if all(np.isfinite(v) for v in row):
            rows.append(row)
        else:
            errors.append((i, _battery_number(target), "undefined ratio"))
    metadata = {}
    if report.flags:
        metadata["undefined_ratios"] = "; ".join(report.flags)
    table = SweepTable("gains", tuple(columns), rows, metadata, errors)
    _emit(table, args)
    return EXIT_OK


def _cmd_landscape(args) -> int:
    params = _topology_from_args(args)
    scape = phase_landscape(params, args.target, grid_points=args.points)
    columns, rows, argmax = _landscape_table(scape)
    table = SweepTable("landscape", columns, rows,
                       {"target": scape.target, "argmax": argmax})
    _emit(table, args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_run_config(load_json(args.config))
    if cfg.sweep is None:
        raise ConfigError("config.sweep: required for the sweep command")
    table = run_sweep(cfg)
    if args.out is None and cfg.out_dir is not None:
        args.out = cfg.out_dir
    if args.format is None:
        args.format = cfg.format
    _emit(table, args)
    return EXIT_OK


def _cmd_figure(args) -> int:
    out_dir = args.out or "."
    for path in run_figure(args.fig_id, out_dir, args.format or "csv",
                           args.deterministic):
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    doc = load_json(args.config)
    if "modes" in doc:
        spec = network_from_dict(doc)
    elif "topology" in doc:
        spec = build_network(parse_run_config(doc).topology)
    else:
        raise ConfigError("config: expected a 'modes' or 'topology' document")
    problems = validate(spec)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return EXIT_USAGE
    print("ok")
    return EXIT_OK


@functools.cache  # one parser per process; each call parses into a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbnet",
        description="Steady states, charging dynamics and nonreciprocity "
                    "gains of driven-dissipative bosonic battery networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="steady-state stored energy")
    _add_topology_flags(p)
    _add_common_flags(p)
    p.add_argument("--target", help="mode id (default: terminal battery)")
    p.set_defaults(handler=_cmd_steady)

    for name, text, handler, points in (
            ("evolve", "stored energy vs time from vacuum", _cmd_evolve, 2001),
            ("power", "charging power curve and its maximum", _cmd_power, 1001)):
        p = sub.add_parser(name, help=text)
        _add_topology_flags(p)
        _add_common_flags(p)
        p.add_argument("--target")
        p.add_argument("--t-max", type=float, default=2000.0)
        p.add_argument("--t-min", type=float, default=0.0)
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--log-times", action="store_true")
        p.set_defaults(handler=handler)

    p = sub.add_parser("gains", help="r1/r2/nr energies and gain ratios")
    _add_topology_flags(p)
    _add_common_flags(p)
    p.add_argument("--power", action="store_true",
                   help="include maximum-power gains (slower)")
    p.set_defaults(handler=_cmd_gains)

    p = sub.add_parser("landscape", help="phase landscape of the target energy")
    _add_topology_flags(p)
    _add_common_flags(p)
    p.add_argument("--target")
    p.add_argument("--points", type=int, default=41, help="grid points per axis")
    p.set_defaults(handler=_cmd_landscape)

    p = sub.add_parser("sweep", help="run the sweep described by a config file")
    p.add_argument("--config", required=True)
    _add_common_flags(p, config=False)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("figure", help="reproduce a reference dataset")
    p.add_argument("fig_id", choices=FIGURE_IDS)
    _add_common_flags(p, config=False)
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("validate", help="validate a network or run config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_validate)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (NoSteadyStateError, UnstableSystemError, ScanEdgeError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (QbnetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())

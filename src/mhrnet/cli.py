"""Command-line entry point: thresholds, simulate, sweep, estimate-cstar.

Exit codes: 0 success, 2 usage/config error, 3 numerical divergence.
Progress logs go to stderr: warnings only by default, each finished run
and skipped rate fit at -v, and fitted rates and written files at -vv.
"""

import argparse
import logging
import re
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import yaml

from .analysis import compute_constants, estimate_gn_constant
from .grid import Grid
from .harness import (
    ExperimentSpec,
    InitialCondition,
    SweepSpec,
    generate_initial,
    run_experiment,
    run_sweep,
    write_json,
)
from .integrator import IntegratorConfig
from .model import Parameters, real

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

class ConfigError(Exception):
    pass


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads plain numbers as YAML 1.2 does.

    1e-4 and 1.0e5 are floats; YAML 1.1 needs a dot and a signed exponent,
    so it reads those as strings.  010 and 1:30 are strings, which a key
    that needs a number refuses; YAML 1.1 reads them as octal 8 and
    base-60 90.
    """


_NUMBER_TAGS = ("tag:yaml.org,2002:int", "tag:yaml.org,2002:float")
_Loader.yaml_implicit_resolvers = {
    first: [(tag, regexp) for tag, regexp in resolvers if tag not in _NUMBER_TAGS]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
}
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:int",
    re.compile(r"^[-+]?(?:0b[0-1_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+)$"),
    list("-+0123456789"),
)
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"""^(?:[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?
                   |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                   |[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+
                   |[-+]?\.(?:inf|Inf|INF)
                   |\.(?:nan|NaN|NAN))$""", re.X),
    list("-+0123456789."),
)


def load_config(path=None):
    """Load a YAML config; None loads the packaged all-ones default."""
    if path is None:
        text = resources.files("mhrnet").joinpath("data/default.yaml").read_text()
    else:
        path = Path(path)
        if not path.is_file():
            raise ConfigError("config file not found: %s" % path)
        try:
            text = path.read_text()
        except UnicodeDecodeError as err:
            raise ConfigError("config file %s is not text: %s" % (path, err)) from err
    try:
        cfg = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as err:
        raise ConfigError("malformed config: %s" % err) from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping at top level")
    return cfg


def apply_overrides(cfg, pairs):
    """Apply dotted-path overrides like parameters.P=25 (values parse as YAML)."""
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError("override %r is not of the form key.path=value" % item)
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as err:
            raise ConfigError("cannot parse override value %r: %s" % (raw, err)) from err
        node = cfg
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError("override path %r crosses a non-mapping" % dotted)
        node[keys[-1]] = value
    return cfg


def _names(cls):
    return tuple(f.name for f in fields(cls))


# the top-level keys of a config: the ExperimentSpec fields, each section
# read into the field of its name, and the sweep section
CONFIG_KEYS = _names(ExperimentSpec) + ("sweep",)


def _section(cfg, key, names, required=False):
    """The section cfg[key] (cfg itself for key None), a mapping whose keys are among names.

    A required section must give every name; any other key is refused.
    """
    section = cfg if key is None else cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError("config section %s must be a mapping, got %r" % (key, section))
    prefix = "" if key is None else key + "."
    unknown = [prefix + str(k) for k in section if k not in names]
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
    missing = [prefix + n for n in names if n not in section] if required else []
    if missing:
        raise ConfigError("missing config key(s): %s" % ", ".join(missing))
    return section


def _lists(section, key):
    """section, each of whose values must be a list."""
    for name, value in section.items():
        if not isinstance(value, list):
            raise ConfigError("%s.%s must be a list, got %r" % (key, name, value))
    return section


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), with a TypeError or ValueError raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _model(cfg):
    """The Parameters and Grid of cfg, once its top-level keys are checked."""
    _section(cfg, None, CONFIG_KEYS)
    p = _build(Parameters, **_section(cfg, "parameters", _names(Parameters), True))
    grid = _lists(_section(cfg, "grid", _names(Grid), True), "grid")
    return p, _build(Grid, **grid)


def build_spec(cfg, outdir=None):
    """The ExperimentSpec of cfg: each section builds the spec field of its name."""
    p, g = _model(cfg)
    spec = _build(
        ExperimentSpec,
        parameters=p,
        grid=g,
        integrator=_build(IntegratorConfig,
                          **_section(cfg, "integrator", _names(IntegratorConfig))),
        initial=_build(InitialCondition, **_section(cfg, "initial", _names(InitialCondition))),
        seed=cfg.get("seed", 0),
        output_dir=outdir or cfg.get("output_dir", "out"),
        cstar=cfg.get("cstar", 1.0),
        label=cfg.get("label", "run"),
    )
    if spec.initial.mode == "from-file":
        # read and check the state file now, so a bad one is a config error
        _build(generate_initial, spec)
    return spec


def _check_writable(outdir):
    path = Path(outdir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as err:
        raise ConfigError("output directory %s is not writable: %s" % (path, err)) from err


def cmd_thresholds(args):
    cfg = apply_overrides(load_config(args.config), args.set)
    p, g = _model(cfg)
    dc = _build(compute_constants, p, g.measure, _build(real, "cstar", cfg.get("cstar", 1.0)))
    rows = [
        ("C1", dc.C1), ("C2", dc.C2), ("lambda", dc.lam), ("M", dc.M),
        ("K", dc.K), ("Cmult", dc.Cmult), ("Pmin", dc.Pmin), ("Qmin", dc.Qmin),
        ("xi(P)", dc.xi), ("kappa", dc.kappa),
        ("envelope asymptote", dc.envelope_asymptote),
        ("cstar (input)", dc.cstar), ("|Omega|", dc.omega_measure),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        # kappa is None at or below the threshold
        print("%-*s  %s" % (width, name, "n/a" if value is None else "%.12g" % value))
    if args.dump:
        write_json(args.dump, dc.as_dict())
    return EXIT_OK


def cmd_simulate(args):
    cfg = apply_overrides(load_config(args.config), args.set)
    spec = build_spec(cfg, outdir=args.outdir)
    _check_writable(spec.output_dir)
    result = run_experiment(spec)
    print("verdict: %s" % result.report["verdict"])
    print("timeseries: %s" % result.timeseries_path)
    print("report: %s" % result.report_path)
    if result.report["verdict"] == "diverged":
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args):
    cfg = apply_overrides(load_config(args.config), args.set)
    section = _lists(_section(cfg, "sweep", ("P", "Q", "seeds"), True), "sweep")
    base = build_spec(cfg, outdir=args.outdir)
    sweep = _build(SweepSpec, base, section["P"], section["Q"], section["seeds"])
    _check_writable(base.output_dir)
    path, report = run_sweep(sweep)
    print("sweep report: %s" % path)
    print("Pmin=%.6g Qmin=%.6g" % (report["Pmin"], report["Qmin"]))
    return EXIT_OK


def cmd_estimate_cstar(args):
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    g = _build(Grid, tuple(args.cells), tuple(args.extent))
    value = _build(estimate_gn_constant, g, n_samples=args.samples, seed=args.seed)
    print("%.12g" % value)
    return EXIT_OK


def _parser():
    parser = argparse.ArgumentParser(
        prog="mhrnet",
        description="Memristive diffusive Hindmarsh-Rose network simulator",
    )
    # -v goes before or after the command; the command's own count wins
    verbose = argparse.ArgumentParser(add_help=False)
    for owner, default in ((parser, 0), (verbose, argparse.SUPPRESS)):
        owner.add_argument("-v", "--verbose", action="count", default=default,
                           help="log progress to stderr (-vv for more detail)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, parents=[verbose])
    common.add_argument("--config", help="YAML config (default: packaged all-ones scenario)")
    common.add_argument("-s", "--set", action="append", metavar="KEY.PATH=VALUE",
                        help="override a config value by dotted path")

    p = sub.add_parser("thresholds", parents=[common],
                       help="print all derived constants and coupling thresholds")
    p.add_argument("--dump", help="also write the constants as JSON to this file")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", parents=[common], help="run one experiment")
    p.add_argument("--outdir", help="output directory (overrides the config's output_dir)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="run a (P, Q) coupling sweep")
    p.add_argument("--outdir", help="output directory (overrides the config's output_dir)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate-cstar", parents=[verbose],
                       help="empirical interpolation-constant estimate for a grid")
    p.add_argument("--cells", type=int, nargs="+", required=True)
    p.add_argument("--extent", type=float, nargs="+", default=None)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate_cstar)

    return parser


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0
    if getattr(args, "command", None) == "estimate-cstar" and args.extent is None:
        args.extent = [1.0] * len(args.cells)
    # the handler lives for this call only, so repeated calls in one process
    # neither stack handlers nor keep a stale stderr
    logger = logging.getLogger("mhrnet")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel((logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)])
    # input errors are ConfigErrors where they arise; any other exception
    # is a fault of the program and propagates with its traceback
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

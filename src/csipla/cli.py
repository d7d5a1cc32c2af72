"""Command line front end.

Subcommands: `quantizer` (codebook table), `trial` (single traced trial),
`roc`, `pdf` and `sweep` (CSV experiment outputs).  Configuration comes from
an INI file plus repeatable `--set key=value` overrides, whose keys are the
config fields (see `_schema`).  stdout carries only data.  Exit codes: 0
success; 2 a usage error or a rejected configuration (a `ConfigError`),
reported on stderr before any trial runs; 1 any other failure, with its
traceback on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import traceback
import typing

from .channel import ConfigError, ScenarioConfig, snr_db_to_sigma_z2
from .quantizer import MAX_BITS, design_codebook, dump_codebook
from .sim import (
    H0,
    H1,
    SWEEP_PARAMETERS,
    ExperimentConfig,
    Simulator,
    render_csv,
    sweep,
    write_results,
)

# Config keys of the fields whose key is not the field name.
_RENAMED = {"rng_seed": "seed", "channel_p_override": "channel_p"}


def _schema() -> dict:
    """{key: (owning class, field name, INI section, converter)}.

    A key is a field of `ScenarioConfig` or `ExperimentConfig`, renamed by
    `_RENAMED`, in the section its metadata names and converted by its type
    (T for `T | None`).  `snr_db` may replace `sigma_z2`; `_build_config`
    resolves it.
    """
    schema = {}
    for cls in (ScenarioConfig, ExperimentConfig):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name != "scenario":
                conv = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
                section = f.metadata.get("section", "scenario")
                schema[_RENAMED.get(f.name, f.name)] = (cls, f.name, section, conv)
    schema["snr_db"] = schema["sigma_z2"]
    return schema


_SCHEMA = _schema()


def _convert(key: str, raw: str, section: str | None = None):
    """The value of one config entry; a file entry's section is checked too."""
    if key not in _SCHEMA:
        raise ConfigError(
            f"unknown config key '{key}'; valid keys: " + ", ".join(sorted(_SCHEMA))
        )
    expected, conv = _SCHEMA[key][2:]
    if section is not None and section != expected:
        raise ConfigError(
            f"key '{key}' belongs in section [{expected}], found in [{section}]"
        )
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {raw}") from exc


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
        entries = [(s, key, raw) for s in parser.sections() for key, raw in parser.items(s)]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    return {key: _convert(key, raw, section) for section, key, raw in entries}


def _build_config(args) -> ExperimentConfig:
    values = _read_config_file(args.config) if args.config else {}
    for pair in args.set or []:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got '{pair}'")
        values[key.strip()] = _convert(key.strip(), raw)
    for key in ("seed", "trials"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)

    if "snr_db" in values:
        if "sigma_z2" in values:
            raise ConfigError("specify either sigma_z2 or snr_db, not both")
        sigma_h2 = values.get("sigma_h2", ScenarioConfig.sigma_h2)
        values["sigma_z2"] = snr_db_to_sigma_z2(values.pop("snr_db"), sigma_h2)

    kwargs = {ScenarioConfig: {}, ExperimentConfig: {}}
    for key, value in values.items():
        cls, name = _SCHEMA[key][:2]
        kwargs[cls][name] = value
    return ExperimentConfig(
        scenario=ScenarioConfig(**kwargs[ScenarioConfig]), **kwargs[ExperimentConfig]
    )


def _emit(args, rows, metadata) -> None:
    # The first row's keys, in order, are the columns.
    columns = list(rows[0])
    if args.out:
        write_results(args.out, columns, rows, metadata)
    else:
        sys.stdout.write(render_csv(columns, rows, metadata))


def _cmd_quantizer(args) -> int:
    if not 1 <= args.bits <= MAX_BITS:
        raise ConfigError(f"--bits must be in [1, {MAX_BITS}]")
    text = dump_codebook(design_codebook(args.bits))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trial(args) -> int:
    if args.index < 0:
        raise ConfigError("--index must be >= 0")
    cfg = _build_config(args)
    sim = Simulator(cfg)
    eta = sim.run_trial(args.hypothesis, args.index)
    decided_h0 = eta <= sim.eta_th
    meta = sim.metadata()
    rows = [
        {"field": "hypothesis", "value": args.hypothesis},
        {"field": "eta", "value": eta},
        {"field": "eta_th", "value": sim.eta_th},
        {"field": "decided_h0", "value": decided_h0},
        {"field": "correct", "value": decided_h0 == (args.hypothesis == H0)},
        {"field": "k_info", "value": sim.code.k_info},
        {"field": "channel_p", "value": sim.channel_p},
        {"field": "trial_index", "value": args.index},
    ]
    _emit(args, rows, meta)
    return 0


def _cmd_table(args) -> int:
    """`roc` or `pdf`: the Simulator table of the same name."""
    cfg = _build_config(args)
    sim = Simulator(cfg)
    rows = getattr(sim, f"{args.command}_table")(cfg.trials)
    _emit(args, rows, sim.metadata())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {args.values}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows, meta = sweep(cfg, args.param, values)
    _emit(args, rows, meta)
    return 0


def _add_common(sub, trials_flag=True):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--out", help="output basename (.csv and .meta.json)")
    if trials_flag:
        sub.add_argument("--trials", type=int, help="trials per hypothesis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csipla",
        description="CSI-based authentication experiments with polar reconciliation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_quant = subs.add_parser("quantizer", help="print a designed codebook")
    p_quant.add_argument("-n", "--bits", type=int, required=True)
    p_quant.add_argument("--out")
    p_quant.set_defaults(func=_cmd_quantizer)

    p_trial = subs.add_parser("trial", help="trace one authentication trial")
    _add_common(p_trial, trials_flag=False)
    p_trial.add_argument("--hypothesis", choices=[H0, H1], default=H0)
    p_trial.add_argument("--index", type=int, default=0, help="trial counter")
    p_trial.set_defaults(func=_cmd_trial)

    for name, help_text in (
        ("roc", "empirical and closed-form ROC"),
        ("pdf", "eta histograms and binomial fits"),
    ):
        p_table = subs.add_parser(name, help=help_text)
        _add_common(p_table)
        p_table.set_defaults(func=_cmd_table)

    p_sweep = subs.add_parser("sweep", help="recalibrated sweep over one parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=list(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        folder = os.path.dirname(args.out or "")
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"--out directory does not exist: {folder}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Anything else is a fault of the program, not of its input.
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: `quantizer` (codebook table), `trial` (single traced trial),
`roc`, `pdf` and `sweep` (CSV experiment outputs).  Configuration comes from
an INI file plus repeatable `--set key=value` overrides; stdout carries only
data, diagnostics go to stderr.  Exit codes: 0 success, 2 configuration or
usage error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys

from .channel import ScenarioConfig, snr_db_to_sigma_z2
from .quantizer import design_codebook, dump_codebook
from .sim import (
    H0,
    H1,
    SWEEP_PARAMETERS,
    ExperimentConfig,
    Simulator,
    render_csv,
    sweep,
    trial_rng,
    write_results,
)


class ConfigError(Exception):
    pass


# key -> (section, converter); every scenario/experiment knob reachable from
# config files and --set lives here, nothing else is accepted.
_CONFIG_KEYS = {
    "n_b": ("scenario", int),
    "beta": ("scenario", float),
    "sigma_h2": ("scenario", float),
    "sigma_z2": ("scenario", float),
    "snr_db": ("scenario", float),
    "u_interferers": ("scenario", int),
    "alpha": ("scenario", float),
    "m_samples": ("scenario", int),
    "quant_bits": ("code", int),
    "code_rate": ("code", float),
    "list_size": ("code", int),
    "crc_len": ("code", int),
    "target_pfa": ("detector", float),
    "trials": ("sim", int),
    "calibration_trials": ("sim", int),
    "seed": ("sim", int),
    "channel_p": ("sim", float),
}


def _parse_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _CONFIG_KEYS:
                raise ConfigError(
                    f"unknown config key '{key}'; valid keys: "
                    + ", ".join(sorted(_CONFIG_KEYS))
                )
            expected_section, conv = _CONFIG_KEYS[key]
            if section != expected_section:
                raise ConfigError(
                    f"key '{key}' belongs in section [{expected_section}], "
                    f"found in [{section}]"
                )
            try:
                values[key] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}': {raw}") from exc
    return values


def _parse_overrides(pairs) -> dict:
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got '{pair}'")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"unknown override key '{key}'; valid keys: "
                + ", ".join(sorted(_CONFIG_KEYS))
            )
        conv = _CONFIG_KEYS[key][1]
        try:
            values[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {raw}") from exc
    return values


def _build_config(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    values.update(_parse_overrides(getattr(args, "set", None)))
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        values["trials"] = args.trials

    if "sigma_z2" in values and "snr_db" in values:
        raise ConfigError("specify either sigma_z2 or snr_db, not both")
    sigma_h2 = values.get("sigma_h2", 1.0)
    if "snr_db" in values:
        values["sigma_z2"] = snr_db_to_sigma_z2(values.pop("snr_db"), sigma_h2)

    scenario_kwargs = {}
    for key in ("n_b", "beta", "sigma_h2", "sigma_z2", "u_interferers", "alpha", "m_samples"):
        if key in values:
            scenario_kwargs[key] = values.pop(key)
    if "seed" in values:
        scenario_kwargs["rng_seed"] = values.pop("seed")

    cfg_kwargs = {}
    for src, dst in (
        ("quant_bits", "quant_bits"),
        ("code_rate", "code_rate"),
        ("list_size", "list_size"),
        ("target_pfa", "target_pfa"),
        ("trials", "trials"),
        ("calibration_trials", "calibration_trials"),
        ("channel_p", "channel_p_override"),
    ):
        if src in values:
            cfg_kwargs[dst] = values.pop(src)
    if "crc_len" in values:
        crc = values.pop("crc_len")
        cfg_kwargs["crc_len"] = None if crc == 0 else crc

    try:
        scenario = ScenarioConfig(**scenario_kwargs)
        cfg = ExperimentConfig(scenario=scenario, **cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if getattr(args, "deep", False):
        cfg = dataclasses.replace(cfg, trials=cfg.trials * 10)
    return cfg


def _emit(args, columns, rows, metadata) -> None:
    if getattr(args, "out", None):
        write_results(args.out, columns, rows, metadata)
    else:
        sys.stdout.write(render_csv(columns, rows, metadata))


def _cmd_quantizer(args) -> int:
    codebook = design_codebook(args.bits, mu=args.mu, sigma=args.sigma)
    text = dump_codebook(codebook)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trial(args) -> int:
    cfg = _build_config(args)
    sim = Simulator(cfg)
    rng = trial_rng(cfg.scenario.rng_seed, 99, args.index)
    eta = sim.run_trial(args.hypothesis, rng)
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
    _emit(args, ["field", "value"], rows, meta)
    return 0


def _cmd_roc(args) -> int:
    cfg = _build_config(args)
    sim = Simulator(cfg)
    rows = sim.roc_table(cfg.trials)
    _emit(args, ["eta_th", "pfa_emp", "pd_emp", "pfa_model", "pd_model"], rows, sim.metadata())
    return 0


def _cmd_pdf(args) -> int:
    cfg = _build_config(args)
    sim = Simulator(cfg)
    rows = sim.pdf_table(cfg.trials)
    _emit(
        args,
        ["eta", "h0_count", "h1_count", "h0_model_pmf", "h1_model_pmf"],
        rows,
        sim.metadata(),
    )
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
    columns = [
        "parameter",
        "value",
        "k_info",
        "channel_p",
        "p0",
        "p1",
        "eta_th",
        "pfa_model",
        "pd_model",
        "pfa_emp",
        "pd_emp",
        "trials",
    ]
    _emit(args, columns, rows, meta)
    return 0


def _add_common(sub, trials_flag=True):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--out", help="output basename (.csv and .meta.json)")
    if trials_flag:
        sub.add_argument("--trials", type=int, help="trials per hypothesis")
        sub.add_argument("--deep", action="store_true",
                         help="multiply the trial budget by 10")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csipla",
        description="CSI-based authentication experiments with polar reconciliation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_quant = subs.add_parser("quantizer", help="print a designed codebook")
    p_quant.add_argument("-n", "--bits", type=int, required=True)
    p_quant.add_argument("--mu", type=float, default=0.0)
    p_quant.add_argument("--sigma", type=float, default=1.0)
    p_quant.add_argument("--out")
    p_quant.set_defaults(func=_cmd_quantizer)

    p_trial = subs.add_parser("trial", help="trace one authentication trial")
    _add_common(p_trial, trials_flag=False)
    p_trial.add_argument("--hypothesis", choices=[H0, H1], default=H0)
    p_trial.add_argument("--index", type=int, default=0, help="trial counter")
    p_trial.set_defaults(func=_cmd_trial)

    p_roc = subs.add_parser("roc", help="empirical and closed-form ROC")
    _add_common(p_roc)
    p_roc.set_defaults(func=_cmd_roc)

    p_pdf = subs.add_parser("pdf", help="eta histograms and binomial fits")
    _add_common(p_pdf)
    p_pdf.set_defaults(func=_cmd_pdf)

    p_sweep = subs.add_parser("sweep", help="recalibrated sweep over one parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=list(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

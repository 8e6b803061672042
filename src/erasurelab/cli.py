"""Command-line front end: campaign orchestration, strategy inspection,
LUT generation and analytic prediction curves.

Configuration files are flat ``key = value`` text; command-line flags
override file values. Every output file starts with ``#``-prefixed manifest
lines recording the resolved configuration, so any run can be reproduced
from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .dcf import DecoderCapability, DecoderKind
from .gf import GF
from .modem import ModemError, SquareQam, UnreliabilityLut, sigma_from_ebn0
from .rs import CodeParams
from .sim import (
    LUT_BITS,
    UNRELIABILITY_METHODS,
    CampaignConfig,
    format_csv,
    predict_points,
    run_campaign,
    sample_unreliability_vectors,
)
from .strategy import STRATEGIES, StrategyKind, p_profile

#: the subcommands whose flags come from SETTINGS
SETTING_COMMANDS = ("simulate", "predict", "strategy")
CAMPAIGN_COMMANDS = ("simulate", "predict")
#: each campaign setting once: config-file key -> (type, flag, the
#: subcommands whose command line takes the flag, further argparse options);
#: a flag stores its value under the key
SETTINGS = {
    "m": (int, "--m", SETTING_COMMANDS, {"help": "field extension degree"}),
    "n": (int, "--n", SETTING_COMMANDS, {"help": "code length"}),
    "k": (int, "--k", SETTING_COMMANDS, {"help": "code dimension"}),
    "decoder": (str, "--decoder", SETTING_COMMANDS, {"choices": [kind.value for kind in DecoderKind]}),
    "ell": (int, "--ell", SETTING_COMMANDS, {"help": "IRS interleaving parameter"}),
    "ebn0_grid": (str, "--ebn0-grid", CAMPAIGN_COMMANDS, {"help": "comma-separated dB values"}),
    "mode": (str, "--mode", ("simulate",), {}),
    "strategy": (str, "--strategy", SETTING_COMMANDS, {"choices": [kind.value for kind in StrategyKind]}),
    "fixed_tau": (int, "--fixed-tau", ("simulate",), {}),
    "max_frames": (int, "--frames", ("simulate",), {}),
    "max_errors": (int, "--max-errors", ("simulate",), {}),
    "seed": (int, "--seed", SETTING_COMMANDS, {}),
    "unreliability": (str, "--unreliability", CAMPAIGN_COMMANDS, {"choices": UNRELIABILITY_METHODS}),
    "samples": (int, "--samples", CAMPAIGN_COMMANDS, {}),
}


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in SETTINGS:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = SETTINGS[key][0](val)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")
    return values


def parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad Eb/N0 grid: {text!r}")


def build_code(values: dict) -> CodeParams:
    m = values.get("m", 8)
    n = values.get("n", 255)
    k = values.get("k", 144)
    return CodeParams(GF(m), n, k)


def build_campaign(values: dict) -> CampaignConfig:
    """The campaign of the keys given; every default but the code's is
    CampaignConfig's."""
    kw = {key: values[key] for key in values.keys() - {"m", "n", "k", "decoder"}}
    if "decoder" in values:
        kw["decoder_kind"] = DecoderKind(values["decoder"])
    if "strategy" in kw:
        kw["strategy"] = StrategyKind(kw["strategy"])
    if "ebn0_grid" in kw:
        kw["ebn0_grid"] = parse_grid(kw["ebn0_grid"])
    return CampaignConfig(build_code(values), **kw)


def manifest_for(values: dict, extra: dict | None = None) -> dict:
    man = {"tool": f"erasurelab {__version__}"}
    man.update({k: values[k] for k in sorted(values)})
    man.update(extra or {})
    return man


def collect_values(args) -> dict:
    """The config file's settings, if one is given, overridden by the
    flags given."""
    values = read_config(args.config) if getattr(args, "config", None) else {}
    for key in SETTINGS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    return values


def cmd_campaign(args) -> int:
    """`simulate` runs the campaign of the settings given; `predict` gives
    its analytic curves (`predict_points`) in mode semi_simulative, which
    overrides any mode in the config file. Either writes a CSV to args.out."""
    predict = args.command == "predict"
    values = collect_values(args)
    if "ebn0_grid" not in values:
        raise CliError("no Eb/N0 grid given (config key 'ebn0_grid' or --ebn0-grid)")
    if predict:
        values["mode"] = "semi_simulative"
    try:
        cfg = build_campaign(values)
    except ValueError as exc:
        raise CliError(str(exc))
    points = predict_points(cfg) if predict else run_campaign(cfg)
    text = format_csv(points, manifest_for(values, {"command": args.command, "out": args.out}))
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_strategy(args) -> int:
    values = collect_values(args)
    # the decoder settings not given are CampaignConfig's defaults
    defaults = {f.name: f.default for f in dataclasses.fields(CampaignConfig)}
    try:
        code = build_code(values)
        kind = DecoderKind(values["decoder"]) if "decoder" in values else defaults["decoder_kind"]
        cap = DecoderCapability(kind, code, values.get("ell", defaults["ell"]))
    except ValueError as exc:
        raise CliError(str(exc))
    if args.h_file:
        try:
            h = np.loadtxt(args.h_file, ndmin=1)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read unreliabilities from {args.h_file}: {exc}")
    elif args.sample is not None:
        seed = values.get("seed", defaults["seed"])
        if seed < 0:
            raise CliError(f"--seed must be >= 0, got {seed}")
        try:
            sigma = sigma_from_ebn0(args.sample, code.q, code.n, code.k)
        except ModemError as exc:
            raise CliError(f"--sample {args.sample}: {exc}")
        qam = SquareQam(code.q)
        rng = np.random.default_rng(seed)
        h = sample_unreliability_vectors(sigma, qam, code.n, 1, rng)[0]
    else:
        raise CliError("need an h-vector file or --sample EBN0_DB")
    if len(h) != code.n:
        raise CliError(f"need {code.n} unreliabilities (one per code symbol), got {len(h)}")
    if not np.all((h >= 0) & (h < 1)):
        raise CliError("unreliabilities must be finite and lie in [0, 1)")
    if np.any(np.diff(h) > 0):
        print("note: input vector not sorted, sorting non-increasing")
        h = np.sort(h)[::-1]
    kinds = (
        [StrategyKind(args.strategy)] if args.strategy else list(StrategyKind)
    )
    for kind in kinds:
        res = STRATEGIES[kind](h, cap)
        print(f"{kind.value}: tau={res.tau_chosen} predicted_p={res.predicted_p:.10g}")
    if args.profile:
        print("tau,p_exact")
        for tau, p in enumerate(p_profile(h, cap)):
            print(f"{tau},{p:.10g}")
    return 0


def cmd_lut(args) -> int:
    try:
        qam = SquareQam(args.qam)
        sigma = args.sigma if args.ebn0 is None else sigma_from_ebn0(args.ebn0, args.qam, args.n, args.k)
        lut = UnreliabilityLut.build(qam, sigma, args.bits)
    except ValueError as exc:
        raise CliError(str(exc))
    lut.save(args.out)
    print(f"wrote {len(lut.entries)} entries to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erasurelab",
        description="RS error/erasure decoding lab: simulation, strategies, LUTs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p, command):
        for key, (type_, flag, commands, options) in SETTINGS.items():
            if command in commands:
                p.add_argument(flag, dest=key, type=type_, **options)

    for command, help_ in (("simulate", "run a Monte-Carlo or semi-simulative campaign"),
                           ("predict", "analytic errors-only and adaptive curves")):
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="flat key=value configuration file")
        add_settings(p, command)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_campaign)

    str_p = sub.add_parser("strategy", help="inspect erasing strategies on one vector")
    str_p.add_argument("h_file", nargs="?", help="text file, one unreliability per line")
    add_settings(str_p, "strategy")
    str_p.add_argument("--sample", type=float, metavar="EBN0_DB",
                       help="sample a random vector at this Eb/N0 instead")
    str_p.add_argument("--profile", action="store_true", help="print the full P(tau) profile")
    str_p.set_defaults(func=cmd_strategy)

    lut_p = sub.add_parser("lut", help="generate an unreliability lookup table")
    lut_p.add_argument("--qam", type=int, required=True, help="constellation size M")
    lut_p.add_argument("--bits", type=int, default=LUT_BITS, help="quantizer bits per axis")
    noise = lut_p.add_mutually_exclusive_group(required=True)
    noise.add_argument("--ebn0", type=float, help="Eb/N0 in dB")
    noise.add_argument("--sigma", type=float, help="noise std")
    lut_p.add_argument("--n", type=int, default=1, help="code length for the rate factor")
    lut_p.add_argument("--k", type=int, default=1, help="code dimension for the rate factor")
    lut_p.add_argument("--out", required=True)
    lut_p.set_defaults(func=cmd_lut)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

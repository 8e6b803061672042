"""Command-line front end: campaign orchestration, strategy inspection,
LUT generation and analytic prediction curves.

Configuration files are flat ``key = value`` text; command-line flags
override file values. Every output file starts with ``#``-prefixed manifest
lines recording the resolved configuration, so any run can be reproduced
from its own output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .dcf import DecoderCapability, DecoderKind
from .gf import GF
from .modem import SquareQam, UnreliabilityLut, sigma_from_ebn0
from .rs import CodeParams
from .sim import (
    CampaignConfig,
    format_csv,
    predict_points,
    run_campaign,
    sample_unreliability_vectors,
)
from .strategy import STRATEGIES, StrategyKind, p_profile

CONFIG_KEYS = {
    "m": int,
    "n": int,
    "k": int,
    "decoder": str,
    "ell": int,
    "ebn0_grid": str,
    "mode": str,
    "strategy": str,
    "fixed_tau": int,
    "max_frames": int,
    "max_errors": int,
    "seed": int,
    "unreliability": str,
    "samples": int,
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
            if key not in CONFIG_KEYS:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](val)
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


def collect_values(args, keys) -> dict:
    values = {}
    if getattr(args, "config", None):
        values.update(read_config(args.config))
    for key in keys:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    return values


def cmd_simulate(args) -> int:
    values = collect_values(args, CONFIG_KEYS)
    if "ebn0_grid" not in values:
        raise CliError("no Eb/N0 grid given (config key 'ebn0_grid' or --ebn0-grid)")
    try:
        cfg = build_campaign(values)
    except ValueError as exc:
        raise CliError(str(exc))
    points = run_campaign(cfg)
    text = format_csv(points, manifest_for(values, {"command": "simulate", "out": args.out}))
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Analytic-only curves: errors-only and semi-simulative, at tau_bar or
    at the fixed_tau given."""
    values = collect_values(args, CONFIG_KEYS)
    if "ebn0_grid" not in values:
        raise CliError("no Eb/N0 grid given")
    values["mode"] = "semi_simulative"
    try:
        base = build_campaign(values)
    except ValueError as exc:
        raise CliError(str(exc))
    points = predict_points(base)
    text = format_csv(points, manifest_for(values, {"command": "predict", "out": args.out}))
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_strategy(args) -> int:
    values = collect_values(args, ("m", "n", "k", "decoder", "ell"))
    try:
        code = build_code(values)
        cap = DecoderCapability(
            DecoderKind(values.get("decoder", "bmd")), code, values.get("ell", 1)
        )
    except ValueError as exc:
        raise CliError(str(exc))
    if args.h_file:
        try:
            h = np.loadtxt(args.h_file, ndmin=1)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read unreliabilities from {args.h_file}: {exc}")
    elif args.sample is not None:
        qam = SquareQam(code.q)
        sigma = sigma_from_ebn0(args.sample, code.q, code.n, code.k)
        rng = np.random.default_rng(args.seed or 0)
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
        if args.sigma is not None:
            sigma = args.sigma
        else:
            sigma = sigma_from_ebn0(args.ebn0, args.qam, args.n, args.k)
        lut = UnreliabilityLut.build(qam, sigma, args.bits)
    except ValueError as exc:
        raise CliError(str(exc))
    lut.save(args.out)
    print(f"wrote {len(lut.entries)} entries to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="erasurelab",
        description="RS error/erasure decoding lab: simulation, strategies, LUTs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_flags(p):
        p.add_argument("--m", type=int, help="field extension degree")
        p.add_argument("--n", type=int, help="code length")
        p.add_argument("--k", type=int, help="code dimension")
        p.add_argument("--decoder", choices=[k.value for k in DecoderKind])
        p.add_argument("--ell", type=int, help="IRS interleaving parameter")

    sim_p = sub.add_parser("simulate", help="run a Monte-Carlo or semi-simulative campaign")
    sim_p.add_argument("--config", help="flat key=value configuration file")
    add_code_flags(sim_p)
    sim_p.add_argument("--ebn0-grid", dest="ebn0_grid", help="comma-separated dB values")
    sim_p.add_argument("--mode")
    sim_p.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    sim_p.add_argument("--fixed-tau", dest="fixed_tau", type=int)
    sim_p.add_argument("--frames", dest="max_frames", type=int)
    sim_p.add_argument("--max-errors", dest="max_errors", type=int)
    sim_p.add_argument("--seed", type=int)
    sim_p.add_argument("--unreliability", choices=("exact", "nn", "lut"))
    sim_p.add_argument("--samples", type=int)
    sim_p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; frames always run in one thread")
    sim_p.add_argument("--out", required=True)
    sim_p.set_defaults(func=cmd_simulate)

    pred_p = sub.add_parser("predict", help="analytic errors-only and adaptive curves")
    pred_p.add_argument("--config")
    add_code_flags(pred_p)
    pred_p.add_argument("--ebn0-grid", dest="ebn0_grid")
    pred_p.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    pred_p.add_argument("--seed", type=int)
    pred_p.add_argument("--samples", type=int)
    pred_p.add_argument("--unreliability", choices=("exact", "nn", "lut"))
    pred_p.add_argument("--out", required=True)
    pred_p.set_defaults(func=cmd_predict)

    str_p = sub.add_parser("strategy", help="inspect erasing strategies on one vector")
    str_p.add_argument("h_file", nargs="?", help="text file, one unreliability per line")
    add_code_flags(str_p)
    str_p.add_argument("--sample", type=float, metavar="EBN0_DB",
                       help="sample a random vector at this Eb/N0 instead")
    str_p.add_argument("--seed", type=int)
    str_p.add_argument("--strategy", choices=[k.value for k in StrategyKind])
    str_p.add_argument("--profile", action="store_true", help="print the full P(tau) profile")
    str_p.set_defaults(func=cmd_strategy)

    lut_p = sub.add_parser("lut", help="generate an unreliability lookup table")
    lut_p.add_argument("--qam", type=int, required=True, help="constellation size M")
    lut_p.add_argument("--bits", type=int, default=8, help="quantizer bits per axis")
    lut_p.add_argument("--ebn0", type=float, help="Eb/N0 in dB")
    lut_p.add_argument("--sigma", type=float, help="noise std (overrides --ebn0)")
    lut_p.add_argument("--n", type=int, default=1, help="code length for the rate factor")
    lut_p.add_argument("--k", type=int, default=1, help="code dimension for the rate factor")
    lut_p.add_argument("--out", required=True)
    lut_p.set_defaults(func=cmd_lut)

    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "lut" and args.sigma is None and args.ebn0 is None:
        raise CliError("lut needs --ebn0 or --sigma")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Campaign benchmark of erasurelab.

    python3 bench/run.py --workload mc_short --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in this single-threaded
process against the lab under ``src/`` of the checkout. It checks the
outputs, then repeats rounds of campaign passes for --seconds and reports
the work done per second of pass time. With --trace 0 the last line of
standard output is the JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, and the spans
go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_MIN = 5  # set-ups per run at least; one follows each timed round
GF_INIT_REPEATS = 20

#: nominal time of the calibration loop: throughput and set-up figures are
#: given for a machine on which the loop takes this long (see README)
CAL_REF_S = 0.005

# numpy is imported before the clock starts: its import does not depend on
# the lab and swings with the disk and page cache of the shared machine
SETUP_SNIPPET = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import erasurelab as el
code = el.CodeParams(el.GF(int(sys.argv[2])), int(sys.argv[3]), int(sys.argv[4]))
codec = el.RSCodec(code)
qam = el.SquareQam(code.q)
print(time.perf_counter() - t0)
"""


def import_lab():
    """Import erasurelab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import erasurelab
    except ImportError as exc:
        sys.exit(f"bench: cannot import erasurelab from {SRC}: {exc}")
    if not Path(erasurelab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: erasurelab was imported from {erasurelab.__file__}, not {SRC}")
    return erasurelab


el = import_lab()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import MC_MODES, WORKLOADS, Workload, build_code, build_ops  # noqa: E402


class Calibration:
    """A fixed loop of the benchmark's own GF and posterior code (no lab
    code), timed next to every pass and set-up. Its time tracks how fast the
    shared machine runs at that moment."""

    def __init__(self):
        self.field = ref.RefField(8)
        self.word = list(range(255))
        self.levels = ref.qam_levels(256)
        self.y = np.random.default_rng(0).normal(size=(255, 2)) * 0.5

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.field.syndromes(self.word, 16)
        for _ in range(10):
            ref.posterior_unreliability(self.y, self.levels, 0.05)
        return time.perf_counter() - t0


class Ledger:
    """Operations attempted and failed; an operation fails when it raises
    or when its output fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_failed = False

    def call(self, what: str, fn, *args):
        """Run fn. A raise is recorded as one failed operation and gives None;
        a normal return is counted by the record() that checks it."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{what}: raised\n{traceback.format_exc()}")
            return None

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.check_failed = True
            self.problems.extend(f"{what}: {p}" for p in problems)


def measure_setup(w: Workload) -> float:
    """Time a fresh interpreter takes to import the lab and build the
    workload's code, codec and constellation."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(w.m), str(w.n), str(w.k)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def fixed_checks(w: Workload, code, seed: int, ledger: Ledger) -> np.ndarray:
    """Fixed seeded frames through encode, decode_ee and choose_tau.
    Returns the unreliability vectors used for choose_tau."""
    field = ref.RefField(w.m)
    codec = el.RSCodec(code)
    cap = el.DecoderCapability(el.DecoderKind.BMD, code)
    rng = np.random.default_rng([seed, 1])
    for i in range(w.check_cases):
        info = rng.integers(0, code.q, size=code.k).tolist()
        problems = ledger.call(f"encode case {i}", checks.check_encode, field, codec, info)
        if problems is not None:
            ledger.record(f"encode case {i}", problems)
        sent = codec.encode(info)
        problems = ledger.call(
            f"decode_ee case {i}", checks.check_decode, codec, el.ReceivedWord, sent, rng)
        if problems is not None:
            ledger.record(f"decode_ee case {i}", problems)
    sigma = ref.noise_sigma(w.ebn0_db, code.q, w.n, w.k)
    vectors = ref.sample_sorted_unreliability(rng, w.check_cases, w.n, code.q, sigma)
    for i, h in enumerate(vectors):
        res = ledger.call(f"choose_tau case {i}", el.choose_tau, h, cap, el.StrategyKind.EXACT)
        if res is not None:
            ledger.record(f"choose_tau case {i}", checks.check_choose_tau(res, h, w.d_min))
    return vectors


class Passes:
    """Every pass's output by op name, for the checks pooled over a run."""

    def __init__(self, ops, d_min: int):
        self.ops = ops
        self.d_min = d_min
        self.calibrate = Calibration()
        self.points: dict = {op.name: [] for op in ops}

    def run(self, op, round_index: int, ledger: Ledger, keep: bool = True):
        """One pass with its own sanity check; returns (seconds, calibration
        seconds just before, point). keep=False leaves a repeated pass out
        of the pooled checks."""
        cal = self.calibrate()
        t0 = time.perf_counter()
        pt = ledger.call(f"{op.name} round {round_index}", op, round_index)
        took = time.perf_counter() - t0
        if pt is None:
            return None, None, None
        if op.name in MC_MODES:
            problems = checks.check_mc_point(pt, op.size)
        else:
            problems = checks.check_semi_point(pt, op.size, self.d_min)
        ledger.record(f"{op.name} round {round_index}", problems)
        if problems:
            return None, None, None
        if keep:
            self.points[op.name].append(pt)
        return took, cal, pt

    def pooled(self, name: str):
        """One point summing every pass of an op: frames, errors and the
        frame-weighted means of fer and predicted_p."""
        pts = self.points[name]
        if not pts:
            return None
        frames = sum(p.frames for p in pts)
        return replace(
            pts[0], frames=frames, frame_errors=sum(p.frame_errors for p in pts),
            fer=sum(p.fer * p.frames for p in pts) / frames,
            predicted_p=sum(p.predicted_p * p.frames for p in pts) / frames,
        )


def first_round(w: Workload, passes: Passes, seed: int, ledger: Ledger) -> None:
    """Untimed round 0: warms up every op and checks the exact
    semi-simulative point against the reference estimate."""
    out = {op.name: passes.run(op, 0, ledger)[2] for op in passes.ops}
    exact = out["exact"]
    if exact is not None:
        ref_vectors = 4 * exact.frames
        mean, std = checks.reference_semi_estimate(
            np.random.default_rng([seed, 2]), ref_vectors, (w.m, w.n, w.k), w.ebn0_db, exact.tau)
        ledger.record("check semi exact against reference",
                      checks.check_semi_exact(exact, ref_vectors, mean, std))


def pooled_checks(passes: Passes, ledger: Ledger) -> None:
    """Statistical checks over every pass of the run; each is one operation."""
    eo = passes.pooled("errors_only")
    for mode in ("errors_only", "adaptive"):
        pt = passes.pooled(mode)
        if pt is not None:
            ledger.record(f"check {mode} prediction", checks.check_prediction(pt))
    for mode in ("adaptive", "gmd"):
        pt = passes.pooled(mode)
        if pt is not None and eo is not None:
            ledger.record(f"check {mode} against errors_only", checks.check_not_worse(pt, eo))
    lut, nn = passes.pooled("lut"), passes.pooled("nn")
    if lut is not None and nn is not None:
        ledger.record("check lut against nn", checks.check_lut_against_nn(lut, nn))


def timed_round(passes: Passes, round_index: int, ledger: Ledger) -> dict:
    """One pass of every op; returns (seconds, calibration seconds) per op name."""
    took = {}
    for op in passes.ops:
        dt, cal, _ = passes.run(op, round_index, ledger)
        if dt is not None:
            took[op.name] = (dt, cal)
    return took


def compensated(pairs: list) -> float:
    """Summed times of (time, calibration time) pairs, rescaled to a
    calibration loop of CAL_REF_S. Sums, not medians: pass times on a shared
    machine are bimodal, and the median jumps between the modes."""
    return sum(t for t, _ in pairs) * CAL_REF_S * len(pairs) / sum(c for _, c in pairs)


def end_to_end(ops, rounds: list[dict], setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same figures without the load
    compensation."""
    metrics, raw = {}, {}
    for op in ops:
        pairs = [r[op.name] for r in rounds if op.name in r]
        unit = "frames/s" if op.name in MC_MODES else "vectors/s"
        work = op.size * len(pairs)
        metrics[op.metric] = {"value": work / compensated(pairs) if pairs else None, "unit": unit}
        raw[op.metric] = work / sum(t for t, _ in pairs) if pairs else None
    metrics["setup_s"] = {"value": compensated(setups) / len(setups), "unit": "s"}
    raw["setup_s"] = statistics.mean(t for t, _ in setups)
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    return metrics, raw


# -- traced run -------------------------------------------------------------


def layer_metrics(w: Workload, ops, tracer: Tracer, overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced passes."""
    agg = tracer.by_segment()
    size = {op.name: op.size for op in ops}

    def spans(seg, name):
        return agg.get(f"bench.{seg}", {"spans": {}})["spans"].get(name, {"dur": [], "self": [], "note": []})

    def per_seg(seg):
        return size[seg] * agg[f"bench.{seg}"]["segments"]

    def mean(seg, name, scale):
        d = spans(seg, name)["dur"]
        return sum(d) / len(d) / scale if d else None

    def total(seg, names):
        return sum(sum(spans(seg, n)["dur"]) for n in names)

    def layer_self(seg, layer):
        rows = agg[f"bench.{seg}"]["spans"].items()
        return sum(sum(r["self"]) for n, r in rows if n.startswith(layer + "."))

    eo_frames = per_seg("errors_only")
    trials = [bool(x) for x in spans("gmd", "rs.decode_ee")["note"]]
    tau_bar = [d for m in ("exact", "lut", "nn") for d in spans(m, "sim.tau_bar")["dur"]]
    m = {
        "sim.self_us_per_frame": (layer_self("errors_only", "sim") / eo_frames / 1e3, "us"),
        "sim.frame_rng_us": (mean("errors_only", "sim.frame_rng", 1e3), "us"),
        "sim.batch_residual_ms": (mean("nn", "sim.batch_residual_probs", 1e6), "ms"),
        "rs.encode_us": (mean("errors_only", "rs.encode", 1e3), "us"),
        "rs.decode_ee_us": (mean("errors_only", "rs.decode_ee", 1e3), "us"),
        "rs.erase_us": (mean("errors_only", "rs.erase", 1e3), "us"),
        "rs.decode_ee_calls_per_frame": (len(trials) / per_seg("gmd"), "count"),
        "gf.init_ms": (mean("setup", "gf.init", 1e6), "ms"),
        "modem.channel_us": (
            total("errors_only", ("modem.modulate", "modem.awgn", "modem.hard_decision"))
            / eo_frames / 1e3, "us"),
        "modem.unreliability_exact_us": (mean("errors_only", "modem.unreliability_exact", 1e3), "us"),
        "modem.peak_alloc_mb.exact": (
            max((x for x in spans("exact", "modem.unreliability_exact")["note"] if x), default=None),
            "MB"),
        "modem.lut_build_ms": (mean("lut", "modem.lut_build", 1e6), "ms"),
        "strategy.choose_tau_us.exact": (mean("adaptive", "strategy.tau_star_exact", 1e3), "us"),
        "strategy.choose_tau_us.hoeffding": (mean("fixed_strategy", "strategy.tau_star_hoeffding", 1e3), "us"),
        "strategy.choose_tau_us.eps0": (mean("fixed_strategy", "strategy.tau_star_eps0", 1e3), "us"),
        "strategy.pgf_distribution_us": (mean("errors_only", "strategy.pgf_distribution", 1e3), "us"),
        "strategy.tau_bar_ms": (sum(tau_bar) / len(tau_bar) / 1e6 if tau_bar else None, "ms"),
        "gmd.decode_ms": (mean("gmd", "gmd.decode", 1e6), "ms"),
        "gmd.useful_trials_ratio": (sum(trials) / len(trials) if trials else None, "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for method, fn in (("exact", "modem.unreliability_exact"), ("lut", "modem.lut_lookup"),
                       ("nn", "modem.unreliability_nn")):
        m[f"modem.unreliability_ns_per_symbol.{method}"] = (
            total(method, (fn,)) / (per_seg(method) * w.n), "ns")
    rounds = agg["bench.errors_only"]["segments"]
    for layer in ("sim", "rs", "modem", "strategy", "gmd"):
        own = sum(layer_self(op.name, layer) for op in ops)
        m[f"{layer}.self_ms_per_round"] = (own / rounds / 1e6, "ms")
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(m.items())}


def traced_rounds(w: Workload, passes: Passes, vectors, seconds: float, ledger: Ledger):
    """Each round's inputs run untraced, then traced; returns the tracer and
    the tracing overhead in percent of the untraced round time."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            for _ in range(GF_INIT_REPEATS):
                el.GF(w.m)
    finally:
        tracer.uninstall()
    plain, traced = [], []
    start = time.perf_counter()
    round_index = 0
    while not plain or time.perf_counter() - start < seconds:
        round_index += 1
        plain.append(sum(t for t, _ in timed_round(passes, round_index, ledger).values()))
        tracer.install()
        try:
            took = 0.0
            for op in passes.ops:
                with tracer.span(f"bench.{op.name}"):
                    took += passes.run(op, round_index, ledger, keep=False)[0] or 0.0
        finally:
            tracer.uninstall()
        traced.append(took)
    cap = el.DecoderCapability(el.DecoderKind.BMD, build_code(w))
    tracer.install()
    try:
        with tracer.span("bench.fixed_strategy"):
            for i, h in enumerate(vectors):
                for kind in (el.StrategyKind.HOEFFDING, el.StrategyKind.EPS0):
                    what = f"choose_tau {kind.value} case {i}"
                    if ledger.call(what, el.choose_tau, h, cap, kind) is not None:
                        ledger.record(what, [])
    finally:
        tracer.uninstall()
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return tracer, overhead


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    w = WORKLOADS[args.workload]
    code = build_code(w)
    passes = Passes(build_ops(w, code, args.seed), w.d_min)
    ledger = Ledger()
    vectors = fixed_checks(w, code, args.seed, ledger)
    first_round(w, passes, args.seed, ledger)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tracer, overhead = traced_rounds(w, passes, vectors, args.seconds, ledger)
        metrics = layer_metrics(w, passes.ops, tracer, overhead)
        tracer.write(stem.with_suffix(".json"), {"workload": w.name, "seed": args.seed,
                                                 "metrics": metrics})
    else:
        rounds, setups = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(timed_round(passes, len(rounds) + 1, ledger))
            setups.append((measure_setup(w), passes.calibrate()))
        while len(setups) < SETUP_MIN:
            setups.append((measure_setup(w), passes.calibrate()))
        metrics, raw = end_to_end(passes.ops, rounds, setups)
        for name, value in raw.items():
            print(f"bench: {w.name} {name} without load compensation = {value}", file=sys.stderr)
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump({"workload": w.name, "seed": args.seed, "rounds": rounds,
                       "setups": setups, "metrics": metrics, "uncompensated": raw}, fh)
    pooled_checks(passes, ledger)

    for line in ledger.problems:
        print(f"bench: FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench: {w.name} {name} = {m['value']} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.check_failed,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

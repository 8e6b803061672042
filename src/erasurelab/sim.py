"""Monte-Carlo FER campaigns and semi-simulative residual-error bounds.

A campaign sweeps an Eb/N0 grid with one of five decoder modes:

* ``errors_only``   - decode with no erasures,
* ``fixed_tau``     - erase a constant number, ``fixed_tau``, of most
  unreliable symbols,
* ``adaptive``      - choose tau per frame with an erasing strategy,
* ``gmd``           - multi-trial GMD reference decoding,
* ``semi_simulative`` - no per-frame decoding: compute tau_bar from an
  average unreliability vector and report the analytic mean of P(tau_bar)
  over sampled unreliability vectors (an upper bound on adaptive decoding);
  a ``fixed_tau`` pins tau_bar.

``CampaignConfig.tau`` is the erasure count each mode fixes, and a
``fixed_tau`` that the mode would not read is a ConfigError.

Per-frame random streams are derived from (seed, grid index, frame index),
so results are reproducible for a given seed.

Monte-Carlo frames run in blocks of FRAME_BLOCK, the stretch between two
checks of the error-count stop. Each frame keeps its own stream and its
own decode: it draws its info symbols and then its noise from its stream,
in that order, encodes, and is decoded alone (erasing its tau most
unreliable symbols and running `decode_ee`, or `gmd_decode`). The block
runs the rest once over all its frames: modulation, hard decision,
unreliabilities, the row sort, the tau chooser on the (rows, n) block and,
for errors_only and fixed_tau, the prediction. Every value is the one the
frame would get alone, and the predictions are summed in frame order, so
the output does not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcf import DecoderCapability, DecoderKind
from .gmd import gmd_decode
from .modem import SquareQam, UnreliabilityLut, awgn, sigma_from_ebn0, unreliability_exact, unreliability_nn
from .rs import CodeParams, ReceivedWord, erase_most_unreliable, require_integer
from .strategy import (
    StrategyKind,
    choose_tau,
    pgf_distribution,
    residual_error_prob,
    tail_coeffs,
)

MODES = ("errors_only", "fixed_tau", "adaptive", "gmd", "semi_simulative")
UNRELIABILITY_METHODS = ("exact", "nn", "lut")

#: the error-count stop is checked only between blocks of this many frames,
#: so a point's frame count (and the CSV) is a multiple of it unless
#: max_frames ends the point
FRAME_BLOCK = 256
#: quantisation bits per axis of the table behind the ``lut`` unreliabilities
LUT_BITS = 8
# symbols per call of an unreliability method in `unreliability`: few
# enough that each call's temporaries stay under glibc's mmap threshold,
# so they are reused from the heap instead of mapped and page-faulted
# afresh (the chunking also bounds the exact method's (N, 2, L) arrays)
UNRELIABILITY_CHUNK = 1 << 14


class ConfigError(ValueError):
    pass


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    mid = phat + z2 / (2.0 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, (mid - half) / denom), min(1.0, (mid + half) / denom)


@dataclass(frozen=True)
class CampaignConfig:
    code: CodeParams
    decoder_kind: DecoderKind = DecoderKind.BMD
    ell: int = 1
    ebn0_grid: tuple = ()
    mode: str = "errors_only"
    strategy: StrategyKind = StrategyKind.EXACT
    fixed_tau: int | None = None  # modes fixed_tau (required) and semi_simulative
    max_frames: int = 10_000
    max_errors: int = 100
    seed: int = 0
    unreliability: str = "nn"
    samples: int = 10_000  # vectors averaged in semi-simulative mode

    def __post_init__(self):
        if not isinstance(self.decoder_kind, DecoderKind):
            raise ConfigError(f"decoder_kind must be a DecoderKind, got {self.decoder_kind!r}")
        if not isinstance(self.strategy, StrategyKind):
            raise ConfigError(f"strategy must be a StrategyKind, got {self.strategy!r}")
        for name in ("ell", "max_frames", "max_errors", "samples", "seed"):
            require_integer(name, getattr(self, name), ConfigError)
        if self.code.gf.m % 2:
            raise ConfigError(f"code: square QAM needs q = 2^m with m even, got m={self.code.gf.m}")
        if self.decoder_kind is DecoderKind.IRS and self.ell < 1:
            raise ConfigError("IRS parameter ell must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.unreliability not in UNRELIABILITY_METHODS:
            raise ConfigError(f"unknown unreliability method {self.unreliability!r}")
        try:
            finite = [math.isfinite(db) for db in self.ebn0_grid]
        except TypeError:
            raise ConfigError(f"ebn0_grid must be a sequence of numbers, got {self.ebn0_grid!r}") from None
        if not finite:
            raise ConfigError("ebn0_grid must be non-empty")
        if not all(finite):
            raise ConfigError(f"ebn0_grid must be finite, got {self.ebn0_grid}")
        if self.max_frames < 1:
            raise ConfigError("max_frames must be >= 1")
        if self.max_errors < 1:
            raise ConfigError("max_errors must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.fixed_tau is None:
            if self.mode == "fixed_tau":
                raise ConfigError("mode 'fixed_tau' needs a fixed_tau")
        else:
            if self.mode not in ("fixed_tau", "semi_simulative"):
                raise ConfigError(f"mode {self.mode!r} reads no fixed_tau (got {self.fixed_tau!r}); "
                                  "only modes 'fixed_tau' and 'semi_simulative' do")
            require_integer("fixed_tau", self.fixed_tau, ConfigError)
            if not 0 <= self.fixed_tau <= self.code.d_min - 1:
                raise ConfigError("fixed_tau out of [0, d_min - 1]")
        if self.mode in ("errors_only", "fixed_tau", "adaptive", "gmd") and self.decoder_kind is not DecoderKind.BMD:
            raise ConfigError("Monte-Carlo modes require the BMD decoder; "
                              "IRS/GS capabilities are analytic only")

    @property
    def tau(self) -> int | None:
        """The erasure count the mode fixes: 0 in errors_only, fixed_tau in
        fixed_tau and semi_simulative, and None where it is chosen (per
        frame in adaptive and gmd, as tau_bar in semi_simulative with no
        fixed_tau)."""
        return 0 if self.mode == "errors_only" else self.fixed_tau

    @property
    def qam_size(self) -> int:
        return self.code.q

    def capability(self) -> DecoderCapability:
        return DecoderCapability(self.decoder_kind, self.code, self.ell)


@dataclass
class FerPoint:
    ebn0_db: float
    mode: str
    strategy: str
    tau: int
    frames: int
    frame_errors: int
    fer: float
    ci_low: float
    ci_high: float
    predicted_p: float


def unreliability(
    y: np.ndarray, qam: SquareQam, sigma: float, method: str, lut: UnreliabilityLut | None
) -> np.ndarray:
    """Symbol unreliabilities of the (N, 2) received points by one of
    UNRELIABILITY_METHODS, UNRELIABILITY_CHUNK points per call; ``lut``
    serves the ``lut`` method."""
    h = np.empty(len(y))
    for lo in range(0, len(y), UNRELIABILITY_CHUNK):
        chunk = y[lo : lo + UNRELIABILITY_CHUNK]
        if method == "exact":
            h[lo : lo + len(chunk)] = unreliability_exact(chunk, qam, sigma)
        elif method == "lut":
            h[lo : lo + len(chunk)] = lut.lookup(chunk, qam)
        else:
            h[lo : lo + len(chunk)] = unreliability_nn(chunk, qam, sigma)
    return h


def sample_unreliability_vectors(
    sigma: float,
    qam: SquareQam,
    n: int,
    count: int,
    rng: np.random.Generator,
    method: str = "nn",
) -> np.ndarray:
    """Sorted (non-increasing) unreliability vectors of random transmissions."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    sym = rng.integers(0, qam.M, size=count * n)
    y = awgn(qam.modulate(sym), sigma, rng)
    lut = UnreliabilityLut.build(qam, sigma, LUT_BITS) if method == "lut" else None
    h = unreliability(y, qam, sigma, method, lut).reshape(count, n)
    h.sort(axis=1)
    return h[:, ::-1]


def tau_bar(h_bar, cap: DecoderCapability, kind: StrategyKind) -> int:
    """Fixed erasure count for a whole grid point, chosen on the average vector."""
    return choose_tau(h_bar, cap, kind).tau_chosen


def batch_residual_probs(vectors: np.ndarray, tau: int, eps0: int) -> np.ndarray:
    """Exact P(tau) = Pr(Y_tau > eps0) for each sorted unreliability vector
    (row), O(n * eps0): one tail mass, which is Pr(Y_tau >= 0) = 1 when
    eps0 = -1."""
    e = min(eps0, vectors.shape[1] - tau) + 1
    return tail_coeffs(vectors, e + 1, tau, tau)[0][e]


def _frame_rng(seed: int, point_index: int, frame_index: int) -> np.random.Generator:
    """The stream of one frame: what `np.random.default_rng` gives for this
    SeedSequence, built without its argument dispatch."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, frame_index))
    ))


class _FrameRunner:
    """Per-grid-point state shared by all frames."""

    def __init__(self, cfg: CampaignConfig, sigma: float, point_index: int):
        self.cfg = cfg
        self.sigma = sigma
        self.point_index = point_index
        self.codec = cfg.code.codec
        self.qam = SquareQam(cfg.qam_size)
        self.cap = cfg.capability()
        self.lut = (
            UnreliabilityLut.build(self.qam, sigma, LUT_BITS) if cfg.unreliability == "lut" else None
        )

    def run_frame(self, frame_index: int) -> tuple[int, float]:
        """Returns (frame error indicator, per-frame analytic prediction)."""
        return self.run_block(frame_index, frame_index + 1)[0]

    def run_block(self, lo: int, hi: int) -> list[tuple[int, float]]:
        """(frame error indicator, per-frame analytic prediction) of each
        frame in [lo, hi), in frame order; the prediction is NaN in gmd
        mode, which predicts nothing."""
        cfg, code, qam = self.cfg, self.cfg.code, self.qam
        rngs = [_frame_rng(cfg.seed, self.point_index, i) for i in range(lo, hi)]
        sent = [self.codec.encode(rng.integers(0, code.q, size=code.k).tolist()) for rng in rngs]
        y = qam.modulate(sent)
        for row, rng in zip(y, rngs):
            row[:] = awgn(row, self.sigma, rng)
        points = y.reshape(-1, 2)
        received = qam.hard_decision(points).reshape(y.shape[:2]).tolist()
        h = unreliability(points, qam, self.sigma, cfg.unreliability, self.lut).reshape(y.shape[:2])

        if cfg.mode == "gmd":
            out = [gmd_decode(ReceivedWord(r, hr), self.codec) for r, hr in zip(received, h)]
            predicted = [math.nan] * len(out)
        else:
            h_sorted = np.sort(h, axis=1)[:, ::-1]
            if cfg.mode == "adaptive":
                res = choose_tau(h_sorted, self.cap, cfg.strategy)
                taus = res.tau_chosen.tolist()
                predicted = res.predicted_p.tolist()
            else:
                tau = cfg.tau
                taus = [tau] * len(h)
                predicted = residual_error_prob(
                    pgf_distribution(h_sorted, tau), self.cap.epsilon0(tau)
                ).tolist()
            out = [
                self.codec.decode_ee(erase_most_unreliable(r, hr, tau))
                for r, hr, tau in zip(received, h, taus)
            ]
        return [(0 if o == cw else 1, p) for o, cw, p in zip(out, sent, predicted)]


def _run_point_mc(cfg: CampaignConfig, sigma: float, point_index: int) -> FerPoint:
    runner = _FrameRunner(cfg, sigma, point_index)
    frames = 0
    errors = 0
    pred_sum = 0.0  # NaN in gmd mode, which predicts nothing
    while frames < cfg.max_frames and errors < cfg.max_errors:
        block_end = min(frames + FRAME_BLOCK, cfg.max_frames)
        # one Python float at a time, in frame order: np.sum would round differently
        for err, pred in runner.run_block(frames, block_end):
            errors += err
            pred_sum += pred
        frames = block_end

    fer = errors / frames
    lo, hi = wilson_interval(errors, frames)
    return FerPoint(
        ebn0_db=float(cfg.ebn0_grid[point_index]),
        mode=cfg.mode,
        strategy=cfg.strategy.value,
        tau=-1 if cfg.tau is None else cfg.tau,
        frames=frames,
        frame_errors=errors,
        fer=fer,
        ci_low=lo,
        ci_high=hi,
        predicted_p=pred_sum / frames,
    )


def _run_point_semi(cfg: CampaignConfig, sigma: float, point_index: int) -> FerPoint:
    return _semi_points(cfg, sigma, point_index, [cfg.tau])[0]


def _semi_points(cfg: CampaignConfig, sigma: float, point_index: int, taus) -> list[FerPoint]:
    """The semi-simulative points of one draw of sampled vectors, one per
    erasure count of `taus`, None standing for tau_bar of their mean."""
    qam = SquareQam(cfg.qam_size)
    cap = cfg.capability()
    rng = _frame_rng(cfg.seed, point_index, 0)
    vecs = sample_unreliability_vectors(sigma, qam, cfg.code.n, cfg.samples, rng, cfg.unreliability)
    points = []
    for tau in taus:
        if tau is None:
            tau = tau_bar(vecs.mean(axis=0), cap, cfg.strategy)
        fer = float(batch_residual_probs(vecs, tau, cap.epsilon0(tau)).mean())
        points.append(
            FerPoint(
                ebn0_db=float(cfg.ebn0_grid[point_index]),
                mode=cfg.mode,
                strategy=cfg.strategy.value,
                tau=tau,
                frames=cfg.samples,
                frame_errors=0,
                fer=fer,
                ci_low=fer,
                ci_high=fer,
                predicted_p=fer,
            )
        )
    return points


def predict_points(cfg: CampaignConfig) -> list[FerPoint]:
    """The errors-only (tau = 0) point of every grid entry, then the point
    `run_campaign(cfg)` gives it, from one draw of sampled vectors per
    entry; cfg must be semi-simulative."""
    pairs = []
    for idx, db in enumerate(cfg.ebn0_grid):
        sigma = sigma_from_ebn0(db, cfg.qam_size, cfg.code.n, cfg.code.k)
        pairs.append(_semi_points(cfg, sigma, idx, [0, cfg.tau]))
    return [errors_only for errors_only, _ in pairs] + [chosen for _, chosen in pairs]


def run_campaign(cfg: CampaignConfig, threads: int = 1) -> list[FerPoint]:
    """One FerPoint per Eb/N0 grid entry, deterministic for a given seed.

    ``threads`` is accepted for compatibility and ignored: frames run
    serially in one thread.
    """
    points = []
    for idx, db in enumerate(cfg.ebn0_grid):
        sigma = sigma_from_ebn0(db, cfg.qam_size, cfg.code.n, cfg.code.k)
        if cfg.mode == "semi_simulative":
            points.append(_run_point_semi(cfg, sigma, idx))
        else:
            points.append(_run_point_mc(cfg, sigma, idx))
    return points


CSV_HEADER = "ebn0_db,mode,strategy,tau,frames,frame_errors,fer,ci_low,ci_high,predicted_p"


def format_csv(points: list[FerPoint], manifest: dict | None = None) -> str:
    lines = []
    for key, value in (manifest or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(CSV_HEADER)
    for p in points:
        lines.append(
            f"{p.ebn0_db:.10g},{p.mode},{p.strategy},{p.tau},{p.frames},"
            f"{p.frame_errors},{p.fer:.10g},{p.ci_low:.10g},{p.ci_high:.10g},"
            f"{p.predicted_p:.10g}"
        )
    return "\n".join(lines) + "\n"

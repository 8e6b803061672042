"""Monte-Carlo FER campaigns and semi-simulative residual-error bounds.

A campaign sweeps an Eb/N0 grid with one of five decoder modes:

* ``errors_only``   - decode with no erasures,
* ``fixed_tau``     - erase a constant number of most unreliable symbols,
* ``adaptive``      - choose tau per frame with an erasing strategy,
* ``gmd``           - multi-trial GMD reference decoding,
* ``semi_simulative`` - no per-frame decoding: compute tau_bar from an
  average unreliability vector and report the analytic mean of P(tau_bar)
  over sampled unreliability vectors (an upper bound on adaptive decoding).

Per-frame random streams are derived from (seed, grid index, frame index),
so results are reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcf import DecoderCapability, DecoderKind
from .gmd import gmd_decode
from .modem import SquareQam, UnreliabilityLut, awgn, sigma_from_ebn0, unreliability_exact, unreliability_nn
from .rs import CodeParams, RSCodec, ReceivedWord, erase_most_unreliable, require_integer
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
# symbols per unreliability call in sample_unreliability_vectors: few
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
    fixed_tau: int = 0
    max_frames: int = 10_000
    max_errors: int = 100
    seed: int = 0
    unreliability: str = "nn"
    samples: int = 10_000  # vectors averaged in semi-simulative mode
    force_tau: int | None = None  # semi-simulative only: bypass the strategy

    def __post_init__(self):
        if not isinstance(self.decoder_kind, DecoderKind):
            raise ConfigError(f"decoder_kind must be a DecoderKind, got {self.decoder_kind!r}")
        if not isinstance(self.strategy, StrategyKind):
            raise ConfigError(f"strategy must be a StrategyKind, got {self.strategy!r}")
        for name in ("ell", "fixed_tau", "max_frames", "max_errors", "samples", "seed"):
            require_integer(name, getattr(self, name), ConfigError)
        if self.force_tau is not None:
            require_integer("force_tau", self.force_tau, ConfigError)
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
        if self.mode == "fixed_tau" and not (0 <= self.fixed_tau <= self.code.d_min - 1):
            raise ConfigError("fixed_tau out of [0, d_min - 1]")
        if self.force_tau is not None and not (0 <= self.force_tau <= self.code.d_min - 1):
            raise ConfigError("force_tau out of [0, d_min - 1]")
        if self.mode in ("errors_only", "fixed_tau", "adaptive", "gmd") and self.decoder_kind is not DecoderKind.BMD:
            raise ConfigError("Monte-Carlo modes require the BMD decoder; "
                              "IRS/GS capabilities are analytic only")

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
    """Symbol unreliabilities of received points by one of UNRELIABILITY_METHODS;
    ``lut`` serves the ``lut`` method."""
    if method == "exact":
        return unreliability_exact(y, qam, sigma)
    if method == "lut":
        return lut.lookup(y, qam)
    return unreliability_nn(y, qam, sigma)


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
    lut = UnreliabilityLut.build(qam, sigma, 8) if method == "lut" else None
    h = np.empty(count * n)
    for lo in range(0, count * n, UNRELIABILITY_CHUNK):
        chunk = y[lo : lo + UNRELIABILITY_CHUNK]
        h[lo : lo + len(chunk)] = unreliability(chunk, qam, sigma, method, lut)
    h = h.reshape(count, n)
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
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, frame_index))
    )


class _FrameRunner:
    """Per-grid-point state shared by all frames."""

    def __init__(self, cfg: CampaignConfig, sigma: float, point_index: int):
        self.cfg = cfg
        self.sigma = sigma
        self.point_index = point_index
        self.codec = RSCodec(cfg.code)
        self.qam = SquareQam(cfg.qam_size)
        self.cap = cfg.capability()
        self.lut = (
            UnreliabilityLut.build(self.qam, sigma, 8) if cfg.unreliability == "lut" else None
        )

    def run_frame(self, frame_index: int) -> tuple[int, float]:
        """Returns (frame error indicator, per-frame analytic prediction)."""
        cfg = self.cfg
        rng = _frame_rng(cfg.seed, self.point_index, frame_index)
        code = cfg.code
        info = rng.integers(0, code.q, size=code.k).tolist()
        cw = self.codec.encode(info)
        y = awgn(self.qam.modulate(cw), self.sigma, rng)
        r = self.qam.hard_decision(y).tolist()
        h = unreliability(y, self.qam, self.sigma, cfg.unreliability, self.lut)

        if cfg.mode == "gmd":
            out = gmd_decode(ReceivedWord(r, h), self.codec)
            predicted = math.nan
        else:
            h_sorted = np.sort(h)[::-1]
            if cfg.mode == "adaptive":
                res = choose_tau(h_sorted, self.cap, cfg.strategy)
                tau = res.tau_chosen
                predicted = res.predicted_p
            else:
                tau = cfg.fixed_tau if cfg.mode == "fixed_tau" else 0
                predicted = residual_error_prob(
                    pgf_distribution(h_sorted, tau), self.cap.epsilon0(tau)
                )
            out = self.codec.decode_ee(erase_most_unreliable(r, h, tau))
        return (0 if out == cw else 1), predicted


def _run_point_mc(cfg: CampaignConfig, sigma: float, point_index: int) -> FerPoint:
    runner = _FrameRunner(cfg, sigma, point_index)
    frames = 0
    errors = 0
    pred_sum = 0.0  # NaN in gmd mode, which predicts nothing
    while frames < cfg.max_frames and errors < cfg.max_errors:
        block_end = min(frames + FRAME_BLOCK, cfg.max_frames)
        for i in range(frames, block_end):
            err, pred = runner.run_frame(i)
            errors += err
            pred_sum += pred
        frames = block_end

    fer = errors / frames
    lo, hi = wilson_interval(errors, frames)
    tau = cfg.fixed_tau if cfg.mode == "fixed_tau" else (0 if cfg.mode == "errors_only" else -1)
    return FerPoint(
        ebn0_db=float(cfg.ebn0_grid[point_index]),
        mode=cfg.mode,
        strategy=cfg.strategy.value,
        tau=tau,
        frames=frames,
        frame_errors=errors,
        fer=fer,
        ci_low=lo,
        ci_high=hi,
        predicted_p=pred_sum / frames,
    )


def _run_point_semi(cfg: CampaignConfig, sigma: float, point_index: int) -> FerPoint:
    return _semi_points(cfg, sigma, point_index, [cfg.force_tau])[0]


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
        pairs.append(_semi_points(cfg, sigma, idx, [0, cfg.force_tau]))
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

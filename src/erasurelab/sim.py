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
so results are reproducible for a given seed. A frame's stream is numpy's
`default_rng(SeedSequence(entropy=seed, spawn_key=(grid index, frame
index)))`, but `_frame_rng` computes the PCG64 seed words itself, with
SeedSequence's algorithm, the seed and grid index once per point and a
block's frame indices as one array: at n = 15, a SeedSequence object per
frame took more than a third of a frame.

Monte-Carlo frames run in blocks of FRAME_BLOCK, the stretch between two
checks of the error-count stop. Each frame keeps its own stream: it draws
its info symbols and then its noise from it, in that order. The info
symbols are the top m bits of the 32-bit halves of raw PCG64 outputs, cut
for the whole block at once (`_info_symbols`): that is what
`Generator.integers(0, 2**m)` draws, since Lemire's method never rejects
when the range is a power of two, as q = 2**m is. The block runs the rest
once over all its frames, as arrays: one `_frame_rng` call, one `encode`
call on the (rows, k) info block, modulation, hard decision,
unreliabilities, the row sort, the tau chooser on the (rows, n) block,
for errors_only and fixed_tau the prediction, one `erase_most_unreliable`
call (one stable argsort) and one `decode_ee` call on the erased block;
in gmd mode one `gmd_decode` call on the hard symbols and
unreliabilities. Every value is the one the frame would get alone, and
the predictions are summed in frame order, so the output does not
depend on the block size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .dcf import DecoderCapability, DecoderKind
from .gmd import gmd_decode
from .modem import (UNRELIABILITY_CHUNK, ModemError, SquareQam, UnreliabilityLut, awgn, check_sigma,
                    sigma_from_ebn0, unreliability_exact, unreliability_nn)
from .rs import CodeParams, erase_most_unreliable, require_integer
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
        self.qam, self.cap  # built now, so that a code or decoder they reject fails here
        if not isinstance(self.strategy, StrategyKind):
            raise ConfigError(f"strategy must be a StrategyKind, got {self.strategy!r}")
        for name in ("max_frames", "max_errors", "samples", "seed"):
            require_integer(name, getattr(self, name), ConfigError)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.unreliability not in UNRELIABILITY_METHODS:
            raise ConfigError(f"unknown unreliability method {self.unreliability!r}")
        try:
            for db in self.ebn0_grid:  # each entry's noise level is one the channel keeps finite
                sigma_from_ebn0(db, self.code.q, self.code.n, self.code.k)
        except TypeError:
            raise ConfigError(f"ebn0_grid must be a sequence of numbers, got {self.ebn0_grid!r}") from None
        except ModemError as exc:
            raise ConfigError(f"ebn0_grid entry {db}: {exc}") from None
        if not len(self.ebn0_grid):
            raise ConfigError("ebn0_grid must be non-empty")
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

    @cached_property
    def qam(self) -> SquareQam:
        """The square QAM of the code's q symbols, built once per config."""
        try:
            return SquareQam(self.code.q)
        except ValueError as exc:
            raise ConfigError(f"code: {exc}") from None

    @cached_property
    def cap(self) -> DecoderCapability:
        """The decoder's capability on the code, built once per config."""
        try:
            return DecoderCapability(self.decoder_kind, self.code, self.ell)
        except ValueError as exc:
            raise ConfigError(f"decoder: {exc}") from None


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
    """Sorted (non-increasing) unreliability vectors of random transmissions;
    a ModemError, before anything is drawn, for a sigma that no kernel takes."""
    check_sigma(sigma)
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


#: SeedSequence's pool size and hash constants (numpy.random.bit_generator)
_POOL_SIZE = 4
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_powers(hash_const: int, mult: int, count: int) -> list[int]:
    """hash_const * mult**i mod 2**32 for i < count: the hash constants
    that SeedSequence steps through, each the one before times mult."""
    return [(hash_const * mult**i) & _M32 for i in range(count)]


#: the hash constants of `generate_state`'s eight output words: word i
#: (pool word i mod 4) is xor-ed with entry i and multiplied by entry i + 1
_OUTPUT_HASHES = np.array(_hash_powers(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1), dtype=np.uint32)


def _uint32_words(value) -> list[int]:
    """The 32-bit words, least significant first, that SeedSequence makes
    of a non-negative integer; [0] for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: (the hashed value, the advanced hash constant)."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two 32-bit words."""
    mixed = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return mixed ^ (mixed >> 16)


def _mix_words(pool: list[int], hash_const: int, words) -> int:
    """Mixes each word into every pool word in place, as SeedSequence does
    with the entropy past its pool; returns the advanced hash constant."""
    for word in words:
        for i in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[i] = _mix(pool[i], hashed)
    return hash_const


def _point_pool(seed: int, point_index: int) -> tuple[list[int], int]:
    """SeedSequence's pool and hash constant once it has mixed the run
    entropy (the seed's words, zero-padded to the pool size) and the point
    index, the part of the spawn key that all frames of a point share."""
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    hash_const = _INIT_A
    pool = []
    for word in run[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    # every pool word into every other, so that late words reach early ones
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    hash_const = _mix_words(pool, hash_const, run[_POOL_SIZE:] + _uint32_words(point_index))
    return pool, hash_const


@lru_cache(maxsize=64)
def _frame_mixer(seed: int, point_index: int) -> tuple[np.ndarray, int]:
    """What the frames of a point share of the mix of their frame index:
    per pool word (column), _MIX_MULT_L * word and the xor constant and
    multiplier of mixing the index's low word into it; and the hash
    constant that any higher words of the index continue from."""
    pool, hash_const = _point_pool(seed, point_index)
    consts = _hash_powers(hash_const, _MULT_A, _POOL_SIZE + 1)
    left = [(_MIX_MULT_L * word) & _M32 for word in pool]
    return np.array([left, consts[:-1], consts[1:]], dtype=np.uint32), consts[-1]


@cache
def _stream_types():
    """(SeedWords, PCG64, Generator), built on first use: importing the lab
    does not import numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The seed sequence that hands PCG64, its one user, the four uint64
        words of `generate_state(4, np.uint64)`, computed beforehand."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords, PCG64, Generator


def _frame_rng(seed: int, point_index: int, frame_index):
    """The stream of one frame: a fresh Generator equal to
    `default_rng(SeedSequence(entropy=seed, spawn_key=(point_index,
    frame_index)))`; for a range of frame indices, the list of the
    streams of its frames.

    The seed words that SeedSequence would give PCG64 are computed here by
    its algorithm, on uint32 arrays with one row per frame: they wrap
    around as SeedSequence's words do, with no overflow warning. The seed
    and the point index are mixed once per point (`_frame_mixer`), and
    each frame's PCG64 gets its four uint64 words, low half first. A
    256-frame block costs about 1.5 us a frame, one frame about 15 us."""
    steps, hash_const = _frame_mixer(operator.index(seed), operator.index(point_index))
    one = not isinstance(frame_index, range)
    frames = range(operator.index(frame_index), operator.index(frame_index) + 1) if one else frame_index
    if frames and min(frames[0], frames[-1]) < 0:
        raise ValueError(f"expected non-negative integer, got {min(frames[0], frames[-1])}")
    left, xor, mult = steps
    # _hashmix and _mix of the low words, one row per frame and one column
    # per pool word, in uint32 arrays, which wrap as SeedSequence's words do
    mixed = (np.array([frame & _M32 for frame in frames], dtype=np.uint32)[:, None] ^ xor) * mult
    mixed ^= mixed >> 16
    mixed *= _MIX_MULT_R
    pool = left - mixed
    pool ^= pool >> 16
    if frames and max(frames[0], frames[-1]) > _M32:
        for row, frame in zip(pool, frames):
            if frame > _M32:
                row_words = row.tolist()
                _mix_words(row_words, hash_const, _uint32_words(frame >> 32))
                row[:] = row_words
    out = (np.concatenate([pool, pool], axis=1) ^ _OUTPUT_HASHES[:-1]) * _OUTPUT_HASHES[1:]
    out ^= out >> 16
    # each row's four uint64 words, low word first, in the native order
    # that generate_state returns them in on any host
    words = out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    seed_words, pcg64, generator = _stream_types()
    rngs = [generator(pcg64(seed_words(row))) for row in words]
    return rngs[0] if one else rngs


def _info_symbols(rngs, k: int, m: int) -> np.ndarray:
    """The (len(rngs), k) info block whose row i is what
    `rngs[i].integers(0, 2**m, size=k)` would draw. The normals that each
    stream draws next are the ones they would be after that call: for odd
    k, `integers` keeps the unused high half buffered, which normal draws
    never read.

    `integers` draws 32-bit halves of the raw 64-bit outputs, low half
    first, and maps each half x to (x * 2**m) >> 32 by Lemire's method,
    which never rejects when the range is a power of two: the symbol is
    the top m bits of x. So each frame takes ceil(k / 2) raw outputs and
    the block is cut in one array step."""
    raw = np.array([rng.bit_generator.random_raw((k + 1) // 2) for rng in rngs])
    halves = np.stack([raw & _M32, raw >> 32], axis=2).reshape(len(rngs), -1)[:, :k]
    return (halves >> (32 - m)).astype(np.int64)


class _FrameRunner:
    """Per-grid-point state shared by all frames."""

    def __init__(self, cfg: CampaignConfig, sigma: float, point_index: int):
        self.cfg = cfg
        self.sigma = sigma
        self.point_index = point_index
        self.codec = cfg.code.codec
        self.qam = cfg.qam
        self.cap = cfg.cap
        self.lut = (
            UnreliabilityLut.build(self.qam, sigma, LUT_BITS) if cfg.unreliability == "lut" else None
        )

    def run_frame(self, frame_index: int) -> tuple[int, float]:
        """Returns (frame error indicator, per-frame analytic prediction)."""
        return self.run_block(frame_index, frame_index + 1)[0]

    def run_block(self, lo: int, hi: int) -> list[tuple[int, float]]:
        """(frame error indicator, per-frame analytic prediction) of each
        frame in [lo, hi), in frame order; the prediction is NaN in gmd
        mode, which predicts nothing. One `_frame_rng` call seeds the
        block's streams, each drawn per frame; one `encode` call encodes
        the block, one `erase_most_unreliable` call erases each frame's tau
        most unreliable symbols and one `decode_ee` call decodes the
        result, or in gmd mode one `gmd_decode` call the hard symbols and
        unreliabilities."""
        cfg, code, qam = self.cfg, self.cfg.code, self.qam
        rngs = _frame_rng(cfg.seed, self.point_index, range(lo, hi))
        sent = self.codec.encode(_info_symbols(rngs, code.k, code.gf.m))
        y = qam.modulate(sent)
        for row, rng in zip(y, rngs):
            row[:] = awgn(row, self.sigma, rng)
        points = y.reshape(-1, 2)
        received = qam.hard_decision(points).reshape(y.shape[:2])
        h = unreliability(points, qam, self.sigma, cfg.unreliability, self.lut).reshape(y.shape[:2])

        if cfg.mode == "gmd":
            out = gmd_decode(received, self.codec, h)
            predicted = [math.nan] * len(out)
        else:
            h_sorted = np.sort(h, axis=1)[:, ::-1]
            if cfg.mode == "adaptive":
                res = choose_tau(h_sorted, self.cap, cfg.strategy)
                taus = res.tau_chosen
                predicted = res.predicted_p.tolist()
            else:
                taus = cfg.tau
                predicted = residual_error_prob(pgf_distribution(h_sorted, taus), self.cap.epsilon0(taus)).tolist()
            out = self.codec.decode_ee(erase_most_unreliable(received, h, taus))
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
    rng = _frame_rng(cfg.seed, point_index, 0)
    vecs = sample_unreliability_vectors(sigma, cfg.qam, cfg.code.n, cfg.samples, rng, cfg.unreliability)
    points = []
    for tau in taus:
        if tau is None:
            tau = tau_bar(vecs.mean(axis=0), cfg.cap, cfg.strategy)
        fer = float(batch_residual_probs(vecs, tau, cfg.cap.epsilon0(tau)).mean())
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
        sigma = sigma_from_ebn0(db, cfg.code.q, cfg.code.n, cfg.code.k)
        pairs.append(_semi_points(cfg, sigma, idx, [0, cfg.tau]))
    return [errors_only for errors_only, _ in pairs] + [chosen for _, chosen in pairs]


def run_campaign(cfg: CampaignConfig, threads: int = 1) -> list[FerPoint]:
    """One FerPoint per Eb/N0 grid entry, deterministic for a given seed.

    ``threads`` is accepted for compatibility and ignored: frames run
    serially in one thread.
    """
    points = []
    for idx, db in enumerate(cfg.ebn0_grid):
        sigma = sigma_from_ebn0(db, cfg.code.q, cfg.code.n, cfg.code.k)
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

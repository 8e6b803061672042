import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from erasurelab import sim
from erasurelab.dcf import DecoderCapability, DecoderKind
from erasurelab.gf import GF
from erasurelab.modem import SIGMA_MAX, SIGMA_MIN, SquareQam, awgn, sigma_from_ebn0
from erasurelab.gmd import gmd_decode
from erasurelab.rs import CodeParams, RSCodec
from erasurelab.sim import (
    CampaignConfig,
    ConfigError,
    batch_residual_probs,
    format_csv,
    run_campaign,
    sample_unreliability_vectors,
    tau_bar,
    unreliability,
    wilson_interval,
    _frame_rng,
    _FrameRunner,
    _info_symbols,
)
from erasurelab.strategy import StrategyKind, choose_tau, pgf_distribution, residual_error_prob
from scalar_rs import erase_word


@pytest.fixture(scope="module")
def code():
    return CodeParams(GF(4), 15, 7)


def make_cfg(code, **kw):
    """A fixed_tau campaign, at tau = 2 unless kw gives another fixed_tau
    or another mode, with kw's fields."""
    base = dict(code=code, ebn0_grid=(9.0,), mode="fixed_tau",
                max_frames=512, max_errors=10_000, seed=1, unreliability="exact")
    base.update(kw)
    if base["mode"] == "fixed_tau":
        base.setdefault("fixed_tau", 2)
    return CampaignConfig(**base)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo < 1e-12 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_coverage():
    """~95% of intervals built from binomial draws contain the true p."""
    rng = np.random.default_rng(0)
    p = 0.07
    trials = 400
    covered = 0
    reps = 500
    for _ in range(reps):
        k = rng.binomial(trials, p)
        lo, hi = wilson_interval(int(k), trials)
        covered += lo <= p <= hi
    assert 0.92 <= covered / reps <= 0.98


def test_config_validation(code):
    with pytest.raises(ConfigError):
        make_cfg(code, mode="bogus")
    with pytest.raises(ConfigError):
        make_cfg(code, unreliability="soft")
    with pytest.raises(ConfigError):
        make_cfg(code, ebn0_grid=())
    with pytest.raises(ConfigError):
        make_cfg(code, fixed_tau=9)  # d_min - 1 = 8 is the maximum
    with pytest.raises(ConfigError):
        make_cfg(code, mode="adaptive", decoder_kind=DecoderKind.GS)
    with pytest.raises(ConfigError):
        make_cfg(code, max_errors=0)
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", samples=0)
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", fixed_tau=9)
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", fixed_tau=-1)
    with pytest.raises(ConfigError):
        make_cfg(code, seed=-1)
    with pytest.raises(ConfigError):
        make_cfg(code, ebn0_grid=(9.0, math.nan))
    with pytest.raises(ConfigError):
        make_cfg(code, ebn0_grid=(math.inf,))
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", decoder_kind="bmd")
    with pytest.raises(ConfigError):
        make_cfg(code, mode="adaptive", strategy="exact")
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", decoder_kind=DecoderKind.IRS, ell=0)
    # GS is fine for the analytic mode
    make_cfg(code, mode="semi_simulative", decoder_kind=DecoderKind.GS)
    # numpy integers are integers
    make_cfg(code, max_frames=np.int64(512), seed=np.uint32(1), fixed_tau=np.int8(2))
    make_cfg(code, mode="semi_simulative", samples=np.int16(5), fixed_tau=np.intp(1))


@pytest.mark.parametrize("mode", ["errors_only", "semi_simulative"])
@pytest.mark.parametrize("db, level", [(-1e300, "inf"), (1e300, "0.0"), (-3100.0, "inf"), (3300.0, "0.0"),
                                       (-2900.0, "5.17"), (-400.0, "5.17"), (3200.0, "5.17")])
def test_config_rejects_noise_level_out_of_range(code, mode, db, level):
    """An Eb/N0 entry whose noise level overflows (below about -3000 dB),
    is 0 (above about +3200 dB) or lies outside [SIGMA_MIN, SIGMA_MAX]
    (below about -245 dB or above about +2990 dB at RS(16;15,7)) fails when
    the config is built, naming the entry and the level, not as an
    OverflowError, a ModemError or a floating-point warning deep in the
    run."""
    with pytest.raises(ConfigError, match=re.escape(f"ebn0_grid entry {db}: ") + ".* noise level " + level):
        CampaignConfig(code, ebn0_grid=(9.0, db), mode=mode)
    assert SIGMA_MIN <= sigma_from_ebn0(2990.0, 16, 15, 7) < sigma_from_ebn0(-245.0, 16, 15, 7) <= SIGMA_MAX


@pytest.mark.parametrize("db", [-245.0, 2990.0])
@pytest.mark.parametrize("mode, method", [("errors_only", "exact"), ("adaptive", "lut"), ("gmd", "nn"),
                                          ("semi_simulative", "exact"), ("semi_simulative", "lut")])
def test_noise_level_range_keeps_the_channel_finite(code, db, mode, method):
    """At the two ends of the Eb/N0 range that sigma_from_ebn0 accepts,
    all noise and none, every mode and unreliability method runs with no
    floating-point warning (the hard decision's cast to int64, the
    squared distances over 2 sigma^2) and every frame or vector fails or
    decodes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (point,) = run_campaign(make_cfg(code, ebn0_grid=(db,), mode=mode, unreliability=method,
                                         max_frames=256, samples=64))
    assert point.fer > 0.99 if db < 0 else point.fer == 0.0


@pytest.mark.parametrize("mode, fixed_tau, match", [
    ("errors_only", 0, "mode 'errors_only' reads no fixed_tau"),
    ("adaptive", 3, "mode 'adaptive' reads no fixed_tau"),
    ("gmd", 2, "mode 'gmd' reads no fixed_tau"),
    ("fixed_tau", None, "mode 'fixed_tau' needs a fixed_tau"),
])
def test_config_rejects_fixed_tau_the_mode_ignores(code, mode, fixed_tau, match):
    """fixed_tau is read by modes fixed_tau, which needs it, and
    semi_simulative alone: given to any other mode, or missing in
    fixed_tau, it fails when the config is built, naming the mode,
    instead of running as if it were unset or as errors-only decoding."""
    with pytest.raises(ConfigError, match=match):
        CampaignConfig(code, ebn0_grid=(9.0,), mode=mode, fixed_tau=fixed_tau)


@pytest.mark.parametrize("mode, fixed_tau, tau", [
    ("errors_only", None, 0), ("fixed_tau", 3, 3), ("adaptive", None, None),
    ("gmd", None, None), ("semi_simulative", None, None), ("semi_simulative", 3, 3),
])
def test_config_tau_per_mode(code, mode, fixed_tau, tau):
    """CampaignConfig.tau is the erasure count the mode fixes, None where
    it is chosen."""
    assert CampaignConfig(code, ebn0_grid=(9.0,), mode=mode, fixed_tau=fixed_tau).tau == tau


@pytest.mark.parametrize("field, kw", [
    ("code", dict(code=CodeParams(GF(3, 0b1011), 7, 3))),
    ("max_frames", dict(max_frames=2.5)),
    ("max_frames", dict(max_frames=True)),
    ("max_errors", dict(max_errors=np.float64(10))),
    ("samples", dict(mode="semi_simulative", samples=2.5)),
    ("fixed_tau", dict(fixed_tau=1.5)),
    ("fixed_tau", dict(mode="semi_simulative", fixed_tau=1.5)),
    ("seed", dict(seed=1.5)),
    ("seed", dict(seed=np.True_)),
    ("ell", dict(mode="semi_simulative", decoder_kind=DecoderKind.IRS, ell=2.0)),
    ("ebn0_grid", dict(ebn0_grid="5,6")),
])
def test_config_rejects_what_fails_in_the_run(code, field, kw):
    """A non-integer or bool count, a code with no square QAM and a grid
    given as a string fail when the config is built, naming the field,
    not deep in the run (in SquareQam, numpy's integers, SeedSequence or
    tail_coeffs) or with a nonsense result such as frames=True."""
    with pytest.raises(ConfigError, match=field):
        make_cfg(**{"code": code, **kw})


def test_sampled_vectors_shape_and_order(code):
    qam = SquareQam(16)
    rng = np.random.default_rng(2)
    vecs = sample_unreliability_vectors(0.15, qam, 15, 50, rng, "exact")
    assert vecs.shape == (50, 15)
    assert np.all(vecs >= 0) and np.all(vecs < 1)
    assert np.all(np.diff(vecs, axis=1) <= 0)


@pytest.mark.parametrize("method", ["exact", "nn", "lut"])
def test_sampled_vectors_independent_of_chunk_size(monkeypatch, method):
    """The unreliability chunking only bounds the temporaries: h is
    bit-identical for one chunk, the default chunks and uneven chunks."""
    qam = SquareQam(16)
    count = 2000
    assert 15 * count > sim.UNRELIABILITY_CHUNK  # the default splits too
    vecs = []
    for chunk in (1 << 18, sim.UNRELIABILITY_CHUNK, 1000):
        monkeypatch.setattr(sim, "UNRELIABILITY_CHUNK", chunk)
        vecs.append(sample_unreliability_vectors(
            0.15, qam, 15, count, np.random.default_rng(5), method))
    for v in vecs[1:]:
        assert np.array_equal(v, vecs[0])


def test_average_unreliability_sorted(code):
    qam = SquareQam(16)
    rng = np.random.default_rng(3)
    h_bar = sample_unreliability_vectors(0.15, qam, 15, 300, rng, "exact").mean(axis=0)
    assert h_bar.shape == (15,)
    assert np.all(np.diff(h_bar) <= 0)


def test_batch_residual_probs_matches_pgf(code):
    rng = np.random.default_rng(4)
    vecs = np.sort(rng.uniform(0, 0.8, (20, 15)), axis=1)[:, ::-1]
    for tau, eps0 in ((0, 4), (2, 3), (5, 1), (8, 0)):
        got = batch_residual_probs(vecs, tau, eps0)
        want = np.array(
            [residual_error_prob(pgf_distribution(v, tau), eps0) for v in vecs]
        )
        assert np.max(np.abs(got - want)) < 1e-12
    assert np.all(batch_residual_probs(vecs, 0, -1) == 1.0)


def test_semi_point_peak_stays_near_the_sampler():
    """A default semi-simulative point at RS(256;255,144), 10^4 vectors,
    peaks while sampling: the int64 symbols and the vectors, 20 MB each,
    plus chunk-sized temporaries. `batch_residual_probs` then holds the
    vectors, its (width, rows) tail masses and carry, and chunk-sized
    copies of their columns, so the traced peak stays within 4 MB of two
    count x n arrays; a full copy of the vectors in either step would add
    20 MB."""
    cfg = CampaignConfig(code=CodeParams(GF(8), 255, 144), ebn0_grid=(16.5,),
                         mode="semi_simulative", unreliability="lut", seed=1)
    assert cfg.samples == 10_000
    tracemalloc.start()
    try:
        sim._semi_points(cfg, sigma_from_ebn0(16.5, 256, 255, 144), 0, [0, cfg.tau])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cfg.samples * 255 * 8 + 4e6


@pytest.mark.parametrize("ebn0_db, want_tau", [(19.0, 27), (20.0, 23)])
def test_tau_bar_at_high_snr_reads_tail_masses(ebn0_db, want_tau):
    """RS(256;255,144) above 18.5 dB, where most P(tau) lie below 1e-16:
    tau_bar of the mean of 200 exact vectors is the true minimizer, and
    every vector's P(tau_bar) is positive, not rounded to 0."""
    code = CodeParams(GF(8), 255, 144)
    cap = DecoderCapability(DecoderKind.BMD, code)
    vecs = sample_unreliability_vectors(
        sigma_from_ebn0(ebn0_db, 256, 255, 144), SquareQam(256), 255, 200,
        np.random.default_rng(0), "exact",
    )
    tau = tau_bar(vecs.mean(axis=0), cap, StrategyKind.EXACT)
    assert tau == want_tau
    probs = batch_residual_probs(vecs, tau, cap.epsilon0(tau))
    assert probs.min() > 0 and np.median(probs) < 1e-16


def test_frame_rng_independence():
    a = _frame_rng(7, 0, 0).integers(0, 1 << 30, 4)
    b = _frame_rng(7, 0, 1).integers(0, 1 << 30, 4)
    c = _frame_rng(7, 1, 0).integers(0, 1 << 30, 4)
    d = _frame_rng(7, 0, 0).integers(0, 1 << 30, 4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, d)


@pytest.mark.parametrize("seed, point, frame", [
    (0, 0, 0), (1, 0, 255), (7, 3, 1), (2**40, 11, 70_000),
    (2**32 - 1, 2, 9), (2**32, 2, 9),  # the largest one-word seed, the smallest two-word one
    (2**130 + 5, 1, 3),  # five words, more than the pool holds: no padding
    (5, 2**33, 4),  # a two-word point index
    (5, 1, 2**32), (5, 1, 2**40 + 3),  # two-word frame indices
    (np.uint64(2**63 + 1), 1, 2), (np.int64(12345), 1, 2),  # numpy-integer seeds
])
def test_frame_rng_is_default_rng_stream(seed, point, frame):
    """_frame_rng builds the Generator that default_rng gives for the same
    SeedSequence: equal bit-generator state, and equal integers and normal
    draws, in the frames' order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(point, frame))
    got, want = _frame_rng(seed, point, frame), np.random.default_rng(seq)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.integers(0, 256, size=144), want.integers(0, 256, size=144))
    assert np.array_equal(got.normal(0.0, 0.3, size=(255, 2)), want.normal(0.0, 0.3, size=(255, 2)))


@pytest.mark.parametrize("seed, point, frame", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_frame_rng_rejects_negative_indices(seed, point, frame):
    """A negative seed, point or frame is an error, as it is to SeedSequence."""
    with pytest.raises(ValueError, match="non-negative"):
        _frame_rng(seed, point, frame)


@pytest.mark.parametrize("seed, frames", [
    (7, range(0, 300)),
    (5, range(2**32 - 3, 2**32 + 3)),  # one-word, then two-word frame indices
    (2**130 + 5, range(0, 20)),  # five words, more than the pool holds
    (3, range(10, 100, 9)), (3, range(40, 0, -13)), (3, range(5, 5)),
], ids=["300", "across-2**32", "five-word-seed", "step", "negative-step", "empty"])
def test_frame_rng_block_matches_per_frame(seed, frames):
    """_frame_rng of a range of frames gives, frame for frame, the
    Generator of the one-frame call and of default_rng on the frame's
    SeedSequence: equal bit-generator states."""
    got = _frame_rng(seed, 2, frames)
    assert len(got) == len(frames)
    for rng, frame in zip(got, frames):
        assert rng.bit_generator.state == _frame_rng(seed, 2, frame).bit_generator.state
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(2, frame))
        assert rng.bit_generator.state == np.random.default_rng(seq).bit_generator.state
    with pytest.raises(ValueError, match="non-negative"):
        _frame_rng(seed, 2, range(-1, 3))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("k", [1, 6, 7, 144])
def test_info_symbols_are_generator_integers(m, k):
    """The info block cut from raw draws holds, row for row, what
    `integers(0, 2**m, size=k)` draws from the same stream, and the
    normals each stream draws next are equal too."""
    rows = 5
    got = [_frame_rng(3, 1, i) for i in range(rows)]
    want = [_frame_rng(3, 1, i) for i in range(rows)]
    info = _info_symbols(got, k, m)
    assert info.dtype == np.int64 and info.shape == (rows, k)
    assert np.array_equal(info, [rng.integers(0, 2**m, size=k) for rng in want])
    for g, w in zip(got, want):
        assert np.array_equal(g.normal(0.0, 0.3, size=(15, 2)), w.normal(0.0, 0.3, size=(15, 2)))


def reference_frame(runner, i):
    """One frame through the per-frame pipeline that run_block replaced:
    its own channel, unreliabilities, sort, chooser call on one vector and
    prediction, and decode_ee of its one erase_word word, or gmd_decode of
    its one-row block."""
    cfg, qam = runner.cfg, runner.qam
    rng = _frame_rng(cfg.seed, runner.point_index, i)
    cw = runner.codec.encode(rng.integers(0, cfg.code.q, size=cfg.code.k).tolist())
    y = awgn(qam.modulate(cw), runner.sigma, rng)
    r = qam.hard_decision(y).tolist()
    h = unreliability(y, qam, runner.sigma, cfg.unreliability, runner.lut)
    if cfg.mode == "gmd":
        return (0 if gmd_decode([r], runner.codec, [h]) == [cw] else 1), math.nan
    h_sorted = np.sort(h)[::-1]
    if cfg.mode == "adaptive":
        res = choose_tau(h_sorted, runner.cap, cfg.strategy)
        tau, predicted = res.tau_chosen, res.predicted_p
    else:
        tau = cfg.fixed_tau if cfg.mode == "fixed_tau" else 0
        predicted = residual_error_prob(pgf_distribution(h_sorted, tau), runner.cap.epsilon0(tau))
    out = runner.codec.decode_ee(erase_word(r, h, tau))
    return (0 if out == cw else 1), predicted


def assert_same_frames(got, want):
    """Equal error bits, and predictions equal bit for bit as Python floats
    (NaN in gmd mode)."""
    assert len(got) == len(want)
    for (err, pred), (err_want, pred_want) in zip(got, want):
        assert err == err_want
        assert type(pred) is float and type(pred_want) is float
        assert pred == pred_want or (math.isnan(pred) and math.isnan(pred_want))


MC_CASES = [("errors_only", StrategyKind.EXACT), ("fixed_tau", StrategyKind.EXACT),
            ("gmd", StrategyKind.EXACT)] + [("adaptive", kind) for kind in StrategyKind]


@pytest.mark.parametrize("method", ["exact", "nn", "lut"])
@pytest.mark.parametrize("mode, strategy", MC_CASES, ids=[f"{m}-{s.value}" for m, s in MC_CASES])
def test_run_block_matches_frame_by_frame(code, mode, strategy, method):
    """300 RS(16;15,7) frames as a full, a partial and a one-frame block
    give each frame's error bit and prediction of run_frame and of the
    per-frame pipeline, and the point sums them as frame by frame."""
    cfg = make_cfg(code, ebn0_grid=(8.0,), mode=mode, strategy=strategy, max_frames=300,
                   seed=3, unreliability=method)
    runner = _FrameRunner(cfg, sigma_from_ebn0(8.0, 16, 15, 7), 0)
    blocks = runner.run_block(0, 256) + runner.run_block(256, 299) + runner.run_block(299, 300)
    assert_same_frames(blocks, [runner.run_frame(i) for i in range(300)])
    want = [reference_frame(runner, i) for i in range(300)]
    assert_same_frames(blocks, want)
    assert sum(err for err, _ in want) > 0
    pred_sum = 0.0
    for _, pred in want:
        pred_sum += pred
    pt = run_campaign(cfg)[0]
    assert pt.frame_errors == sum(err for err, _ in want)
    if mode == "gmd":
        assert math.isnan(pt.predicted_p)
    else:
        assert pt.predicted_p == pred_sum / 300


@pytest.mark.parametrize("mode", ["errors_only", "adaptive"])
def test_run_block_matches_frame_by_frame_long_code(mode):
    """Three RS(256;255,144) frames at 17 dB, which go word by word, and
    64 at 16 dB, which the row decoder takes and most of which fail, as
    one block and one by one."""
    for db, frames in ((17.0, 3), (16.0, 64)):
        cfg = CampaignConfig(code=CodeParams(GF(8), 255, 144), ebn0_grid=(db,), mode=mode,
                             max_frames=frames, seed=3, unreliability="exact")
        runner = _FrameRunner(cfg, sigma_from_ebn0(db, 256, 255, 144), 0)
        block = runner.run_block(0, frames)
        assert_same_frames(block, [runner.run_frame(i) for i in range(frames)])
        assert_same_frames(block, [reference_frame(runner, i) for i in range(frames)])
        assert (sum(err for err, _ in block) > frames // 2) == (frames == 64)


def test_campaign_deterministic_across_threads(code):
    cfg = make_cfg(code, max_frames=384)
    p1 = run_campaign(cfg, threads=1)
    p4 = run_campaign(cfg, threads=4)
    assert format_csv(p1) == format_csv(p4)


def test_campaigns_on_one_code_build_one_codec(monkeypatch):
    """Every grid point and every campaign on one CodeParams, in any mode,
    decodes with the one codec that CodeParams.codec built."""
    builds = []
    init = RSCodec.__init__

    def counting_init(self, params):
        builds.append(params)
        init(self, params)

    monkeypatch.setattr(RSCodec, "__init__", counting_init)
    code = CodeParams(GF(4), 15, 7)
    for mode in ("adaptive", "gmd"):
        cfg = make_cfg(code, ebn0_grid=(8.0, 9.0, 10.0), mode=mode, max_frames=32)
        for _ in range(2):
            assert len(run_campaign(cfg)) == 3
    assert builds == [code]


@pytest.mark.parametrize("mode", ["errors_only", "adaptive", "gmd"])
def test_campaign_on_warmed_code_matches_fresh_code(mode):
    """A campaign on a code whose codec earlier campaigns built writes the
    CSV bytes of the same campaign on a fresh code."""
    warmed = CodeParams(GF(4), 15, 7)
    run_campaign(make_cfg(warmed, ebn0_grid=(7.0,), mode=mode, max_frames=64, seed=5))
    grid = dict(ebn0_grid=(8.0, 9.0, 10.0), mode=mode, max_frames=300)
    fresh = CodeParams(GF(4), 15, 7)
    assert "codec" not in vars(fresh)
    assert format_csv(run_campaign(make_cfg(warmed, **grid))) == \
        format_csv(run_campaign(make_cfg(fresh, **grid)))


def test_campaign_early_stop_on_errors(code):
    cfg = make_cfg(code, ebn0_grid=(5.0,), max_frames=100_000, max_errors=30)
    pt = run_campaign(cfg)[0]
    # stopping happens on block boundaries
    assert pt.frame_errors >= 30
    assert pt.frames < 100_000
    assert pt.frames % 256 == 0


def test_fixed_tau_prediction_matches_measurement(code):
    """Per-frame analytic P(tau) averaged over frames predicts the FER."""
    cfg = make_cfg(code, ebn0_grid=(9.0,), max_frames=6000, fixed_tau=2)
    pt = run_campaign(cfg, threads=4)[0]
    z99 = 2.5758293035489004
    lo, hi = wilson_interval(pt.frame_errors, pt.frames, z=z99)
    assert lo <= pt.predicted_p <= hi


def test_errors_only_prediction(code):
    cfg = make_cfg(code, mode="errors_only", ebn0_grid=(9.0,), max_frames=6000)
    pt = run_campaign(cfg, threads=4)[0]
    z99 = 2.5758293035489004
    lo, hi = wilson_interval(pt.frame_errors, pt.frames, z=z99)
    assert lo <= pt.predicted_p <= hi
    assert pt.tau == 0


def test_adaptive_not_worse_than_errors_only(code):
    grid = (8.5,)
    eo = run_campaign(make_cfg(code, mode="errors_only", ebn0_grid=grid,
                               max_frames=4096), threads=4)[0]
    ad = run_campaign(make_cfg(code, mode="adaptive", ebn0_grid=grid,
                               max_frames=4096), threads=4)[0]
    # paired frames (same seed): adaptive should not lose
    assert ad.frame_errors <= eo.frame_errors


def test_semi_simulative_point(code):
    cfg = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0, 10.0), samples=500)
    pts = run_campaign(cfg)
    assert len(pts) == 2
    for pt in pts:
        assert 0 <= pt.fer <= 1
        assert pt.ci_low == pt.fer == pt.ci_high == pt.predicted_p
        assert pt.frames == 500
    assert pts[0].fer > pts[1].fer  # lower SNR, higher residual error


def test_semi_simulative_fixed_tau(code):
    base = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0,), samples=500)
    fixed = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0,), samples=500,
                     fixed_tau=0)
    pt_a = run_campaign(base)[0]
    pt_f = run_campaign(fixed)[0]
    assert pt_f.tau == 0
    # same sampled vectors, tau chosen adaptively cannot be worse
    assert pt_a.fer <= pt_f.fer + 1e-12


@pytest.mark.parametrize("fixed_tau", [0, 3, 8])
def test_semi_simulative_fixed_tau_pins_tau_bar(code, fixed_tau):
    """A semi-simulative fixed_tau = k gives the point of one draw at
    tau = k, the point of the former pinned-tau setting; on RS(16;15,7) at
    9 dB, where tau_bar is 2, k = 3 reports tau = 3."""
    cfg = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0,), samples=500)
    assert run_campaign(cfg)[0].tau == 2
    pinned = replace(cfg, fixed_tau=fixed_tau)
    sigma = sigma_from_ebn0(9.0, 16, 15, 7)
    (want,) = sim._semi_points(cfg, sigma, 0, [fixed_tau])
    assert run_campaign(pinned) == [want]
    assert want.tau == fixed_tau


@pytest.mark.parametrize("fixed_tau", [None, 2])
def test_predict_points_draw_once(code, monkeypatch, fixed_tau):
    """predict_points gives the points of an errors-only (fixed_tau = 0)
    campaign and then those of the campaign itself, field for field, and
    samples each grid entry's vectors once."""
    cfg = make_cfg(code, mode="semi_simulative", ebn0_grid=(8.0, 10.0), samples=300,
                   fixed_tau=fixed_tau)
    want = run_campaign(replace(cfg, fixed_tau=0)) + run_campaign(cfg)
    draws = []
    sample = sim.sample_unreliability_vectors

    def counted(*args, **kwargs):
        draws.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_unreliability_vectors", counted)
    assert sim.predict_points(cfg) == want
    assert len(draws) == len(cfg.ebn0_grid)
    assert [p.tau for p in want[:2]] == [0, 0]


def test_tau_bar_consistency(code):
    qam = SquareQam(16)
    cap = DecoderCapability(DecoderKind.BMD, code)
    rng = np.random.default_rng(5)
    h_bar = sample_unreliability_vectors(0.12, qam, 15, 200, rng, "exact").mean(axis=0)
    tau = tau_bar(h_bar, cap, StrategyKind.EXACT)
    assert 0 <= tau <= code.d_min - 1


def test_gmd_mode_runs(code):
    cfg = make_cfg(code, mode="gmd", ebn0_grid=(9.0,), max_frames=512)
    pt = run_campaign(cfg, threads=2)[0]
    assert pt.frames == 512
    assert pt.tau == -1
    assert math.isnan(pt.predicted_p)


def test_format_csv_manifest(code):
    cfg = make_cfg(code, max_frames=256)
    pts = run_campaign(cfg)
    text = format_csv(pts, {"seed": 1, "mode": "fixed_tau"})
    lines = text.splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "# mode=fixed_tau"
    assert lines[2].startswith("ebn0_db,")
    assert len(lines) == 4

import math
from dataclasses import replace

import numpy as np
import pytest

from erasurelab import sim
from erasurelab.dcf import DecoderCapability, DecoderKind
from erasurelab.gf import GF
from erasurelab.modem import SquareQam, sigma_from_ebn0
from erasurelab.rs import CodeParams
from erasurelab.sim import (
    CampaignConfig,
    ConfigError,
    batch_residual_probs,
    format_csv,
    run_campaign,
    sample_unreliability_vectors,
    tau_bar,
    wilson_interval,
    _frame_rng,
)
from erasurelab.strategy import StrategyKind, pgf_distribution, residual_error_prob


@pytest.fixture(scope="module")
def code():
    return CodeParams(GF(4), 15, 7)


def make_cfg(code, **kw):
    base = dict(code=code, ebn0_grid=(9.0,), mode="fixed_tau", fixed_tau=2,
                max_frames=512, max_errors=10_000, seed=1, unreliability="exact")
    base.update(kw)
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
        make_cfg(code, mode="semi_simulative", force_tau=9)
    with pytest.raises(ConfigError):
        make_cfg(code, mode="semi_simulative", force_tau=-1)
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
    make_cfg(code, mode="semi_simulative", samples=np.int16(5), force_tau=np.intp(1))


@pytest.mark.parametrize("field, kw", [
    ("code", dict(code=CodeParams(GF(3, 0b1011), 7, 3))),
    ("max_frames", dict(max_frames=2.5)),
    ("max_frames", dict(max_frames=True)),
    ("max_errors", dict(max_errors=np.float64(10))),
    ("samples", dict(mode="semi_simulative", samples=2.5)),
    ("fixed_tau", dict(fixed_tau=1.5)),
    ("force_tau", dict(mode="semi_simulative", force_tau=1.5)),
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


def test_campaign_deterministic_across_threads(code):
    cfg = make_cfg(code, max_frames=384)
    p1 = run_campaign(cfg, threads=1)
    p4 = run_campaign(cfg, threads=4)
    assert format_csv(p1) == format_csv(p4)


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


def test_semi_simulative_force_tau(code):
    base = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0,), samples=500)
    forced = make_cfg(code, mode="semi_simulative", ebn0_grid=(9.0,), samples=500,
                      force_tau=0)
    pt_a = run_campaign(base)[0]
    pt_f = run_campaign(forced)[0]
    assert pt_f.tau == 0
    # same sampled vectors, tau chosen adaptively cannot be worse
    assert pt_a.fer <= pt_f.fer + 1e-12


@pytest.mark.parametrize("force_tau", [None, 2])
def test_predict_points_draw_once(code, monkeypatch, force_tau):
    """predict_points gives the points of an errors-only (force_tau = 0)
    campaign and then those of the campaign itself, field for field, and
    samples each grid entry's vectors once."""
    cfg = make_cfg(code, mode="semi_simulative", ebn0_grid=(8.0, 10.0), samples=300,
                   force_tau=force_tau)
    want = run_campaign(replace(cfg, force_tau=0)) + run_campaign(cfg)
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

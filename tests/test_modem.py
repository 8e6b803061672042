import math
import tracemalloc

import numpy as np
import pytest

from erasurelab import modem
from erasurelab.modem import (
    CLASSES,
    CORNER,
    EDGE,
    INTERIOR,
    SIGMA_MAX,
    SIGMA_MIN,
    ModemError,
    SquareQam,
    UnreliabilityLut,
    awgn,
    sigma_from_ebn0,
    unreliability_exact,
    unreliability_nn,
)
from erasurelab.sim import sample_unreliability_vectors

from scalar_modem import (
    canonical_key,
    fold_lookup,
    loop_label_maps,
    masked_unreliability_nn,
    one_shot_unreliability_vectors,
    scalar_lut_entries,
    sorted_unreliability_exact,
    tensor_unreliability_exact,
)

#: (M, bits per axis) of the lookup-table differential tests
LUT_CASES = [(4, 8), (16, 6), (16, 8), (64, 8), (256, 8), (256, 9)]
#: noise levels of the bit-identity tests, over the whole range the kernels take
SIGMAS = [SIGMA_MIN, 1e-3, 0.05, 3.0, SIGMA_MAX]
SIGMA_IDS = ["sigma_min", "1e-3", "0.05", "3", "sigma_max"]


@pytest.fixture(scope="module")
def qam256():
    return SquareQam(256)


@pytest.fixture(scope="module")
def qam16():
    return SquareQam(16)


def test_sigma_from_ebn0_reference_value():
    # 256-QAM, rate 144/255, 18 dB
    assert sigma_from_ebn0(18.0, 256, 255, 144) == pytest.approx(0.04188, abs=5e-6)


def test_sigma_monotone_in_snr():
    s = [sigma_from_ebn0(db, 16, 15, 7) for db in (6, 8, 10, 12)]
    assert all(a > b for a, b in zip(s, s[1:]))


def test_sigma_validation():
    with pytest.raises(ModemError):
        sigma_from_ebn0(10, 3, 15, 7)
    with pytest.raises(ModemError):
        sigma_from_ebn0(10, 16, 7, 15)


def test_qam_sizes_rejected():
    for M in (2, 8, 32, 128, 24, 0, -16):
        with pytest.raises(ModemError):
            SquareQam(M)


def test_unit_average_energy(qam256, qam16):
    for qam in (qam256, qam16):
        assert np.mean(np.sum(qam.points**2, axis=1)) == pytest.approx(1.0)


def test_256qam_scale(qam256):
    assert qam256.scale == pytest.approx(1.0 / math.sqrt(170.0))


def test_gray_labels_adjacent_one_bit(qam16):
    """Axis-adjacent constellation points differ in exactly one label bit."""
    L = qam16.L
    for ix in range(L):
        for iy in range(L):
            s = qam16.index_symbol[ix, iy]
            if ix + 1 < L:
                t = qam16.index_symbol[ix + 1, iy]
                assert bin(int(s) ^ int(t)).count("1") == 1
            if iy + 1 < L:
                t = qam16.index_symbol[ix, iy + 1]
                assert bin(int(s) ^ int(t)).count("1") == 1


@pytest.mark.parametrize("M", [4, 16, 64, 256])
def test_label_maps_match_loop_reference(M):
    qam = SquareQam(M)
    for got, want in zip((qam.symbol_ix, qam.symbol_iy, qam.index_symbol), loop_label_maps(qam.L)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("symbols", [
    np.arange(16), np.arange(16).reshape(4, 4)[:, ::-1], [3, 0, 15, 7], [[1, 2], [3, 4]], [], np.empty((0, 15), int),
], ids=["1d", "2d_strided", "list", "nested_list", "empty_list", "empty_2d"])
def test_modulate_matches_point_gather(qam16, symbols):
    """The complex-view gather gives the (..., 2) points that indexing the
    point table gives, for arrays of any shape, lists and no symbols."""
    got = qam16.modulate(symbols)
    want = qam16.points[np.asarray(symbols, dtype=np.int64)]
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.writeable


def test_modulate_demap_roundtrip(qam256):
    sym = np.arange(256)
    assert np.array_equal(qam256.hard_decision(qam256.modulate(sym)), sym)


def test_hard_decision_ties_toward_lower_index(qam16):
    # midpoint between level 0 and 1 on both axes
    mid = (qam16.levels[0] + qam16.levels[1]) / 2.0
    ix, iy = qam16.hard_decision_indices(np.array([[mid, mid]]))
    assert ix[0] == 0 and iy[0] == 0


def test_awgn_statistics(qam16):
    rng = np.random.default_rng(5)
    pts = np.zeros((200_000, 2))
    y = awgn(pts, 0.3, rng)
    assert y.mean() == pytest.approx(0.0, abs=0.005)
    assert y.std() == pytest.approx(0.3, abs=0.005)


def test_unreliability_ranges(qam256):
    rng = np.random.default_rng(1)
    y = awgn(qam256.modulate(rng.integers(0, 256, 500)), 0.05, rng)
    for fn in (unreliability_exact, unreliability_nn):
        h = fn(y, qam256, 0.05)
        assert np.all(h >= 0) and np.all(h < 1)


def test_unreliability_at_point_is_small(qam256):
    """Exactly on a constellation point with tiny noise the hard decision is
    nearly certain."""
    y = qam256.points[:16]
    h = unreliability_exact(y, qam256, 0.01)
    assert np.all(h < 1e-10)


def test_unreliability_4qam_centroid():
    """At the origin of 4-QAM all four points are equally likely: h = 3/4."""
    qam = SquareQam(4)
    h = unreliability_exact(np.array([[0.0, 0.0]]), qam, 0.3)
    assert h[0] == pytest.approx(0.75)


@pytest.mark.parametrize("M", [4, 16, 256])
@pytest.mark.parametrize("ebn0_db", [6.0, 12.0, 18.0])
def test_exact_matches_tensor_reference(M, ebn0_db):
    """The separable posterior equals the (N, L, L) tensor form it replaced,
    on noisy transmissions and on decision-boundary midpoints (ties)."""
    qam = SquareQam(M)
    sigma = sigma_from_ebn0(ebn0_db, M, 15, 7)
    rng = np.random.default_rng(int(ebn0_db) * M)
    y = awgn(qam.modulate(rng.integers(0, M, 4000)), sigma, rng)
    mids = (qam.levels[:-1] + qam.levels[1:]) / 2.0
    both = mids[rng.integers(0, qam.L - 1, (300, 2))]
    one = np.stack([mids[rng.integers(0, qam.L - 1, 300)], qam.levels[rng.integers(0, qam.L, 300)]], -1)
    pts = np.concatenate([y, both, one])
    diff = np.abs(unreliability_exact(pts, qam, sigma) - tensor_unreliability_exact(pts, qam, sigma))
    assert diff.max() <= 1e-15


def _exact_inputs(qam: SquareQam, sigma: float, rng: np.random.Generator) -> dict:
    """Received points of every kind the exact kernel's merge and sum must
    get right: ties (midpoints), their neighbours one ulp away, points on
    the levels, far outside the constellation, a lone point, none, and
    enough noisy points to fill several blocks and part of another."""
    L = qam.L
    mids = (qam.levels[:-1] + qam.levels[1:]) / 2.0
    on_mid = mids[rng.integers(0, L - 1, (400, 2))]
    far = rng.uniform(10.0, 1000.0, (400, 2)) * rng.choice([-1.0, 1.0], (400, 2))
    return {
        "noisy": awgn(qam.modulate(rng.integers(0, qam.M, 5000)), sigma, rng),
        "uniform": rng.uniform(-2.0, 2.0, (2000, 2)),
        "levels": qam.levels[rng.integers(0, L, (400, 2))],
        "midpoints": on_mid,
        "above_midpoints": np.nextafter(on_mid, np.inf),
        "below_midpoints": np.nextafter(on_mid, -np.inf),
        "midpoint_and_level": np.stack([on_mid[:, 0], qam.levels[rng.integers(0, L, 400)]], -1),
        "far_out": far,
        "one_point": rng.uniform(-1.0, 1.0, (1, 2)),
        "empty": np.empty((0, 2)),
    }


@pytest.mark.parametrize("M", [4, 16, 64, 256, 1024, 65536])
@pytest.mark.parametrize("sigma", [
    SIGMA_MIN, 1e-3, 0.05, 3.0, SIGMA_MAX,
    sigma_from_ebn0(9.0, 16, 15, 7), sigma_from_ebn0(17.0, 256, 255, 144),
    sigma_from_ebn0(30.0, 1024, 255, 223),
], ids=["sigma_min", "1e-3", "0.05", "3", "sigma_max", "9dB_16qam", "17dB_256qam", "30dB_1024qam"])
def test_exact_bit_identical_to_sorted_reference(M, sigma):
    """The sort-free kernel (levels-major rows, a bitonic merge, the sum in
    numpy's reduction order) gives every h exactly as the kernel that sorted
    each (point, axis) row: at L = 8 the sum is 7 terms in turn, at L = 16
    and 32 (15 and 31 terms) it is numpy's 8-way pairwise sum, and at
    L = 256 (255 terms) that sum over two parts of 120 and 135 terms. A
    numpy whose reduction order or exp loops differ fails here."""
    qam = SquareQam(M)
    rng = np.random.default_rng(M)
    for kind, y in _exact_inputs(qam, sigma, rng).items():
        h = unreliability_exact(y, qam, sigma)
        assert h.shape == (len(y),), kind
        assert np.array_equal(h, sorted_unreliability_exact(y, qam, sigma)), kind


def _floor_blocks(y: np.ndarray, qam: SquareQam, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per block of the exact kernel: whether every nearest off-level
    exponent is at least modem.LEAD (the floor is taken), and whether an
    exponent of the rows that `_lone_rows` names lies below modem.FAR
    (the floor moves it)."""
    v = np.asarray(y, dtype=float).reshape(-1)
    e = np.sort((v[:, None] - qam.levels) ** 2, axis=-1)
    e = (e[:, :1] - e[:, 1:]) / (2.0 * sigma * sigma)
    step = modem.EXACT_BLOCK // qam.L
    lone = modem._lone_rows(qam.L - 1)
    blocks = [e[lo : lo + step] for lo in range(0, len(v), step)]
    return (np.array([b[:, 0].min() >= modem.LEAD for b in blocks]),
            np.array([(b[:, lone:] < modem.FAR).any() for b in blocks]))


@pytest.mark.parametrize("M", [4, 16, 64, 256])
@pytest.mark.parametrize("ebn0_db", [0.0, 10.0, 16.5, 20.0, 30.0, 45.0, 60.0])
def test_exact_floor_bit_identical_to_sorted_reference(M, ebn0_db):
    """Raising the exponents below FAR to FAR, in the rows added one at a
    time onto a sum that holds row 0 and only in blocks whose row 0 is at
    least LEAD, leaves every h bit for bit as the sorting kernel gives it:
    on noisy points, on points jittered by sigma about the decision
    midpoints (row 0 near 0 at any noise level), on points 1 to 50 steps
    outside the grid (row 0 far below LEAD), and on all three in one call,
    whose 256-QAM blocks fall on both sides of the LEAD check from 30 dB
    on. Each kind alone also takes the skip of the whole call when no
    exponent can reach FAR (16-QAM below about 20 dB)."""
    qam = SquareQam(M)
    sigma = sigma_from_ebn0(ebn0_db, M, 255, 144)
    rng = np.random.default_rng([M, int(ebn0_db * 10)])
    mids = (qam.levels[:-1] + qam.levels[1:]) / 2.0
    outside = qam.levels[-1] + 2.0 * qam.scale * rng.uniform(1.0, 50.0, (400, 2))
    kinds = {
        "noisy": awgn(qam.modulate(rng.integers(0, M, 1500)), sigma, rng),
        "near_midpoints": mids[rng.integers(0, qam.L - 1, (600, 2))] + sigma * rng.uniform(-1.0, 1.0, (600, 2)),
        "outside": outside * rng.choice([-1.0, 1.0], (400, 2)),
    }
    kinds["all"] = np.concatenate(list(kinds.values()))
    for kind, y in kinds.items():
        assert np.array_equal(unreliability_exact(y, qam, sigma), sorted_unreliability_exact(y, qam, sigma)), kind
    if M == 256 and ebn0_db >= 16.5:
        lead, far = _floor_blocks(kinds["all"], qam, sigma)
        assert (lead & far).any()  # the floor moves some exponent
        if ebn0_db >= 30.0:
            assert not lead.all()  # and some block keeps its exponents


def masked_nn_exponents(y: np.ndarray, qam: SquareQam, sigma: float):
    """The exponents -(dn - d0) / 2 sigma^2 of masked_unreliability_nn in
    its arithmetic, a row per neighbor in its order, and the mask of the
    neighbors inside the constellation."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ix, iy = qam.hard_decision_indices(y)
    lx, ly = qam.levels[ix], qam.levels[iy]
    d0 = (y[:, 0] - lx) ** 2 + (y[:, 1] - ly) ** 2
    step = 2.0 * qam.scale
    exponents, inside = [], []
    for dxi, dyi in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nx, ny = ix + dxi, iy + dyi
        inside.append((nx >= 0) & (nx < qam.L) & (ny >= 0) & (ny < qam.L))
        dn = (y[:, 0] - (lx + dxi * step)) ** 2 + (y[:, 1] - (ly + dyi * step)) ** 2
        exponents.append(-(dn - d0) / (2.0 * sigma * sigma))
    return np.array(exponents), np.array(inside)


def clamped_nn(exponents: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """h from these exponents, each clamped at 0 and an outside neighbor's
    term 0, its terms added in the reference's order."""
    s = np.zeros(exponents.shape[1])
    for x, ok in zip(exponents, inside):
        s += np.exp(np.where(ok, np.minimum(x, 0.0), -np.inf))
    return s / (1.0 + s)


@pytest.mark.parametrize("M", [4, 16, 64, 256])
@pytest.mark.parametrize("sigma", SIGMAS, ids=SIGMA_IDS)
def test_nn_bit_identical_to_masked_reference(M, sigma):
    """Reusing each axis's own squared offset and one compare per neighbor
    mask gives every h exactly as the kernel that recomputed both offsets
    and built each mask from four compares, wherever that kernel's h is
    finite and none of its exponents (d0 - dn) / 2 sigma^2 of a neighbor in
    the constellation rounds above 0: on ties, ulp neighbours of ties,
    level points and far out. The decision is the nearest level, so such
    an exponent (on some ties) is clamped at 0: there h is exactly the
    reference's with its exponents clamped, also at the smallest sigma,
    where the reference's is NaN."""
    qam = SquareQam(M)
    for kind, y in _exact_inputs(qam, sigma, np.random.default_rng(M)).items():
        got = unreliability_nn(y, qam, sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_unreliability_nn(y, qam, sigma)
        exponents, inside = masked_nn_exponents(y, qam, sigma)
        plain = np.isfinite(want) & ~((exponents > 0) & inside).any(axis=0)
        assert got.shape == (len(y),), kind
        assert np.array_equal(got[plain], want[plain]), kind
        assert np.array_equal(got[~plain], clamped_nn(exponents, inside)[~plain]), kind


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M", [16, 256])
def test_nn_finite_at_the_ends_of_the_sigma_range(M):
    """Under warnings as errors, the nearest-neighbor kernel gives finite h
    in [0, 1), the clamped reference's, at SIGMA_MIN on decision midpoints,
    where the decision's squared distance can round above a neighbor's,
    and for points 50 steps outside the constellation, whose outside
    neighbor's term would overflow exp, at sigma 0.05, 0.01 and SIGMA_MIN."""
    qam = SquareQam(M)
    rng = np.random.default_rng(M)
    mids = (qam.levels[:-1] + qam.levels[1:]) / 2.0
    on_mid = mids[rng.integers(0, qam.L - 1, (400, 2))]
    edge = qam.levels[-1] + 50 * 2.0 * qam.scale
    far = np.stack([rng.choice([-edge, edge], 400), qam.levels[rng.integers(0, qam.L, 400)]], -1)
    far = np.concatenate([far, far[:, ::-1], rng.choice([-edge, edge], (400, 2))])
    clamped = 0
    for y, sigma in ((on_mid, SIGMA_MIN), (far, 0.05), (far, 0.01), (far, SIGMA_MIN)):
        got = unreliability_nn(y, qam, sigma)
        exponents, inside = masked_nn_exponents(y, qam, sigma)
        assert ((got >= 0) & (got < 1)).all()
        assert np.array_equal(got, clamped_nn(exponents, inside))
        clamped += ((exponents > 0) & inside).any(axis=0).sum()
    assert clamped > 0


@pytest.mark.parametrize("sigma", [math.nan, 0.0, 1e-200, math.inf, -0.1, SIGMA_MAX * 1.001])
@pytest.mark.parametrize("kernel", ["exact", "nn", "lut"])
def test_every_kernel_rejects_sigma_out_of_range(qam16, kernel, sigma):
    """One check for every unreliability kernel: a sigma outside [SIGMA_MIN,
    SIGMA_MAX], NaN included, is a ModemError, not NaN h, a divide-by-zero
    warning or an invalid cast."""
    y = np.zeros((3, 2))
    run = {
        "exact": lambda: unreliability_exact(y, qam16, sigma),
        "nn": lambda: unreliability_nn(y, qam16, sigma),
        "lut": lambda: UnreliabilityLut.build(qam16, sigma, 6),
    }[kernel]
    with pytest.raises(ModemError, match="sigma must lie in"):
        run()


@pytest.mark.parametrize("sigma", [math.nan, 0.0, 1e-200, math.inf])
@pytest.mark.parametrize("method", ["exact", "nn", "lut"])
def test_sampled_vectors_reject_sigma_before_drawing(qam16, method, sigma):
    """Every method rejects a bad sigma the same way, before the generator
    draws a symbol."""
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ModemError, match="sigma must lie in"):
        sample_unreliability_vectors(sigma, qam16, 15, 4, rng, method)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("method", ["exact", "nn", "lut"])
@pytest.mark.parametrize("M,n,count", [(16, 15, 1), (16, 15, 1093), (256, 255, 1), (256, 255, 70)])
def test_chunked_sampling_matches_one_shot(method, M, n, count):
    """Modulating, drawing noise and scoring UNRELIABILITY_CHUNK points at
    a time continues the one stream: the vectors equal those of the
    sampler that drew all the noise at once, bit for bit, and the generator
    ends in the same state. 1093 x 15 and 70 x 255 points are not whole
    chunks, and a chunk boundary falls inside a vector."""
    qam = SquareQam(M)
    sigma = sigma_from_ebn0(8.0 if M == 16 else 16.5, M, n, 7 if M == 16 else 144)
    rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
    got = sample_unreliability_vectors(sigma, qam, n, count, rng, method)
    want = one_shot_unreliability_vectors(sigma, qam, n, count, ref_rng, method)
    assert got.shape == (count, n) and np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("method", ["exact", "nn", "lut"])
def test_sampling_peak_stays_near_its_arrays(qam256, method):
    """A default semi-simulative point, 10^4 vectors at n = 255, keeps two
    arrays of count x n: the drawn symbols and the vectors. Every other
    temporary is chunk-sized, so the traced peak stays within 4 MB of the
    two (it measures 1.2 to 1.9 MB over them; the one-shot sampler's was
    61 MB over)."""
    sigma = sigma_from_ebn0(16.5, 256, 255, 144)
    tracemalloc.start()
    try:
        h = sample_unreliability_vectors(sigma, qam256, 255, 10_000, np.random.default_rng(1), method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * h.nbytes + 4e6


@pytest.mark.parametrize("qam", [SquareQam(16), SquareQam(256)], ids=["16", "256"])
@pytest.mark.parametrize("a", [28.0, 112.5])
def test_tiny_unreliability_keeps_precision(qam, a):
    """Exactly on an interior point the off-decision mass is four neighbors at
    step^2 / 2 sigma^2 = a, so h_nn = s / (1 + s) with s = 4 exp(-a): about
    3e-12 and 3e-49 here, where 1 - 1/(1 + s) keeps 4 digits or none. (a =
    112.5 is sigma = 0.0102 at 256-QAM; 16-QAM at sigma = 0.01 would underflow
    exp to 0.) The exact posterior adds about exp(-a) relative mass from the
    diagonal and second neighbors; at a = 28 that is far above rounding."""
    step = 2.0 * qam.scale
    sigma = step / math.sqrt(2.0 * a)
    inner = qam.points[(qam.symbol_ix > 0) & (qam.symbol_ix < qam.L - 1)
                       & (qam.symbol_iy > 0) & (qam.symbol_iy < qam.L - 1)]
    s = 4.0 * math.exp(-a)
    h_nn = unreliability_nn(inner, qam, sigma)
    h_ex = unreliability_exact(inner, qam, sigma)
    assert np.allclose(h_nn, s / (1.0 + s), rtol=1e-12, atol=0)
    assert np.allclose(h_ex, h_nn, rtol=1e-12, atol=0)
    # rounding of the exponents (~a * 1e-16 relative) stays below 1e-13
    assert np.all(h_ex >= h_nn * (1.0 + math.exp(-a) / 2.0 - 1e-13))


def test_nn_underestimates_exact(qam256):
    """The truncated denominator can only shrink, so h_nn <= h_exact."""
    rng = np.random.default_rng(2)
    sigma = 0.06
    y = awgn(qam256.modulate(rng.integers(0, 256, 2000)), sigma, rng)
    h_nn = unreliability_nn(y, qam256, sigma)
    h_ex = unreliability_exact(y, qam256, sigma)
    assert np.all(h_nn <= h_ex + 1e-12)


def test_nn_close_to_exact_at_high_snr(qam256):
    """At 18 dB (rate 144/255) the approximation tracks the exact value:
    typical deviations are ~1e-4 in the bulk, larger only in rare deep-noise
    samples near region boundaries."""
    sigma = sigma_from_ebn0(18.0, 256, 255, 144)
    rng = np.random.default_rng(3)
    y = awgn(qam256.modulate(rng.integers(0, 256, 10_000)), sigma, rng)
    diff = np.abs(unreliability_nn(y, qam256, sigma) - unreliability_exact(y, qam256, sigma))
    assert np.median(diff) < 1e-3
    assert np.quantile(diff, 0.99) < 0.1
    assert diff.max() < 0.25


def test_symbol_error_rate_matches_union_bound_estimate(qam16):
    """Measured SER vs the nearest-neighbor analytic estimate for 16-QAM."""
    sigma = 0.12
    rng = np.random.default_rng(4)
    count = 200_000
    sym = rng.integers(0, 16, count)
    y = awgn(qam16.modulate(sym), sigma, rng)
    ser = np.mean(qam16.hard_decision(y) != sym)
    # per-axis error prob for inner levels: 2Q(scale/sigma), outer: Q(scale/sigma)
    qf = 0.5 * math.erfc(qam16.scale / sigma / math.sqrt(2.0))
    p_axis = (2 * 2 * qf + 2 * qf) / 4.0
    ser_est = 1.0 - (1.0 - p_axis) ** 2
    assert ser == pytest.approx(ser_est, rel=0.02)


# -- lookup table --


def test_lut_entry_count_256qam(qam256):
    lut = UnreliabilityLut.build(qam256, 0.0419, 8)
    by_class = {INTERIOR: 0, EDGE: 0, CORNER: 0}
    for key in lut.entries:
        by_class[key[0]] += 1
    assert by_class == {INTERIOR: 64, EDGE: 128, CORNER: 128}
    assert len(lut.entries) == 320


def test_lut_entry_count_4qam():
    """2x2 constellation: every region is a corner."""
    lut = UnreliabilityLut.build(SquareQam(4), 0.3, 8)
    assert all(key[0] == CORNER for key in lut.entries)
    assert len(lut.entries) == 128 * 128 // 2


def test_lut_build_validation(qam256):
    with pytest.raises(ModemError):
        UnreliabilityLut.build(qam256, 0.05, 4)  # 16 cells for 16 regions
    with pytest.raises(ModemError):
        UnreliabilityLut.build(qam256, 0.0, 8)
    # past MAX_LUT_BITS, before any table is allocated
    with pytest.raises(ModemError, match="bits_per_axis must be <= 10, got 11"):
        UnreliabilityLut.build(qam256, 0.05, 11)


def test_lut_build_peak_stays_near_the_table(monkeypatch):
    """At 4-QAM with 10 bits (786 432 cell centres, a 6.3 MB table) each
    UNRELIABILITY_CHUNK slice of centres is formed from its own rows and
    the unstored cells are masked in place, so the build's traced peak
    stays under 1.5 tables (it measures 1.3; one call over all centres
    peaked near 15), and the table is bit-identical to that one call's."""
    tracemalloc.start()
    try:
        lut = UnreliabilityLut.build(SquareQam(4), 0.3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * lut.table.nbytes
    monkeypatch.setattr(modem, "UNRELIABILITY_CHUNK", lut.table.size)
    assert UnreliabilityLut.build(SquareQam(4), 0.3, 10).table.tobytes() == lut.table.tobytes()


def test_first_lookup_peak_stays_near_the_table():
    """The first 4-QAM lookup with 10 bits (a 6.3 MB table) builds the fold
    maps of that geometry, one entry per axis cell and per key pair, and
    its traced peak stays under 1.5 tables (it measures 0.93; a map over
    the whole (L c)^2 plane of cells peaked near 3.5)."""
    qam = SquareQam(4)
    lut = UnreliabilityLut.build(qam, 0.3, 10)
    y = np.random.default_rng(4).normal(0.0, 1.0, (1000, 2))
    modem._lut_maps.cache_clear()
    tracemalloc.start()
    try:
        lut.lookup(y, qam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modem._lut_maps.cache_info().currsize == 1
    assert peak < 1.5 * lut.table.nbytes


def test_lut_reconstruction_off_diagonal(qam16):
    """Cell-center reconstruction is lossless except on corner diagonals,
    where storage is at half resolution."""
    sigma = 0.08
    lut = UnreliabilityLut.build(qam16, sigma, 6)
    c = lut.cells_per_region
    w = 2.0 * qam16.scale / c
    half_span = qam16.L * qam16.scale
    grid = (np.arange(qam16.L * c) + 0.5) * w - half_span
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
    got = lut.lookup(pts, qam16)
    want = unreliability_nn(pts, qam16, sigma)

    gi = np.floor((pts + half_span) / w).astype(np.int64)
    rx, ox = gi[:, 0] // c, gi[:, 0] % c
    ry, oy = gi[:, 1] // c, gi[:, 1] % c
    corner = ((rx == 0) | (rx == qam16.L - 1)) & ((ry == 0) | (ry == qam16.L - 1))
    p = np.where(rx == qam16.L - 1, ox, c - 1 - ox)
    q = np.where(ry == qam16.L - 1, oy, c - 1 - oy)
    half_res = corner & (p == q) & (p % 2 == 0)

    assert np.max(np.abs(got[~half_res] - want[~half_res])) < 1e-12
    # the half-resolution diagonal cells read the adjacent odd cell's value
    assert np.max(np.abs(got[half_res] - want[half_res])) < 0.25
    assert half_res.sum() == 4 * c // 2  # 4 corners, every other diagonal cell


def test_lut_lookup_matches_nn_closely(qam256):
    """Random received points: quantization error only. The cell width at
    8 bits is comparable to sigma at 18 dB, so deviations stay moderate."""
    sigma = sigma_from_ebn0(18.0, 256, 255, 144)
    lut = UnreliabilityLut.build(qam256, sigma, 8)
    rng = np.random.default_rng(6)
    y = awgn(qam256.modulate(rng.integers(0, 256, 5000)), sigma, rng)
    diff = np.abs(lut.lookup(y, qam256) - unreliability_nn(y, qam256, sigma))
    assert np.median(diff) < 0.02
    assert diff.max() < 0.25


@pytest.mark.parametrize("M,bits", LUT_CASES)
def test_lut_entries_match_scalar_reference(M, bits):
    """Entries from one unreliability_nn call at the representative cell
    centres equal the scalar per-cell posterior they replaced."""
    qam = SquareQam(M)
    sigma = 0.6 * qam.scale
    lut = UnreliabilityLut.build(qam, sigma, bits)
    ref = scalar_lut_entries(qam, sigma, lut.cells_per_region)
    assert lut.entries.keys() == ref.keys()
    assert max(abs(lut.entries[key] - ref[key]) for key in ref) <= 1e-14


@pytest.mark.parametrize("M,bits", LUT_CASES)
def test_lut_lookup_matches_canonical_key(M, bits):
    """The array fold reads the entry that the per-point canonical_key names,
    on every cell and on random points inside and outside the grid."""
    qam = SquareQam(M)
    lut = UnreliabilityLut.build(qam, 0.6 * qam.scale, bits)
    c, L = lut.cells_per_region, qam.L
    w = 2.0 * qam.scale / c
    half_span = L * qam.scale
    grid = (np.arange(L * c) + 0.5) * w - half_span
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    rng = np.random.default_rng(M * bits)
    pts = np.concatenate([
        np.stack([xs.ravel(), ys.ravel()], axis=-1),
        rng.uniform(-1.5 * half_span, 1.5 * half_span, (5000, 2)),
    ])
    gi = np.clip(np.floor((pts + half_span) / w).astype(np.int64), 0, L * c - 1)
    want = [lut.entries[canonical_key(gx // c, gy // c, gx % c, gy % c, L, c)]
            for gx, gy in gi.tolist()]
    assert np.array_equal(lut.lookup(pts, qam), want)


@pytest.mark.parametrize("M,bits", LUT_CASES + [(4, 10)])
def test_lut_lookup_bit_identical_to_fold_reference(M, bits):
    """Reading the table through the per-geometry maps gives exactly what
    folding each point with array passes gave: on every cell, its edges
    one ulp either side, and points far outside the grid."""
    qam = SquareQam(M)
    lut = UnreliabilityLut.build(qam, 0.6 * qam.scale, bits)
    c, L = lut.cells_per_region, qam.L
    w = 2.0 * qam.scale / c
    half_span = L * qam.scale
    centres = (np.arange(L * c) + 0.5) * w - half_span
    edges = np.arange(L * c + 1) * w - half_span
    axis = np.concatenate([centres, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           [-1e9, -4.0 * half_span, 4.0 * half_span, 1e9]])
    # every pair of axis values, a block of rows of the plane at a time
    step = max(1, (1 << 16) // len(axis))
    for lo in range(0, len(axis), step):
        xs, ys = np.meshgrid(axis[lo : lo + step], axis, indexing="ij")
        pts = np.stack([xs.ravel(), ys.ravel()], axis=-1)
        assert np.array_equal(lut.lookup(pts, qam), fold_lookup(lut, pts, qam))


def test_lut_save_load_roundtrip(tmp_path):
    """The text file restores the table bit for bit, and ``entries`` holds
    exactly the table's stored (non-NaN) cells."""
    for M, bits, sigma, count in ((4, 8, 0.3, 8192), (16, 6, 0.1, 320), (256, 8, 0.0419, 320)):
        qam = SquareQam(M)
        lut = UnreliabilityLut.build(qam, sigma, bits)
        path = tmp_path / f"lut{M}.txt"
        lut.save(path)
        again = UnreliabilityLut.load(path)
        assert (again.M, again.bits_per_axis, again.sigma) == (M, bits, sigma)
        assert again.cells_per_region == lut.cells_per_region
        assert np.array_equal(again.table, lut.table, equal_nan=True)
        for t in (lut, again):
            assert len(t.entries) == np.count_nonzero(~np.isnan(t.table)) == count
            assert all(t.table[CLASSES.index(name), i, j] == h for (name, i, j), h in t.entries.items())
        assert again.entries == lut.entries
        rng = np.random.default_rng(8)
        y = rng.uniform(-1.2, 1.2, (1000, 2))
        assert np.array_equal(again.lookup(y, qam), lut.lookup(y, qam))


def test_lut_save_deterministic(tmp_path, qam16):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    UnreliabilityLut.build(qam16, 0.1, 6).save(a)
    UnreliabilityLut.build(qam16, 0.1, 6).save(b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("line,text,match", [
    (1, "16 6", "line 1: expected 3 fields, got 2"),
    (1, "16 six 0.1", "line 1: cannot read '16 six 0.1'"),
    (1, "8 6 0.1", "line 1: M=8 is not a square QAM size"),
    (1, "-16 6 0.1", "line 1: M=-16 is not a square QAM size"),
    (1, "16 1 0.1", "line 1: bits_per_axis must be >= 2"),
    (1, "16 14 0.1", "line 1: bits_per_axis must be <= 10, got 14"),
    (1, "16 40 0.1", "line 1: bits_per_axis must be <= 10, got 40"),
    (1, "256 4 0.1", "line 1: 4-bit quantization cannot resolve 16 decision regions"),
    (1, "16 6 0", "line 1: sigma must lie in"),
    (1, "16 6 nan", "line 1: sigma must lie in"),
    (1, "16 6 inf", "line 1: sigma must lie in"),
    (1, "16 6 1e-200", "line 1: sigma must lie in"),
    (1, "16 6 1e13", "line 1: sigma must lie in"),
    (-1, "corner 9 8", "line 321: expected 4 fields, got 3"),
    (-1, "corner 9 8 0.1 0.2", "line 321: expected 4 fields, got 5"),
    (2, "middle 9 8 0.1", "line 2: unknown class 'middle'"),
    (2, "corner 16 8 0.1", r"line 2: cell \(16, 8\) outside \[0, 16\)"),
    (2, "corner 9 -1 0.1", r"line 2: cell \(9, -1\) outside \[0, 16\)"),
    (2, "corner 9.0 8 0.1", "line 2: cannot read"),
    (2, "corner 9 8 abc", "line 2: cannot read 'corner 9 8 abc'"),
    (2, "corner 9 8 1.0", r"line 2: h must lie in \[0, 1\), got 1.0"),
    (2, "corner 9 8 -0.25", r"line 2: h must lie in \[0, 1\), got -0.25"),
    (2, "corner 9 8 nan", r"line 2: h must lie in \[0, 1\), got nan"),
])
def test_lut_load_rejects_bad_lines(tmp_path, qam16, line, text, match):
    """Each header or entry line that `build` could not have written is a
    ModemError naming its line (1 is the header), not a bare numpy or
    tuple error, nor a negative index that wraps to another cell."""
    path = tmp_path / "lut.txt"
    UnreliabilityLut.build(qam16, 0.1, 6).save(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 321
    lines[line - 1 if line > 0 else line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModemError, match=match):
        UnreliabilityLut.load(path)

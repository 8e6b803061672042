import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erasurelab.dcf import DecoderCapability, DecoderKind
from erasurelab.gf import GF
from erasurelab.modem import SquareQam, sigma_from_ebn0
from erasurelab.rs import CodeParams
from erasurelab.sim import _frame_rng, batch_residual_probs, sample_unreliability_vectors
from erasurelab.strategy import (
    STRATEGIES,
    StrategyKind,
    _tau_sweep,
    check_sorted_unreliability,
    choose_tau,
    expectation,
    hoeffding_half_width,
    p_profile,
    pgf_distribution,
    residual_error_prob,
    tail_coeffs,
    tau_star_eps0,
    tau_star_exact,
)
from scalar_strategy import LOOP_STRATEGIES, loop_tail_means, loop_tau_star_exact


def brute_force_pmf(h):
    """Pr(sum of independent Bernoulli(h_i) = eps) by 2^n enumeration."""
    n = len(h)
    pmf = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b, hi in zip(bits, h):
            p *= hi if b else (1.0 - hi)
        pmf[sum(bits)] += p
    return pmf


def sorted_vec(rng, n, hi=0.95):
    return np.sort(rng.uniform(0, hi, n))[::-1]


@pytest.fixture(scope="module")
def cap15():
    return DecoderCapability(DecoderKind.BMD, CodeParams(GF(4), 15, 7))


def test_input_validation():
    with pytest.raises(ValueError):
        pgf_distribution(np.array([0.2, 0.5]), 0)  # not sorted non-increasing
    with pytest.raises(ValueError):
        pgf_distribution(np.array([1.0, 0.5]), 0)  # out of [0, 1)
    with pytest.raises(ValueError):
        pgf_distribution(np.array([0.5, 0.2]), 3)  # tau > n
    for nan_at in ([0.5, np.nan, 0.1], [np.nan], [0.5, 0.1, np.nan]):
        with pytest.raises(ValueError):
            pgf_distribution(np.array(nan_at), 0)


def test_two_symbol_distribution_by_hand():
    dist = pgf_distribution(np.array([0.3, 0.2]), 0)
    assert np.allclose(dist.coeffs, [0.56, 0.38, 0.06])


def test_pgf_matches_enumeration_small():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        h = sorted_vec(rng, n)
        for tau in (0, n // 2):
            got = pgf_distribution(h, tau).coeffs
            want = brute_force_pmf(h[tau:])
            assert np.max(np.abs(got - want)) < 1e-12


def test_pgf_normalization_large():
    rng = np.random.default_rng(1)
    h = sorted_vec(rng, 255)
    for tau in (0, 40, 254, 255):
        dist = pgf_distribution(h, tau)
        assert abs(dist.coeffs.sum() - 1.0) < 1e-10
        assert len(dist.coeffs) == 255 - tau + 1


def test_pgf_binomial_closed_form():
    """Equal unreliabilities collapse to a binomial distribution."""
    p = 0.23
    n = 40
    dist = pgf_distribution(np.full(n, p), 0)
    want = np.array([math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)])
    assert np.max(np.abs(dist.coeffs - want)) < 1e-13


def test_expectation_is_tail_sum():
    rng = np.random.default_rng(2)
    h = sorted_vec(rng, 30)
    for tau in (0, 7, 30):
        assert expectation(h, tau) == pytest.approx(float(h[tau:].sum()))
        # first-moment identity of the pgf
        dist = pgf_distribution(h, tau)
        mean = float(np.arange(len(dist.coeffs)) @ dist.coeffs)
        assert mean == pytest.approx(expectation(h, tau), abs=1e-10)


def test_tail_coeffs_match_enumeration_every_tau():
    """One backward pass gives every tau's tail masses Pr(Y_tau >= e), full
    or truncated, for one vector or a stack of rows."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        h = sorted_vec(rng, n)
        full = tail_coeffs(h, n + 1, 0, n)
        for tau in range(n + 1):
            want = np.zeros(n + 1)
            want[: n - tau + 1] = np.cumsum(brute_force_pmf(h[tau:])[::-1])[::-1]
            assert np.max(np.abs(full[tau] - want)) < 1e-12
            assert full[tau, 0] == 1.0
        width = int(rng.integers(1, n + 2))
        lo = int(rng.integers(0, n + 1))
        assert np.array_equal(tail_coeffs(h, width, lo, n), full[lo:, :width])
    rows = np.sort(rng.uniform(0, 0.9, (6, 12)), axis=1)[:, ::-1]
    stacked = tail_coeffs(rows, 5, 2, 4)
    assert stacked.shape == (3, 5, 6)
    for r, h in enumerate(rows):
        assert np.array_equal(stacked[..., r], tail_coeffs(h, 5, 2, 4))
    with pytest.raises(ValueError):
        tail_coeffs(rows, 5, 4, 2)
    with pytest.raises(ValueError):
        tail_coeffs(rows, 0, 2, 4)


def brute_force_strategy_values(h, pmfs, cap):
    """Per-tau values each chooser minimizes, from the enumerated
    distributions pmfs[tau] of the tails h[tau:]."""
    n = len(h)
    w = hoeffding_half_width(n)
    values = {kind: [] for kind in StrategyKind}
    for tau in range(cap.code.d_min):
        pmf = np.append(pmfs[tau], 0.0)
        e0 = cap.epsilon0(tau)
        mean = float(h[tau:].sum())
        lo = max(0, math.ceil(mean - w))
        hi = min(math.floor(mean + w), e0, n - tau)
        if e0 < 0:
            exact = surrogate = 1.0
        else:
            exact = 1.0 - pmf[: e0 + 1].sum()
            surrogate = 1.0 - pmf[e0] if mean > e0 else pmf[e0 + 1]
        window = 1.0 - pmf[lo : hi + 1].sum() if hi >= lo else 1.0
        values[StrategyKind.EXACT].append(exact)
        values[StrategyKind.HOEFFDING].append(window)
        values[StrategyKind.EPS0].append(surrogate)
    return {kind: np.clip(v, 0.0, 1.0) for kind, v in values.items()}


def test_every_strategy_matches_brute_force_per_capability():
    """All three choosers and the P(tau) profile against enumeration on
    RS(16;15,7) with BMD, GS and IRS(3): the larger eps0 of GS and IRS
    checks that the shared pass is wide enough for every tau."""
    code = CodeParams(GF(4), 15, 7)
    caps = [DecoderCapability(DecoderKind.BMD, code),
            DecoderCapability(DecoderKind.GS, code),
            DecoderCapability(DecoderKind.IRS, code, 3)]
    rng = np.random.default_rng(9)
    # the noisy vectors have E{Y} > w, so the Hoeffding window starts above 0
    vectors = [sorted_vec(rng, 15) for _ in range(6)]
    vectors += [np.sort(rng.uniform(0.85, 0.99, 15))[::-1] for _ in range(2)]
    for h in vectors:
        pmfs = [brute_force_pmf(h[tau:]) for tau in range(code.d_min)]
        for cap in caps:
            want = brute_force_strategy_values(h, pmfs, cap)
            assert np.max(np.abs(p_profile(h, cap) - want[StrategyKind.EXACT])) < 1e-12
            for kind in StrategyKind:
                res = choose_tau(h, cap, kind)
                assert res.tau_chosen == int(np.argmin(want[kind]))
                assert res.predicted_p == pytest.approx(want[kind].min(), abs=1e-12)


def test_residual_error_prob():
    dist = pgf_distribution(np.array([0.3, 0.2]), 0)
    assert residual_error_prob(dist, 0) == pytest.approx(0.44)
    assert residual_error_prob(dist, 1) == pytest.approx(0.06)
    assert residual_error_prob(dist, 5) == 0.0
    assert residual_error_prob(dist, -1) == 1.0
    with pytest.raises(ValueError):
        residual_error_prob(dist, -2)


def test_tau_star_exact_matches_brute_force(cap15):
    """Exhaustive check against enumeration-based minimization."""
    rng = np.random.default_rng(4)
    d = cap15.code.d_min
    for _ in range(50):
        h = sorted_vec(rng, 15)
        probs = []
        for tau in range(d):
            pmf = brute_force_pmf(h[tau:])
            e0 = cap15.epsilon0(tau)
            probs.append(1.0 - pmf[: e0 + 1].sum() if e0 >= 0 else 1.0)
        want_tau = int(np.argmin(probs))
        res = tau_star_exact(h, cap15)
        assert res.tau_chosen == want_tau
        assert res.predicted_p == pytest.approx(probs[want_tau], abs=1e-12)


def test_tau_star_tie_breaks_to_smallest(cap15):
    """All-zero unreliability: every tau achieves P = 0, pick tau = 0."""
    h = np.zeros(15)
    for kind in StrategyKind:
        res = choose_tau(h, cap15, kind)
        assert res.tau_chosen == 0
        assert res.predicted_p == 0.0


def test_hoeffding_half_width_reference():
    assert hoeffding_half_width(255) == 52
    s = math.sqrt(-math.log(0.005) * 2 * 255)
    assert s == pytest.approx(51.98, abs=0.01)


def test_hoeffding_window_mass_large_code():
    """The window around the mean captures > 99% of the probability mass."""
    code = CodeParams(GF(8), 255, 144)
    rng = np.random.default_rng(5)
    w = hoeffding_half_width(255)
    for _ in range(10):
        h = np.sort(rng.uniform(0, 0.5, 255))[::-1]
        for tau in (0, 30, 80):
            dist = pgf_distribution(h, tau)
            mean = expectation(h, tau)
            lo = max(0, math.ceil(mean - w))
            hi = min(int(math.floor(mean + w)), len(dist.coeffs) - 1)
            assert dist.coeffs[lo : hi + 1].sum() > 0.99


def test_strategies_agree_at_moderate_noise(cap15):
    """On clearly separated vectors all three choosers find the same tau."""
    rng = np.random.default_rng(6)
    agree = 0
    total = 40
    for _ in range(total):
        h = np.sort(rng.uniform(0, 0.2, 15))[::-1]
        taus = {choose_tau(h, cap15, kind).tau_chosen for kind in StrategyKind}
        agree += len(taus) == 1
    assert agree >= total * 0.8


def test_approximations_near_optimal_in_exact_p(cap15):
    """The tau picked by an approximation loses little in the exact profile."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        h = sorted_vec(rng, 15, hi=0.5)
        profile = p_profile(h, cap15)
        best = profile.min()
        for kind in (StrategyKind.HOEFFDING,):
            tau = choose_tau(h, cap15, kind).tau_chosen
            assert profile[tau] <= best + 0.05


def test_p_profile_shape(cap15):
    rng = np.random.default_rng(8)
    h = sorted_vec(rng, 15)
    profile = p_profile(h, cap15)
    assert len(profile) == cap15.code.d_min
    assert np.all((profile >= 0) & (profile <= 1))
    assert profile[0] == pytest.approx(
        residual_error_prob(pgf_distribution(h, 0), cap15.epsilon0(0))
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 0.93), min_size=1, max_size=12))
def test_pgf_is_distribution(values):
    h = np.sort(np.array(values))[::-1]
    dist = pgf_distribution(h, 0)
    assert np.all(dist.coeffs >= 0)
    assert abs(dist.coeffs.sum() - 1.0) < 1e-9


def test_eps0_near_optimal_large_code_channel():
    """RS(255,144) at 16 dB: the eps0 choice loses < 5% relative exact-P
    for at least 95% of sampled channel vectors."""
    code = CodeParams(GF(8), 255, 144)
    cap = DecoderCapability(DecoderKind.BMD, code)
    qam = SquareQam(256)
    sigma = sigma_from_ebn0(16.0, 256, 255, 144)
    vecs = sample_unreliability_vectors(
        sigma, qam, 255, 1000, _frame_rng(42, 0, 0), "exact"
    )
    count, n = vecs.shape
    d = code.d_min
    surro = np.empty((count, d))
    exact = np.empty((count, d))
    means = vecs.sum(axis=1)
    for tau in range(d):
        e0 = cap.epsilon0(tau)
        m = means - vecs[:, :tau].sum(axis=1)
        width = min(e0 + 2, n - tau + 1)
        coeffs = np.zeros((count, width))
        coeffs[:, 0] = 1.0
        for i in range(tau, n):
            p = vecs[:, i : i + 1]
            coeffs[:, 1:] = coeffs[:, 1:] * (1.0 - p) + coeffs[:, :-1] * p
            coeffs[:, 0] *= 1.0 - p[:, 0]
        pk0 = coeffs[:, e0] if e0 < width else np.zeros(count)
        pk1 = coeffs[:, e0 + 1] if e0 + 1 < width else np.zeros(count)
        surro[:, tau] = np.where(m > e0, np.clip(1.0 - pk0, 0, 1), pk1)
        exact[:, tau] = np.clip(1.0 - coeffs[:, : e0 + 1].sum(axis=1), 0, 1)
    tau_hat = surro.argmin(axis=1)
    # the vectorized surrogate must agree with the scalar strategy
    for i in range(15):
        assert tau_star_eps0(vecs[i], cap).tau_chosen == tau_hat[i]
    p_star = exact.min(axis=1)
    p_hat = exact[np.arange(count), tau_hat]
    rel = (p_hat - p_star) / np.maximum(p_star, 1e-300)
    assert np.mean(rel <= 0.05) >= 0.95


def test_strategy_registry(cap15):
    assert set(STRATEGIES) == set(StrategyKind)
    h = np.zeros(15)
    for kind, fn in STRATEGIES.items():
        assert fn(h, cap15).strategy_kind is kind


def rational_tails(h):
    """Pr(Y_tau >= e) as exact fractions of the float entries of h, for
    every tau and e = 0..n+1."""
    n = len(h)
    pmf = [Fraction(1)]
    tails = [None] * (n + 1)
    for tau in range(n, -1, -1):
        if tau < n:
            p = Fraction(float(h[tau]))
            pmf = [a * (1 - p) + b * p for a, b in zip(pmf + [0], [0] + pmf)]
        tail = list(itertools.accumulate(reversed(pmf)))[::-1]
        tails[tau] = tail + [Fraction(0)] * (n + 2 - len(tail))
    return tails


def rational_strategy_values(h, tails, cap):
    """The per-tau values each chooser minimizes, in exact arithmetic; the
    window bounds and the eps0 branch come from the float means, as in the
    choosers' definitions."""
    n = len(h)
    w = hoeffding_half_width(n)
    values = {kind: [] for kind in StrategyKind}
    for tau, mean in enumerate(loop_tail_means(h, cap.code.d_min)):
        q, e0 = tails[tau], cap.epsilon0(tau)
        lo = max(0, math.ceil(mean - w))
        hi = min(math.floor(mean + w), e0, n - tau)
        values[StrategyKind.EXACT].append(q[e0 + 1] if e0 >= 0 else Fraction(1))
        values[StrategyKind.HOEFFDING].append(1 - (q[lo] - q[hi + 1]) if hi >= lo else Fraction(1))
        if e0 < 0:
            values[StrategyKind.EPS0].append(Fraction(1))
        elif mean > e0:
            values[StrategyKind.EPS0].append(1 - (q[e0] - q[e0 + 1]))
        else:
            values[StrategyKind.EPS0].append(q[e0 + 1] - q[e0 + 2])
    return values


def rel_close(got, want, rel=1e-12):
    return abs(got - float(want)) <= rel * float(want)


@pytest.fixture(scope="module")
def rational_cases():
    """Sorted vectors of 14 unreliabilities (RS(16;14,6)) spread from 1e-12 to
    1e-1, so that P(tau) spans many decades below 1e-16, with their exact
    tail masses."""
    rng = np.random.default_rng(11)
    vectors = np.sort(10.0 ** rng.uniform(-12, -1, (60, 14)), axis=1)[:, ::-1]
    return vectors, [rational_tails(h) for h in vectors]


@pytest.mark.parametrize("decoder", [DecoderKind.BMD, DecoderKind.GS], ids=["bmd", "gs"])
def test_residual_probabilities_match_exact_rationals(rational_cases, decoder):
    """Every P(tau) read (p_profile, batch_residual_probs and the sum of the
    pgf coefficients beyond eps0) is within 1e-12 relative of exact rational
    enumeration, down to P far below 1e-30, where 1 - head rounds to 0."""
    vectors, tails = rational_cases
    cap = DecoderCapability(decoder, CodeParams(GF(4), 14, 6))
    smallest = 1.0
    for tau in range(cap.code.d_min):
        e0 = cap.epsilon0(tau)
        want = [t[tau][e0 + 1] for t in tails]
        smallest = min(smallest, float(min(want)))
        batch = batch_residual_probs(vectors, tau, e0)
        for h, got, p in zip(vectors, batch, want):
            assert rel_close(got, p)
            assert rel_close(residual_error_prob(pgf_distribution(h, tau), e0), p)
    for h, t in zip(vectors, tails):
        profile = p_profile(h, cap)
        for tau in range(cap.code.d_min):
            assert rel_close(profile[tau], t[tau][cap.epsilon0(tau) + 1])
    assert smallest < 1e-30


@pytest.mark.parametrize("decoder", [DecoderKind.BMD, DecoderKind.GS], ids=["bmd", "gs"])
def test_choosers_match_rational_argmin_where_head_sums_fail(rational_cases, decoder):
    """Each chooser picks the first minimum of its exact rational values and
    predicts it to 1e-12 relative, on vectors where the exact chooser built
    on 1 - head picks another tau; those vectors are counted, so they occur."""
    vectors, tails = rational_cases
    cap = DecoderCapability(decoder, CodeParams(GF(4), 14, 6))
    head_wrong = 0
    for h, t in zip(vectors, tails):
        values = rational_strategy_values(h, t, cap)
        for kind in StrategyKind:
            best = min(values[kind])
            res = choose_tau(h, cap, kind)
            assert res.tau_chosen == values[kind].index(best)
            assert rel_close(res.predicted_p, best)
        head_wrong += loop_tau_star_exact(h, cap).tau_chosen != values[StrategyKind.EXACT].index(
            min(values[StrategyKind.EXACT])
        )
    assert head_wrong >= 10


@pytest.mark.parametrize(
    "m, n, k, qam, grid",
    [(4, 15, 7, 16, (5.0, 6.0, 7.0, 8.0, 9.0)), (8, 255, 144, 256, (15.5, 16.0, 16.5, 17.0))],
    ids=["15", "255"],
)
def test_vectorised_choosers_match_loop_reference(m, n, k, qam, grid):
    """The array expressions over tau against the per-tau loops they replaced
    (tests/scalar_strategy.py), on channel vectors where 1 - head is still
    accurate: the same tau and P within 1e-9 relative, and E{Y_tau} from one
    subtract.accumulate equal to the running subtraction bit for bit. The
    n = 255 points at 15.5 and 16 dB have Hoeffding windows starting above 0."""
    code = CodeParams(GF(m), n, k)
    cap = DecoderCapability(DecoderKind.BMD, code)
    window_above_zero = 0
    for db in grid:
        vecs = sample_unreliability_vectors(
            sigma_from_ebn0(db, qam, n, k), SquareQam(qam), n, 100, np.random.default_rng(7), "exact"
        )
        for h in vecs:
            means = _tau_sweep(h, cap)[3]
            assert np.array_equal(means, loop_tail_means(h, code.d_min))
            window_above_zero += means[0] > hoeffding_half_width(n)
            for kind in StrategyKind:
                got, want = choose_tau(h, cap, kind), LOOP_STRATEGIES[kind](h, cap)
                assert got.tau_chosen == want.tau_chosen
                assert abs(got.predicted_p - want.predicted_p) <= 1e-9 * want.predicted_p
    if n == 255:
        assert window_above_zero > 0


def block_of_vectors(n: int) -> np.ndarray:
    """A (rows, n) block of sorted unreliability vectors: channel-like and
    noisy ones, an all-zero row (every P(tau) ties at 0), rows that are
    zero past a few entries (ties from there on) and a constant row."""
    rng = np.random.default_rng(17)
    rows = [sorted_vec(rng, n, hi) for hi in (0.05, 0.3, 0.95) for _ in range(6)]
    rows += [np.sort(10.0 ** rng.uniform(-12, -1, n))[::-1] for _ in range(4)]
    rows.append(np.zeros(n))
    for nonzero in (1, 3, 5):
        h = np.zeros(n)
        h[:nonzero] = sorted_vec(rng, nonzero, 0.5)
        rows.append(h)
    rows.append(np.full(n, 0.25))
    return np.array(rows)


def block_capabilities(code):
    """BMD, GS and IRS(3) for the code, and a capability table with
    eps0 = -1 entries, which no closed form gives below d_min, so a
    stand-in carries it (the choosers read only the table)."""
    table = DecoderCapability(DecoderKind.BMD, code).epsilon0_table.copy()
    table[::3] = -1
    return [DecoderCapability(DecoderKind.BMD, code), DecoderCapability(DecoderKind.GS, code),
            DecoderCapability(DecoderKind.IRS, code, 3), SimpleNamespace(epsilon0_table=table)]


@pytest.mark.parametrize("m, n, k", [(4, 15, 7), (8, 255, 144)], ids=["15", "255"])
def test_choosers_on_a_block_match_per_row_calls(m, n, k):
    """Every chooser and p_profile on a (rows, n) block give, per row, the
    tau and P of the call on that row alone, bit for bit, ties included;
    a one-row block too. The block is a reversed view, as a row sort
    gives it, and E{Y_tau} per row equals the vector's bit for bit."""
    code = CodeParams(GF(m), n, k)
    block = np.ascontiguousarray(block_of_vectors(n)[:, ::-1])[:, ::-1]
    ties = 0
    for cap in block_capabilities(code):
        profile = p_profile(block, cap)
        assert profile.shape == (code.d_min, len(block))
        means = _tau_sweep(block, cap)[3]
        for j, h in enumerate(block):
            assert np.array_equal(profile[:, j], p_profile(h, cap))
            assert np.array_equal(means[:, j], _tau_sweep(h, cap)[3])
            ties += np.count_nonzero(profile[:, j] == profile[:, j].min()) > 1
        for kind in StrategyKind:
            got = choose_tau(block, cap, kind)
            assert got.strategy_kind is kind
            want = [choose_tau(h, cap, kind) for h in block]
            assert got.tau_chosen.tolist() == [w.tau_chosen for w in want]
            assert got.predicted_p.tolist() == [w.predicted_p for w in want]
            one = choose_tau(block[:1], cap, kind)
            assert (one.tau_chosen.tolist(), one.predicted_p.tolist()) == (
                [want[0].tau_chosen], [want[0].predicted_p])
    assert ties > 0


def test_pgf_distribution_on_a_block_matches_per_row_calls(cap15):
    """pgf_distribution on a block carries each row's tail masses in its
    column, and residual_error_prob returns each row's P."""
    block = block_of_vectors(15)
    for tau in range(cap15.code.d_min):
        dist = pgf_distribution(block, tau)
        rows = [pgf_distribution(h, tau) for h in block]
        assert np.array_equal(dist.tails, np.stack([r.tails for r in rows], axis=1))
        assert np.array_equal(dist.coeffs, np.stack([r.coeffs for r in rows], axis=1))
        for eps0 in (-1, 0, cap15.epsilon0(tau), 15):
            got = residual_error_prob(dist, eps0)
            assert got.tolist() == [residual_error_prob(r, eps0) for r in rows]


@pytest.mark.parametrize("bad", ["unsorted", "nan", "one"])
def test_check_sorted_rejects_one_bad_row(bad):
    """A block fails the check when any one row alone would."""
    block = block_of_vectors(15)
    check_sorted_unreliability(block)
    row = block[5]
    if bad == "unsorted":
        row[3], row[4] = row[4], row[3] + 0.01
    elif bad == "nan":
        row[7] = np.nan
    else:
        row[0] = 1.0
    with pytest.raises(ValueError):
        check_sorted_unreliability(row)
    with pytest.raises(ValueError):
        check_sorted_unreliability(block)
    with pytest.raises(ValueError):
        choose_tau(block, DecoderCapability(DecoderKind.BMD, CodeParams(GF(4), 15, 7)),
                   StrategyKind.EXACT)


def test_tail_coeffs_single_row_is_the_vector_with_a_rows_axis():
    """A (1, n) input gives the vector's tail masses with a rows axis of
    length 1 added last, equal to the column of that row in a larger block."""
    block = block_of_vectors(255)[:3]
    for width, lo, hi in ((59, 0, 111), (257, 0, 0), (4, 200, 255)):
        want = tail_coeffs(block[0], width, lo, hi)
        got = tail_coeffs(block[:1], width, lo, hi)
        assert got.shape == want.shape + (1,)
        assert np.array_equal(got, want[..., None])
        assert np.array_equal(got[..., 0], tail_coeffs(block, width, lo, hi)[..., 0])

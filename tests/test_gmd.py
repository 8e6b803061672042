from collections import Counter

import numpy as np
import pytest

from erasurelab.gf import GF
from erasurelab.gmd import default_schedule, gmd_decode
from erasurelab.modem import SquareQam, awgn, sigma_from_ebn0, unreliability_exact
from erasurelab.rs import CodeParams, ReceivedWord, RSCodec, erase_most_unreliable, erasure_order
from scalar_rs import ScalarRSCodec


@pytest.fixture(scope="module")
def code():
    return CodeParams(GF(4), 15, 7)


@pytest.fixture(scope="module")
def codec(code):
    return RSCodec(code)


def test_default_schedule_even_dmin():
    # d_min = 8: trials at 1, 3, 5, 7
    assert default_schedule(8) == [1, 3, 5, 7]


def test_default_schedule_odd_dmin():
    # d_min = 9: trials at 0, 2, 4, 6, 8
    assert default_schedule(9) == [0, 2, 4, 6, 8]
    assert len(default_schedule(9)) == 5


def test_gmd_recovers_within_half_distance(codec, code):
    """Few errors with matching high unreliabilities: GMD must recover."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        info = rng.integers(0, code.q, size=code.k).tolist()
        cw = codec.encode(info)
        word = list(cw)
        h = rng.uniform(0.0, 0.1, code.n)
        n_err = int(rng.integers(0, (code.d_min - 1) // 2 + 1))
        pos = rng.permutation(code.n)[:n_err]
        for i in pos:
            word[i] ^= int(rng.integers(1, code.q))
            h[i] = rng.uniform(0.6, 0.99)
        out = gmd_decode(ReceivedWord(word, h), codec)
        assert out == cw


def test_gmd_beats_errors_only_with_reliable_flags(codec, code):
    """d_min - 1 errors, all flagged unreliable: errors-only fails, GMD wins."""
    rng = np.random.default_rng(1)
    wins = 0
    trials = 50
    for _ in range(trials):
        cw = codec.encode(rng.integers(0, code.q, size=code.k).tolist())
        word = list(cw)
        h = rng.uniform(0.0, 0.05, code.n)
        pos = rng.permutation(code.n)[: code.d_min - 1]
        for i in pos:
            word[i] ^= int(rng.integers(1, code.q))
            h[i] = rng.uniform(0.9, 0.99)
        eo = codec.decode_ee(ReceivedWord(word, h))
        assert eo != cw  # 8 errors exceed the errors-only radius
        out = gmd_decode(ReceivedWord(word, h), codec)
        wins += out == cw
    assert wins == trials


def test_gmd_output_is_codeword_or_none(codec, code):
    """Garbage input: with the full schedule the n-k erasure trial always
    completes to some codeword (MDS); trials with only 0 or 2 erasures
    fail on some words. Either way, any output is a valid codeword."""
    rng = np.random.default_rng(2)
    nones_short = 0
    for _ in range(30):
        word = rng.integers(0, code.q, size=code.n).tolist()
        h = rng.uniform(0.4, 0.6, code.n)
        out = gmd_decode(ReceivedWord(word, h), codec)
        assert out is not None and codec.is_codeword(out)
        for trial in codec.erasure_trials(word, erasure_order(h), [0, 2]):
            short = codec.decode_ee(trial)
            if short is None:
                nones_short += 1
            else:
                assert codec.is_codeword(short)
    assert nones_short > 0


def test_gmd_candidate_selection_channel(codec, code):
    """Over an actual channel GMD does at least as well as errors-only."""
    rng = np.random.default_rng(3)
    qam = SquareQam(code.q)
    sigma = sigma_from_ebn0(7.0, code.q, code.n, code.k)
    gmd_err = eo_err = 0
    for _ in range(400):
        cw = codec.encode(rng.integers(0, code.q, size=code.k).tolist())
        y = awgn(qam.modulate(cw), sigma, rng)
        r = qam.hard_decision(y).tolist()
        h = unreliability_exact(y, qam, sigma)
        eo_err += codec.decode_ee(ReceivedWord(r, h)) != cw
        gmd_err += gmd_decode(ReceivedWord(r, h), codec) != cw
    assert gmd_err <= eo_err


def reference_gmd(word, ref, taus, outcomes):
    """The trial loop that gmd_decode replaced, on the scalar codec: each
    trial of the erasure counts `taus` erases afresh with
    erase_most_unreliable. Counts failed (True) and successful (False)
    trials in `outcomes`, and as "tie" each new candidate whose score
    equals the best one so far, which the smaller erasure count wins."""
    h = word.unreliability
    symbols = word.symbols
    best = None
    best_score = -1.0
    seen = set()
    for tau in taus:
        cand = ref.decode_ee(erase_most_unreliable(symbols, h, tau))
        outcomes[cand is None] += 1
        if cand is None:
            continue
        key = tuple(cand)
        if key in seen:
            continue
        seen.add(key)
        score = float(
            sum((1.0 - h[i]) for i, ci in enumerate(cand) if symbols[i] == ci)
        )
        outcomes["tie"] += score == best_score
        if score > best_score:
            best_score = score
            best = cand
    return best


def gmd_test_words(code, codec, dbs, frames, garbage, rng):
    """Channel frames over the Eb/N0 values `dbs` and random words, each as
    it is, with h rounded to 2 decimals (ties), with h all zero, and with 3
    symbols already erased."""
    qam = SquareQam(code.q)
    words = []
    for f in range(frames):
        sigma = sigma_from_ebn0(dbs[f % len(dbs)], code.q, code.n, code.k)
        cw = codec.encode(rng.integers(0, code.q, size=code.k).tolist())
        y = awgn(qam.modulate(cw), sigma, rng)
        words.append((qam.hard_decision(y).tolist(), unreliability_exact(y, qam, sigma)))
    for _ in range(garbage):
        words.append((rng.integers(0, code.q, size=code.n).tolist(), rng.uniform(0, 0.99, code.n)))
    for r, h in words:
        yield r, h
        yield r, np.minimum(np.round(h, 2), 0.99)
        yield r, np.zeros(code.n)
        erased = list(r)
        for i in rng.choice(code.n, 3, replace=False):
            erased[i] = None
        yield erased, h


#: codes and gmd_test_words arguments: RS(16;15,7), and RS(256;255,k) on
#: both sides of rs.ROW_BM_MIN_CHECKS
GMD_CASES = [
    (4, 15, 7, (6.0, 7.0, 8.0, 9.0), 500, 40),
    (8, 255, 144, (15.0, 16.0), 4, 1),
    (8, 255, 223, (18.5, 19.5), 2, 1),
    (8, 255, 191, (17.5, 18.5), 2, 1),
]


@pytest.mark.parametrize("m, n, k, dbs, frames, garbage", GMD_CASES)
def test_gmd_matches_per_trial_erasure(m, n, k, dbs, frames, garbage):
    """Nested erasure sets built by one erasure_trials call give the
    codeword of the per-trial erase_most_unreliable loop on the scalar
    codec, ties and prior erasures included, also where a prior erasure
    recurs in the sorted prefix that the trials erase. RS(256;255,223) and
    RS(256;255,191) lie on the two sides of rs.ROW_BM_MIN_CHECKS:
    solve_locators solves the first's trials by the scalar steps, the
    second's in one row-batched pass. Distinct candidates tie on
    score on RS(16;15,7) and RS(256;255,144), and the smaller erasure
    count must win; the tie that gmd_decode's probe of the middle trial
    meets first is test_score_tie_goes_to_smaller_tau_found_after_the_probe."""
    code = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(code), ScalarRSCodec(code)
    taus = list(range((code.d_min - 1) % 2, code.d_min, 2))
    assert default_schedule(code.d_min) == taus
    outcomes = Counter()
    recurring = 0
    for r, h in gmd_test_words(code, codec, dbs, frames, garbage, np.random.default_rng(11)):
        want = reference_gmd(ReceivedWord(r, h), ref, taus, outcomes)
        assert gmd_decode(ReceivedWord(r, h), codec) == want
        prefix = np.argsort(-h, kind="stable")[: code.d_min - 1]
        recurring += any(r[i] is None for i in prefix)
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert recurring > 0
    if n - k in (8, 111):
        # the 12 words of each other code give one or two candidates
        # apiece, and none tie
        assert outcomes["tie"] > 0


def radius_holds(trial, cand, nsyn):
    """The BMD radius rule: 2 |{i not erased : y_i != c_i}| + |X| <= n - k
    for the trial with erased set X."""
    erased = set(trial.erased)
    wrong = sum(1 for i, (yi, ci) in enumerate(zip(trial.y.tolist(), cand)) if yi != ci and i not in erased)
    return 2 * wrong + len(erased) <= nsyn


@pytest.mark.parametrize("m, n, k, dbs, frames, garbage", GMD_CASES)
def test_skip_rule_matches_decoding_every_trial(m, n, k, dbs, frames, garbage):
    """Every schedule trial of the words of
    test_gmd_matches_per_trial_erasure, decoded: a trial returns a
    candidate c exactly when the radius rule holds for it against c. So a
    trial returns an already-found candidate exactly when the rule holds
    for it against that candidate, and then it returns that very
    candidate, which makes gmd_decode's skipping exact; and the first
    trial whose rule holds is the one that finds c."""
    code = CodeParams(GF(m), n, k)
    codec, nsyn = RSCodec(code), n - k
    cases = Counter()
    for r, h in gmd_test_words(code, codec, dbs, frames, garbage, np.random.default_rng(11)):
        trials = codec.erasure_trials(r, erasure_order(h), default_schedule(code.d_min))
        outs = [codec.decode_ee(t) for t in trials]
        found = {tuple(out) for out in outs if out is not None}
        for c in found:
            holds = [radius_holds(t, c, nsyn) for t in trials]
            assert holds == [out == list(c) for out in outs]
            # the trials after the first that return c: gmd_decode skips them
            cases["settled"] += sum(holds) - 1
        cases["new"] += len(found)
        cases["failed"] += outs.count(None)
    assert cases["new"] > 0 and cases["failed"] > 0
    if k != 144:
        # at 15-16 dB each RS(256;255,144) candidate comes from one trial
        assert cases["settled"] > 0


def test_score_tie_goes_to_smaller_tau_found_after_the_probe(codec, code):
    """Two codewords A and B at distance d_min = 9 tie on score; the trial
    at tau = 2 returns A and the middle trial, tau = 4, returns B, which
    the probe finds first. GMD must return A."""
    assert default_schedule(code.d_min) == [0, 2, 4, 6, 8]
    # B - A: one information symbol and the 8 checks, weight d_min = 9
    b = codec.encode([1] + [0] * (code.k - 1))
    s = [i for i, bi in enumerate(b) if bi]
    assert len(s) == 9
    a = [0] * code.n
    # y agrees with B at s[0] and s[4..6], with A at s[2, 3, 7, 8] and
    # everywhere off the support, and with neither at s[1]
    y = [0] * code.n
    for i in [s[0]] + s[4:7]:
        y[i] = b[i]
    y[s[1]] = b[s[1]] ^ 1 or 2
    # erasure order s[0], s[1], ...; in 64ths, so that every score is
    # exact, the h where only A agrees with y and the h where only B does
    # both sum to 144/64
    h = np.zeros(code.n)
    h[s] = np.array([60, 56, 52, 48, 32, 28, 24, 23, 21]) / 64
    trials = codec.erasure_trials(y, erasure_order(h), default_schedule(code.d_min))
    outs = [codec.decode_ee(t) for t in trials]
    assert outs[1] == a and outs[2] == b
    score = [sum(1.0 - hi for hi, yi, ci in zip(h, y, c) if yi == ci) for c in (a, b)]
    assert score[0] == score[1]
    assert gmd_decode(ReceivedWord(y, h), codec) == a


def test_decoders_leave_the_word_untouched(codec, code):
    """gmd_decode and decode_ee read the caller's symbols and unreliability
    and change neither."""
    for r, h in gmd_test_words(code, codec, (7.0,), 20, 2, np.random.default_rng(12)):
        word = ReceivedWord(r, h)
        symbols, unreliability = list(r), word.unreliability.copy()
        gmd_decode(word, codec)
        codec.decode_ee(word)
        assert word.symbols is r and r == symbols
        assert np.array_equal(word.unreliability, unreliability)

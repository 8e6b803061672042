import tracemalloc
from collections import Counter

import numpy as np
import pytest

from erasurelab import gmd
from erasurelab.gf import GF
from erasurelab.gmd import default_schedule, gmd_decode, trial_sequences
from erasurelab.modem import SquareQam, awgn, sigma_from_ebn0, unreliability_exact
from erasurelab.rs import CodeError, CodeParams, ReceivedWord, RSCodec, erase_most_unreliable, erasure_order
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
    ref = ScalarRSCodec(code)
    rng = np.random.default_rng(2)
    nones_short = 0
    for _ in range(30):
        word = rng.integers(0, code.q, size=code.n).tolist()
        h = rng.uniform(0.4, 0.6, code.n)
        out = gmd_decode(ReceivedWord(word, h), codec)
        assert out is not None and ref.is_codeword(out)
        for tau in (0, 2):
            short = codec.decode_ee(erase_most_unreliable(word, h, tau))
            if short is None:
                nones_short += 1
            else:
                assert ref.is_codeword(short)
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
#: both sides of rs.ROW_BM_MIN_WORK for a full schedule
GMD_CASES = [
    (4, 15, 7, (6.0, 7.0, 8.0, 9.0), 500, 40),
    (8, 255, 144, (15.0, 16.0), 4, 1),
    (8, 255, 223, (18.5, 19.5), 2, 1),
    (8, 255, 191, (17.5, 18.5), 2, 1),
]


def tie_word(codec, code):
    """At RS(16;15,7): two codewords A and B at distance d_min = 9 tie on
    score; the trial at tau = 2 returns A and the middle trial, tau = 4,
    returns B, which GMD's probe finds first. Returns (y, h, A, B)."""
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
    return y, h, a, b


@pytest.mark.parametrize("m, n, k, dbs, frames, garbage", GMD_CASES)
def test_gmd_matches_per_trial_erasure(m, n, k, dbs, frames, garbage, monkeypatch):
    """Nested erasure sets built by one erasure_trial_rows pass give the
    codeword of the per-trial erase_most_unreliable loop on the scalar
    codec, ties and prior erasures included, also where a prior erasure
    recurs in the sorted prefix that the trials erase. RS(256;255,223) and
    RS(256;255,191) lie on the two sides of rs.ROW_BM_MIN_WORK for a full
    schedule: locator_rows solves the first's trials by the scalar steps,
    the second's in one row-batched pass when enough are left. Distinct candidates tie on
    score on RS(16;15,7) and RS(256;255,144), and the smaller erasure
    count must win; the tie that gmd_decode's probe of the middle trial
    meets first is test_score_tie_goes_to_smaller_tau_found_after_the_probe,
    whose word sits fourth among the RS(16;15,7) words here.

    The words decoded as blocks of 1, 5, 6 and 7 and all at once give the
    same codewords: rounds of fewer than rs.ROW_DECODE_MIN_WORDS trials
    and of more, among words with input erasures, words that decode every
    trial and, at RS(16;15,7), words that settle at the probe."""
    code = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(code), ScalarRSCodec(code)
    taus = list(range((code.d_min - 1) % 2, code.d_min, 2))
    assert default_schedule(code.d_min) == taus
    words = [ReceivedWord(r, h) for r, h in gmd_test_words(code, codec, dbs, frames, garbage,
                                                            np.random.default_rng(11))]
    if n == 15:
        y, h, a, _ = tie_word(codec, code)
        words.insert(3, ReceivedWord(y, h))
    decode_ee = codec.decode_ee
    decoded = []  # the trials each word decodes alone
    monkeypatch.setattr(codec, "decode_ee", lambda w: decoded.append(len(w.taus)) or decode_ee(w))
    outcomes = Counter()
    wants, trials = [], Counter()
    recurring = 0
    for word in words:
        want = reference_gmd(word, ref, taus, outcomes)
        decoded.clear()
        assert gmd_decode(word, codec) == want
        wants.append(want)
        trials[sum(decoded)] += 1
        prefix = np.argsort(-word.unreliability, kind="stable")[: code.d_min - 1]
        recurring += any(word.symbols[i] is None for i in prefix)
    if n == 15:
        assert wants[3] == a
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert recurring > 0
    # at 15-16 dB every RS(256;255,144) word decodes every trial
    assert trials[len(taus)] > 0 and (n != 15 or trials[1] > 0), trials
    if n - k in (8, 111):
        # the 12 words of each other code give one or two candidates
        # apiece, and none tie
        assert outcomes["tie"] > 0
    for size in (1, 5, 6, 7, len(words)):
        got = [c for lo in range(0, len(words), size) for c in gmd_decode(words[lo : lo + size], codec)]
        assert got == wants, size
    assert gmd_decode([], codec) == []


def test_trial_rows_match_each_words_trials():
    """The trials of a block from one erasure_trial_rows pass over the
    erasure sequences of trial_sequences are those of each word alone
    under default_schedule, trial for trial: the erased positions, those
    of its erase_most_unreliable word, in the order erased (the input
    erasures in position order, then the others from the most to the
    least unreliable, each once), and the S(y) and Gamma/T buffers of a
    one-word pass over them; words with input erasures, with ties in h and
    a recurring input erasure among them. A block with a word of the wrong
    length, or with a symbol outside the field, is a CodeError."""
    for m, n, k, dbs, frames, garbage in GMD_CASES[:2]:
        code = CodeParams(GF(m), n, k)
        codec = code.codec
        schedule = default_schedule(code.d_min)
        words = [ReceivedWord(r, h) for r, h in gmd_test_words(code, codec, dbs, min(frames, 30), garbage,
                                                                np.random.default_rng(13))]
        y = np.array([[0 if s is None else s for s in word.symbols] for word in words])
        h = np.array([word.unreliability for word in words])
        known, sequences, sizes = trial_sequences(y, h, np.equal([word.symbols for word in words], None),
                                                  code.d_min)
        synd, polys = codec.erasure_trial_rows(y, sequences, sizes)
        inputs = recurring = 0
        for r, (word, known_r) in enumerate(zip(words, known.tolist())):
            assert sizes.shape[1] == len(schedule)
            first = [i for i, s in enumerate(word.symbols) if s is None]
            order = erasure_order(word.unreliability)
            for j, tau in enumerate(schedule):
                erased = list(dict.fromkeys(first + order[:tau]))
                trial = erase_most_unreliable(word.symbols, word.unreliability, tau)
                assert sorted(erased) == [i for i, s in enumerate(trial.symbols) if s is None]
                assert sequences[r, : sizes[r, j]].tolist() == erased
            alone = codec.erasure_trial_rows(y[r : r + 1], sequences[r : r + 1], sizes[r : r + 1])
            assert np.array_equal(synd[r], alone[0][0]) and np.array_equal(polys[r], alone[1][0])
            assert known_r == [-1 if s is None else s for s in word.symbols]
            inputs += bool(first)
            recurring += bool(set(first) & set(order[: schedule[-1]]))
        assert inputs > 0 and recurring > 0
        bad = list(words[0].symbols)
        bad[1] = code.q
        for block in ([words[0], ReceivedWord(bad, words[0].unreliability)],
                      [words[0], ReceivedWord(bad[:-1], words[0].unreliability[:-1])]):
            with pytest.raises(CodeError):
                gmd_decode(block, codec)


def test_gmd_block_peak_stays_bounded():
    """One 256-frame RS(256;255,144) block at 16.5 dB decodes with a traced
    peak of at most 16 MB (it measures 10.3): gmd_decode takes it in
    chunks of frames whose trial buffers hold gmd.TRIAL_ENTRIES entries,
    where one chunk of all 256 frames peaks at 56 MB."""
    code = CodeParams(GF(8), 255, 144)
    codec, qam = code.codec, SquareQam(code.q)
    sigma = sigma_from_ebn0(16.5, code.q, code.n, code.k)
    rng = np.random.default_rng(17)
    sent = codec.encode(rng.integers(0, code.q, (256, code.k)))
    words = []
    for cw in sent:
        y = awgn(qam.modulate(cw), sigma, rng)
        words.append(ReceivedWord(qam.hard_decision(y).tolist(), unreliability_exact(y, qam, sigma)))
    tracemalloc.start()
    try:
        out = gmd_decode(words, codec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak
    assert 0 < sum(o == cw for o, cw in zip(out, sent)) < 256


@pytest.mark.parametrize("m, n, k, dbs, frames, garbage", [GMD_CASES[0], (8, 255, 144, (15.0, 16.0), 2, 1)])
def test_array_entry_matches_words_and_reference(m, n, k, dbs, frames, garbage, monkeypatch):
    """gmd_decode of (rows, n) symbols and unreliabilities gives the
    codewords of reference_gmd, the per-trial loop on the scalar codec, and
    of the same words as ReceivedWords: words with ties in h, h all zero
    and garbage, and at RS(16;15,7) the score tie of tie_word; in blocks of
    1, 5, 6 and 7 rows and all at once, and in chunks of 3 frames
    (gmd.TRIAL_ENTRIES made small), where the words with input erasures
    (None) go as ReceivedWords."""
    code = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(code), ScalarRSCodec(code)
    taus = default_schedule(code.d_min)
    words = [ReceivedWord(r, h) for r, h in gmd_test_words(code, codec, dbs, frames, garbage,
                                                            np.random.default_rng(19))]
    if n == 15:
        y, h, a, _ = tie_word(codec, code)
        words.insert(2, ReceivedWord(y, h))
    outcomes = Counter()
    want = [reference_gmd(word, ref, taus, outcomes) for word in words]
    assert n != 15 or (want[2] == a and outcomes["tie"] > 0)
    whole = [w for w in words if None not in w.symbols]
    y, h = np.array([w.symbols for w in whole]), np.array([w.unreliability for w in whole])
    want_whole = [c for w, c in zip(words, want) if None not in w.symbols]
    assert len(whole) < len(words)
    for size in (1, 5, 6, 7, len(y)):
        got = [c for lo in range(0, len(y), size)
               for c in gmd_decode(y[lo : lo + size], codec, h[lo : lo + size])]
        assert got == want_whole, size
    assert gmd_decode(whole, codec) == want_whole
    monkeypatch.setattr(gmd, "TRIAL_ENTRIES", 3 * len(taus) * (2 * (n - k) + 4))
    assert gmd_decode(y, codec, h) == want_whole
    assert gmd_decode(words, codec) == want


@pytest.mark.parametrize("y, h", [
    (np.zeros((2, 14), dtype=int), np.zeros((2, 15))),  # shapes differ
    (np.zeros((1, 15), dtype=int), np.zeros((2, 15))),
    (np.zeros(15, dtype=int), np.zeros(15)),  # not a block
    (np.full((2, 15), 16), np.zeros((2, 15))),  # a symbol past q - 1
    (np.full((2, 15), -1), np.zeros((2, 15))),
    (np.full((2, 15), 1.0), np.zeros((2, 15))),  # not integers
    (np.zeros((2, 15), dtype=int), np.full((2, 15), np.nan)),
    (np.zeros((2, 15), dtype=int), np.full((2, 15), -0.1)),
    (np.zeros((2, 15), dtype=int), np.full((2, 15), 1.0)),
], ids=["columns", "rows", "one-word", "symbol-q", "symbol-negative", "symbol-float", "h-nan", "h-negative",
        "h-one"])
def test_array_entry_rejects_bad_blocks(codec, y, h):
    """The array entry takes (rows, n) integer symbols in [0, q) and
    unreliabilities in [0, 1) of the same shape, and anything else is a
    CodeError before any decoding; a clean block decodes to itself."""
    with pytest.raises(CodeError):
        gmd_decode(y, codec, h)
    assert gmd_decode(np.zeros((2, 15), dtype=np.uint8), codec, np.zeros((2, 15))) == [[0] * 15] * 2


def test_gmd_short_block_peak_stays_bounded(code, codec):
    """One 256-frame RS(16;15,7) block at 9 dB decodes from its arrays with
    a traced peak under 0.9 MB (it measures 0.66; the same block as
    ReceivedWords took 1.05 MB when each trial was a word object of its
    own)."""
    qam, rng = SquareQam(code.q), np.random.default_rng(23)
    sigma = sigma_from_ebn0(9.0, code.q, code.n, code.k)
    sent = codec.encode(rng.integers(0, code.q, (256, code.k)))
    points = awgn(qam.modulate(sent), sigma, rng).reshape(-1, 2)
    y = qam.hard_decision(points).reshape(256, code.n)
    h = unreliability_exact(points, qam, sigma).reshape(256, code.n)
    tracemalloc.start()
    try:
        out = gmd_decode(y, codec, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2**20, peak
    assert 200 < sum(o == cw for o, cw in zip(out, sent)) < 256


def radius_holds(symbols, erased, cand, nsyn):
    """The BMD radius rule: 2 |{i not erased : y_i != c_i}| + |X| <= n - k
    for the trial of the word `symbols` with erased set X, `erased`."""
    erased = set(erased)
    wrong = sum(1 for i, (yi, ci) in enumerate(zip(symbols, cand)) if yi != ci and i not in erased)
    return 2 * wrong + len(erased) <= nsyn


@pytest.mark.parametrize("m, n, k, dbs, frames, garbage", GMD_CASES)
def test_skip_rule_matches_decoding_every_trial(m, n, k, dbs, frames, garbage, monkeypatch):
    """Every schedule trial of the words of
    test_gmd_matches_per_trial_erasure, decoded: a trial returns a
    candidate c exactly when the radius rule holds for it against c. So a
    trial returns an already-found candidate exactly when the rule holds
    for it against that candidate, and then it returns that very
    candidate, which makes gmd_decode's skipping exact; and the first
    trial whose rule holds is the one that finds c.

    gmd_decode decodes the middle trial and then, in schedule order, each
    trial that returns no candidate found before it, and no other: word
    by word, and in one block of all the words the same number."""
    code = CodeParams(GF(m), n, k)
    codec, nsyn = RSCodec(code), n - k
    decode_ee = codec.decode_ee
    decoded = []  # the erased positions of each trial decoded, a row of a block
    monkeypatch.setattr(codec, "decode_ee", lambda w: decoded.extend(
        w.order[r, :tau].tolist() for r, tau in enumerate(w.taus.tolist())) or decode_ee(w))
    cases = Counter()
    words, expected = [], 0
    for r, h in gmd_test_words(code, codec, dbs, frames, garbage, np.random.default_rng(11)):
        # each trial's erased positions in the order GMD erases them: the
        # input erasures in position order, then the prefix of erasure_order
        inputs, order = [i for i, s in enumerate(r) if s is None], erasure_order(h)
        schedule = default_schedule(code.d_min)
        trials = [list(dict.fromkeys(inputs + order[:tau])) for tau in schedule]
        outs = [decode_ee(erase_most_unreliable(r, h, tau)) for tau in schedule]
        found = {tuple(out) for out in outs if out is not None}
        for c in found:
            holds = [radius_holds(r, t, c, nsyn) for t in trials]
            assert holds == [out == list(c) for out in outs]
            # the trials after the first that return c: gmd_decode skips them
            cases["settled"] += sum(holds) - 1
        cases["new"] += len(found)
        cases["failed"] += outs.count(None)
        mid = len(trials) // 2
        want = []
        for j in [mid] + [j for j in range(len(trials)) if j != mid]:
            if outs[j] is None or all(outs[i] != outs[j] for i in want):
                want.append(j)
        decoded.clear()
        gmd_decode(ReceivedWord(r, h), codec)
        assert decoded == [trials[j] for j in want]
        words.append(ReceivedWord(r, h))
        expected += len(want)
    assert cases["new"] > 0 and cases["failed"] > 0
    if k != 144:
        # at 15-16 dB each RS(256;255,144) candidate comes from one trial
        assert cases["settled"] > 0
    decoded.clear()
    gmd_decode(words, codec)
    assert len(decoded) == expected


def test_score_tie_goes_to_smaller_tau_found_after_the_probe(codec, code):
    """Two codewords A and B at distance d_min = 9 tie on score; the trial
    at tau = 2 returns A and the middle trial, tau = 4, returns B, which
    the probe finds first. GMD must return A."""
    assert default_schedule(code.d_min) == [0, 2, 4, 6, 8]
    y, h, a, b = tie_word(codec, code)
    outs = [codec.decode_ee(erase_most_unreliable(y, h, tau)) for tau in default_schedule(code.d_min)]
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

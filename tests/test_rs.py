from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from erasurelab.gf import GF
from erasurelab.rs import (
    ROW_BM_MIN_CHECKS,
    CodeError,
    CodeParams,
    ReceivedWord,
    RSCodec,
    erase_most_unreliable,
)
from erasurelab.gmd import gmd_decode
from scalar_rs import ScalarRSCodec, alpha_pow, poly_eval, scalar_poly_mul


@pytest.fixture(scope="module")
def small():
    return CodeParams(GF(4), 15, 7)


@pytest.fixture(scope="module")
def codec(small):
    return RSCodec(small)


@pytest.fixture(scope="module")
def big_codec():
    return RSCodec(CodeParams(GF(8), 255, 144))


def corrupt(cw, rng, n_errors, n_erasures, q):
    """Random distinct error and erasure positions; errors change the symbol."""
    n = len(cw)
    pos = rng.permutation(n)[: n_errors + n_erasures]
    out = list(cw)
    for i in pos[:n_errors]:
        out[i] ^= int(rng.integers(1, q))
    for i in pos[n_errors:]:
        out[i] = None
    return out


def test_params_validation():
    gf = GF(4)
    assert CodeParams(gf, 15, 7).d_min == 9
    with pytest.raises(CodeError):
        CodeParams(gf, 16, 7)  # n > q - 1
    with pytest.raises(CodeError):
        CodeParams(gf, 15, 15)


@pytest.mark.parametrize("n, k", [(15.0, 7), (15, 7.0), (np.float64(15), 7), (15, True)],
                         ids=["float-n", "float-k", "np-float-n", "bool-k"])
def test_params_reject_non_integers(n, k):
    """A non-integer or bool length or dimension fails when the code is
    built, not later inside RSCodec's slices and tables."""
    with pytest.raises(CodeError, match="must be an integer"):
        CodeParams(GF(4), n, k)
    assert CodeParams(GF(4), np.int64(15), np.int8(7)).d_min == 9


def test_codec_is_built_once_per_code():
    """CodeParams.codec is one codec per code; a copy builds its own, with
    the same tables."""
    code = CodeParams(GF(4), 15, 7)
    assert isinstance(code.codec, RSCodec)
    assert code.codec is code.codec
    assert code.codec.params is code
    copy = replace(code)
    assert copy == code and copy.codec is not code.codec
    assert np.array_equal(copy.codec._parity_logs, code.codec._parity_logs)


def test_codec_and_field_tables_are_read_only(small):
    """Every campaign on a code shares its codec's and field's tables, so
    none of them takes a write."""
    codec, gf = small.codec, small.gf
    tables = [codec._parity_logs, codec._syndrome_logs, codec._chien_logs, codec._forney_logs,
              gf.log_table, gf.exp_table]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
        with pytest.raises(ValueError, match="read-only"):
            table += 0


@pytest.mark.parametrize("which", ["codec", "big_codec"])
def test_parity_rows_match_long_division(which, request):
    """Each row of the parity matrix, the codeword of a unit info word, is
    the one the scalar codec's long division by g(x) gives."""
    codec = request.getfixturevalue(which)
    ref = ScalarRSCodec(codec.params)
    k = codec.params.k
    for i in range(k):
        unit = [0] * k
        unit[i] = 1
        assert codec.encode(unit) == ref.encode(unit), i


def test_received_word_validation():
    with pytest.raises(CodeError):
        ReceivedWord([1, 2], np.array([0.1]))
    for bad in (1.0, np.nan, np.inf, -np.inf, -0.1):
        with pytest.raises(CodeError, match="must be finite and lie in"):
            ReceivedWord([1, 2], np.array([0.1, bad]))
    w = ReceivedWord([1, None, 3], np.array([0.1, 0.9, 0.0]))
    assert sum(s is None for s in w.symbols) == 1


def test_erase_most_unreliable_stable():
    h = np.array([0.5, 0.9, 0.5, 0.1])
    w = erase_most_unreliable([1, 2, 3, 4], h, 2)
    # 0.9 first, then the earlier of the tied 0.5 entries
    assert w.symbols == [None, None, 3, 4]
    assert erase_most_unreliable([1, 2, 3, 4], h, 0).symbols == [1, 2, 3, 4]


def test_encode_systematic_and_valid(codec, small):
    rng = np.random.default_rng(0)
    for _ in range(20):
        info = rng.integers(0, small.q, size=small.k).tolist()
        cw = codec.encode(info)
        assert cw[: small.k] == info
        assert len(cw) == small.n
        (trial,) = codec.erasure_trials(cw)
        assert trial.synd.tolist() == [0] * (small.n - small.k)


def test_encode_generator_roots(codec, small):
    # every codeword polynomial vanishes at alpha^1 .. alpha^(n-k)
    gf = small.gf
    cw = codec.encode(list(range(1, small.k + 1)))
    coeffs = list(reversed(cw))
    for j in range(1, small.n - small.k + 1):
        assert poly_eval(gf, coeffs, alpha_pow(gf, j)) == 0


def test_decode_clean_word(codec, small):
    cw = codec.encode([5] * small.k)
    assert codec.decode_ee(ReceivedWord(list(cw), np.zeros(small.n))) == cw


def test_decode_within_radius_random(codec, small):
    """2*eps + tau <= d_min - 1 must always be recovered."""
    rng = np.random.default_rng(42)
    d = small.d_min
    for trial in range(400):
        info = rng.integers(0, small.q, size=small.k).tolist()
        cw = codec.encode(info)
        tau = int(rng.integers(0, d))
        eps = int(rng.integers(0, (d - 1 - tau) // 2 + 1))
        word = corrupt(cw, rng, eps, tau, small.q)
        h = rng.uniform(0, 1, small.n) * 0.99
        assert codec.decode_ee(ReceivedWord(word, h)) == cw, (trial, eps, tau)


def test_decode_erasures_only_up_to_dmin_minus_1(codec, small):
    rng = np.random.default_rng(7)
    cw = codec.encode(rng.integers(0, small.q, size=small.k).tolist())
    word = corrupt(cw, rng, 0, small.d_min - 1, small.q)
    assert codec.decode_ee(ReceivedWord(word, np.zeros(small.n))) == cw


def test_decode_never_returns_non_codeword(codec, small):
    """Beyond the radius: output is None or some valid codeword, never garbage."""
    ref = ScalarRSCodec(small)
    rng = np.random.default_rng(3)
    for _ in range(200):
        cw = codec.encode(rng.integers(0, small.q, size=small.k).tolist())
        eps = int(rng.integers(5, 10))
        word = corrupt(cw, rng, eps, 0, small.q)
        out = codec.decode_ee(ReceivedWord(word, np.zeros(small.n)))
        if out is not None:
            assert ref.is_codeword(out)


def test_decode_too_many_erasures_fails(codec, small):
    cw = codec.encode([1] * small.k)
    word = corrupt(cw, np.random.default_rng(1), 0, small.n - small.k + 1, small.q)
    assert codec.decode_ee(ReceivedWord(word, np.zeros(small.n))) is None


def test_decode_large_code(big_codec):
    p = big_codec.params
    rng = np.random.default_rng(11)
    cw = big_codec.encode(rng.integers(0, p.q, size=p.k).tolist())
    # 40 errors + 20 erasures: 2*40 + 20 = 100 <= d_min - 1 = 111
    word = corrupt(cw, rng, 40, 20, p.q)
    assert big_codec.decode_ee(ReceivedWord(word, np.zeros(p.n))) == cw


def test_decode_at_exact_radius_boundary(big_codec):
    p = big_codec.params
    rng = np.random.default_rng(13)
    cw = big_codec.encode(rng.integers(0, p.q, size=p.k).tolist())
    tau = 11
    eps = (p.d_min - 1 - tau) // 2  # 2*50 + 11 = 111 = d_min - 1
    word = corrupt(cw, rng, eps, tau, p.q)
    assert big_codec.decode_ee(ReceivedWord(word, np.zeros(p.n))) == cw


@pytest.mark.parametrize("m, n, k, count", [(4, 15, 7, 1000), (8, 255, 144, 100)])
def test_array_codec_matches_scalar_codec(m, n, k, count):
    """encode, the syndromes of `erasure_trials` and decode_ee equal the
    scalar codec they replaced, None included, on seeded patterns inside and beyond the
    decoding radius (up to three errors past it, or d_min erasures)."""
    params = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(params), ScalarRSCodec(params)
    rng = np.random.default_rng(n)
    d = params.d_min
    inside = failed = decoded = 0
    for _ in range(count):
        info = rng.integers(0, params.q, size=k).tolist()
        cw = ref.encode(info)
        assert codec.encode(info) == cw
        tau = int(rng.integers(0, d + 1))
        eps = int(rng.integers(0, max(d - 1 - tau, 0) // 2 + 4))
        word = corrupt(cw, rng, eps, tau, params.q)
        received = ReceivedWord(word, np.zeros(n))
        out = codec.decode_ee(received)
        assert out == ref.decode_ee(received), (eps, tau)
        assert codec.erasure_trials(word)[0].synd.tolist() == ref.syndromes(word)
        inside += 2 * eps + tau <= d - 1
        failed += out is None
        decoded += out == cw
    assert 0 < inside < count
    assert failed > 0 and decoded > 0


def scalar_erasure_locator(gf, n, erased):
    """Gamma(x) = prod (1 + X_i x) over the erased positions, scalar."""
    gamma = [1]
    for i in erased:
        gamma = scalar_poly_mul(gf, gamma, [1, alpha_pow(gf, n - 1 - i)])
    return gamma


@pytest.mark.parametrize("m, n, k", [(4, 15, 7), (8, 255, 144)])
def test_erased_word_grows_gamma_and_t(m, n, k):
    """Trial tau of erasure_trials erases the input erasures and then
    order[:tau], skipping positions already erased, input erasures and
    repeats in `order` included: its Gamma and T = Gamma S mod x^(n-k)
    equal the scalar products over the distinct erased positions, `erased`
    lists those in the order they were erased, and y and S(y) are those of
    the received word. The taus are cumulative, equal ones included; a
    tau that is not a non-negative integer, or a decreasing one, is a
    CodeError."""
    params = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(params), ScalarRSCodec(params)
    gf, nsyn = params.gf, n - k
    rng = np.random.default_rng(5)
    repeats = 0
    for _ in range(10):
        symbols = rng.integers(0, params.q, n).tolist()
        inputs = rng.choice(n, 3, replace=False).tolist()
        for i in inputs:
            symbols[i] = None
        # at most n-k distinct positions in all, drawn with replacement,
        # plus one repeat and one input erasure
        draws = rng.choice(n, nsyn - 3).tolist()
        order = draws + [draws[0], inputs[1]]
        rng.shuffle(order)
        taus = [0] + sorted(rng.integers(0, len(order) + 1, 4).tolist()) + [len(order)]
        y = [0 if s is None else s for s in symbols]
        synd = ref.syndromes(symbols)
        trials = codec.erasure_trials(symbols, order, taus)
        assert len(trials) == len(taus)
        for tau, trial in zip(taus, trials):
            expected = list(dict.fromkeys(sorted(inputs) + order[:tau]))
            assert trial.erased == expected
            gamma = scalar_erasure_locator(gf, n, expected)
            assert trial.gamma.tolist() == gamma
            assert trial.gamma_s.tolist() == scalar_poly_mul(gf, gamma, synd)[:nsyn]
            assert trial.y.tolist() == y and trial.synd.tolist() == synd
        repeats += len(order) + 3 - len(trials[-1].erased)
        assert codec.erasure_trials(symbols, order, []) == []
        # decreasing, negative, a bool (an int, but never a count) and a
        # fraction
        for taus in ([2, 1], [-1], [True, 2], [0.5], [0, np.float64(2.0)]):
            with pytest.raises(CodeError):
                codec.erasure_trials(symbols, order, taus)
        assert len(codec.erasure_trials(symbols, order, [np.int64(0), 2])) == 2
    assert repeats >= 20


@pytest.mark.parametrize("m, n, k, order, taus, inputs, match", [
    (8, 200, 100, [-1], (1,), 0, r"integers in \[0, 200\), got -1"),
    (4, 15, 7, [-2], (1,), 0, r"integers in \[0, 15\), got -2"),
    (4, 15, 7, [250], (1,), 0, r"integers in \[0, 15\), got 250"),
    (4, 15, 7, [2.5], (1,), 0, r"integers in \[0, 15\), got 2.5"),
    (4, 15, 7, [3], (4,), 0, "tau=4 erases past the 1 positions"),
    (4, 15, 7, [3], (0, 3), 1, "tau=3 erases past the 2 positions"),
], ids=["negative-n200", "negative-n15", "past-n", "fraction", "tau-past-order",
        "tau-past-inputs-and-order"])
def test_erasure_trials_rejects_order_outside_the_code(m, n, k, order, taus, inputs, match):
    """An entry of `order` that a trial reads and that is not a position
    in [0, n), or a tau past the positions that the input erasures and
    `order` supply, is a CodeError, not an erased locator outside the code
    (a negative entry wraps around), a bare IndexError or fewer erasures
    than asked for. Entries past the last tau's prefix are not read."""
    params = CodeParams(GF(m), n, k)
    codec = params.codec
    rng = np.random.default_rng(3)
    cw = codec.encode(rng.integers(0, params.q, k).tolist())
    word = list(cw)
    word[5] ^= 1
    for i in range(inputs):
        word[n - 1 - i] = None
    with pytest.raises(CodeError, match=match):
        codec.erasure_trials(word, order, taus)
    (trial,) = codec.erasure_trials(word, [3] + order, (1,))
    assert codec.decode_ee(trial) == cw


def test_decode_ee_rejects_lambda_roots_at_erasures(codec, small):
    """Beyond the radius with many erasures, Lambda often has L distinct
    roots at code positions, some of them erased. Psi = Lambda Gamma then
    has a repeated root and decoding must fail: the root test rejects such
    a Lambda and keeps the roots of every other one. decode_ee equals the
    scalar codec on all these words."""
    ref = ScalarRSCodec(small)
    gf, n, nsyn = small.gf, small.n, small.n - small.k
    rng = np.random.default_rng(17)
    cases = Counter()
    for _ in range(400):
        symbols = rng.integers(0, small.q, n).tolist()
        tau = int(rng.integers(3, nsyn))
        for i in rng.choice(n, tau, replace=False):
            symbols[i] = None
        word = ReceivedWord(symbols, np.zeros(n))
        out = codec.decode_ee(word)
        assert out == ref.decode_ee(word)
        # Lambda from the Forney syndromes by the scalar steps
        erased = [i for i, s in enumerate(symbols) if s is None]
        gamma = scalar_erasure_locator(gf, n, erased)
        lam, L = ref._berlekamp_massey(scalar_poly_mul(gf, gamma, ref.syndromes(symbols))[tau:nsyn])
        if 2 * L > nsyn - tau or L != len(lam) - 1:
            continue
        roots = [i for i in range(n) if poly_eval(gf, lam, alpha_pow(gf, -(n - 1 - i))) == 0]
        if len(roots) != L:
            continue
        found = codec._error_positions(lam, set(erased))
        if set(roots) & set(erased):
            cases["erased root"] += 1
            assert out is None and found is None
        else:
            cases["accepted"] += 1
            assert found == roots
    assert cases["erased root"] > 0 and cases["accepted"] > 0


def lfsr_rows(gf, rng, nsyn, count):
    """Syndrome rows of random lengths N, each generated by a random LFSR
    of length L <= N // 2, so that Berlekamp-Massey finds 2L <= N."""
    rows = []
    for _ in range(count):
        length = int(rng.integers(0, nsyn + 1))
        L = int(rng.integers(0, length // 2 + 1))
        taps = rng.integers(0, gf.q, L).tolist()
        row = rng.integers(0, gf.q, L).tolist()
        while len(row) < nsyn:
            s = 0
            for j, c in enumerate(taps, 1):
                s ^= gf.mul(c, row[-j])
            row.append(s)
        rows.append((row, length))
    return rows


def gmd_forney_rows(codec, rng, count):
    """The Forney syndromes of the nested GMD trials of noisy words with
    three input erasures, one of them among the first positions the trials
    erase, so that it recurs in the sorted prefix, and the others beyond
    the prefix, so that the last trials erase more than n-k positions."""
    p = codec.params
    nsyn = p.n - p.k
    taus = list(range(p.d_min))
    rows = []
    for _ in range(count):
        cw = codec.encode(rng.integers(0, p.q, p.k).tolist())
        symbols = corrupt(cw, rng, int(rng.integers(0, nsyn)), 0, p.q)
        order = rng.permutation(p.n).tolist()
        for i in [order[2]] + order[-2:]:
            symbols[i] = None
        for trial in codec.erasure_trials(symbols, order, taus):
            tau = len(trial.erased)
            rows.append((trial.gamma_s[tau:].tolist() + [0] * min(tau, nsyn), max(nsyn - tau, 0)))
    return rows


@pytest.mark.parametrize("m, n, k", [(4, 15, 7), (8, 255, 223), (8, 255, 144)])
def test_berlekamp_massey_rows_matches_scalar(m, n, k):
    """The row-batched Berlekamp-Massey gives each row the Lambda and L of
    the scalar codec and of the reference codec whenever 2L <= N, and
    2L > N wherever they do. Rows of unequal length N, N = 0, all-zero
    rows, random rows (mostly 2L > N), LFSR rows and the rows of GMD
    trials are solved together, longest first."""
    params = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(params), ScalarRSCodec(params)
    gf, nsyn = params.gf, n - k
    rng = np.random.default_rng(23)
    rows = lfsr_rows(gf, rng, nsyn, 40)
    rows += [(rng.integers(0, gf.q, nsyn).tolist(), int(rng.integers(0, nsyn + 1))) for _ in range(40)]
    rows += [([0] * nsyn, nsyn), ([0] * nsyn, 3), (rng.integers(0, gf.q, nsyn).tolist(), 0)]
    rows += gmd_forney_rows(codec, rng, 2)
    rows.sort(key=lambda row: -row[1])
    lam, L = codec._berlekamp_massey_rows(np.array([r for r, _ in rows]), [N for _, N in rows])
    assert lam.shape == (nsyn // 2 + 2, len(rows))
    cases = Counter()
    for (row, N), coeffs, got_l in zip(rows, lam.T.tolist(), L.tolist()):
        want, want_l = codec._berlekamp_massey(row[:N])
        assert ref._berlekamp_massey(row[:N]) == (want, want_l)
        if 2 * want_l > N:
            cases["2L > N"] += 1
            assert 2 * got_l > N
            continue
        cases["N = 0" if N == 0 else "solved"] += 1
        assert got_l == want_l
        assert coeffs == want + [0] * (len(coeffs) - len(want))
    assert min(cases.values()) > 0 and len(cases) == 3
    with pytest.raises(ValueError):
        codec._berlekamp_massey_rows(np.zeros((2, nsyn), dtype=int), [1, 2])


@pytest.mark.parametrize("k", [223, 191, 144])
def test_solve_locators_by_check_count(k):
    """erasure_trials builds trials without a locator, and solve_locators
    gives every trial one, by the row-batched pass for two or more trials
    from ROW_BM_MIN_CHECKS check symbols on and by the scalar steps per
    trial otherwise: that of the reference Berlekamp-Massey wherever
    2L <= N, and decode_ee gives the same result from it as from the bare
    trial. RS(256;255,223) and RS(256;255,191) lie on the two sides."""
    params = CodeParams(GF(8), 255, k)
    codec, ref, nsyn = RSCodec(params), ScalarRSCodec(params), 255 - k
    assert 32 < ROW_BM_MIN_CHECKS <= 64
    rng = np.random.default_rng(29)
    cw = codec.encode(rng.integers(0, params.q, k).tolist())
    symbols = corrupt(cw, rng, nsyn // 3, 2, params.q)
    order = rng.permutation(255).tolist()
    decoded = compared = 0
    for taus in ([0], [nsyn // 2], [3, 3], list(range(0, params.d_min, 2))):
        trials = codec.erasure_trials(symbols, order, taus)
        assert all(t.locator is None for t in trials)
        for t, bare in zip(codec.solve_locators(trials), trials):
            assert t.locator is not None
            assert t.y is bare.y and t.synd is bare.synd and t.erased is bare.erased and t.polys is bare.polys
            tau = len(t.erased)
            want = ref._berlekamp_massey(t.gamma_s[tau:].tolist())
            if 2 * want[1] <= nsyn - tau:
                assert t.locator == want
                compared += 1
            out = codec.decode_ee(t)
            assert out == codec.decode_ee(bare)
            decoded += out == cw
    assert decoded > 0 and compared > 0


@pytest.mark.parametrize("bad", [-1, -3, 16, 1.7])
def test_out_of_range_symbols_are_code_errors(codec, small, bad):
    """A symbol that is not an integer in [0, q) is a CodeError in encode,
    decode_ee and gmd_decode, with or without erasures; None still marks
    an erasure. Unchecked, a negative symbol wraps around the log table
    and decodes to a "codeword" with negative symbols."""
    n = small.n
    with pytest.raises(CodeError):
        codec.encode([bad] * small.k)
    cw = codec.encode(list(range(small.k)))
    for erasures in ([], [5, 9]):
        word = list(cw)
        word[0] = bad
        for i in erasures:
            word[i] = None
        received = ReceivedWord(word, np.linspace(0, 0.5, n))
        with pytest.raises(CodeError):
            codec.decode_ee(received)
        with pytest.raises(CodeError):
            gmd_decode(received, codec)
        word[0] = cw[0]
        assert codec.decode_ee(ReceivedWord(word, np.zeros(n))) == cw
    assert codec.encode(np.arange(small.k, dtype=np.uint8)) == cw

import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from erasurelab.gf import GF
from erasurelab.rs import (
    ROW_BM_MIN_WORK,
    CodeError,
    CodeParams,
    ROW_DECODE_MIN_WORDS,
    ErasedBlock,
    ReceivedWord,
    RSCodec,
    erase_most_unreliable,
)
from erasurelab.gmd import default_schedule, gmd_decode
from scalar_rs import ScalarRSCodec, alpha_pow, erase_word, poly_eval, scalar_poly_mul


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


def syndromes(codec, y) -> np.ndarray:
    """S(y) of the (rows, n) words y by erasure_trial_rows, each the one
    trial that erases nothing."""
    y = np.array(y)
    return codec.erasure_trial_rows(y, np.zeros((len(y), 0), dtype=np.intp), np.zeros((len(y), 1), dtype=np.intp))[0]


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


def test_received_word_validation(codec):
    with pytest.raises(CodeError):
        ReceivedWord([1, 2], np.array([0.1]))
    for bad in (1.0, np.nan, np.inf, -np.inf, -0.1):
        with pytest.raises(CodeError, match="must be finite and lie in"):
            ReceivedWord([1, 2], np.array([0.1, bad]))
    w = ReceivedWord([1, None, 3], np.array([0.1, 0.9, 0.0]))
    assert sum(s is None for s in w.symbols) == 1
    # decode_ee takes words of n = 15 symbols only, erased ones too
    for symbols in ([1] * 14, [1] * 16, [None] * 14):
        with pytest.raises(CodeError, match="received word length mismatch"):
            codec.decode_ee(ReceivedWord(symbols, np.zeros(len(symbols))))


def test_erase_most_unreliable_stable():
    h = np.array([[0.5, 0.9, 0.5, 0.1]])
    block = erase_most_unreliable([[1, 2, 3, 4]], h, 2)
    # 0.9 first, then the earlier of the tied 0.5 entries
    assert block.order.tolist() == [[1, 0, 2, 3]] and block.taus.tolist() == [2]
    assert block.y.tolist() == [[1, 2, 3, 4]]
    assert erase_most_unreliable([[1, 2, 3, 4]], h, 0).taus.tolist() == [0]
    assert erase_most_unreliable([[1, 2, 3, 4]], h, np.int8(1)).taus.tolist() == [1]
    # a tau that is not an integer is a CodeError: a bool (an int, but
    # never a count), a float of integer value and a string
    for tau in (True, 2.0, np.float64(1.0), "1"):
        with pytest.raises(CodeError, match="need an integer tau"):
            erase_most_unreliable([[1, 2, 3, 4]], h, tau)


@pytest.mark.parametrize("m, n, k, rows", [(4, 15, 7, 300), (4, 15, 7, 5), (4, 15, 7, 1),
                                          (8, 255, 144, 40), (8, 255, 144, 1)])
def test_erase_block_decodes_as_each_word(m, n, k, rows):
    """erase_most_unreliable of a (rows, n) block, with a tau per row
    (0, n-k, n-k+1 and past n among them) and unreliabilities on six
    levels, so that ties are common, erases in each row the positions
    that the scalar erase_word erases in the row alone, in its stable
    order; and decode_ee of the block gives each row's result of the
    scalar codec on its erase_word word, and of decode_ee of that one
    word, as rows and, below ROW_DECODE_MIN_WORDS rows, word by word. One
    tau for the block is that tau in each row."""
    params = CodeParams(GF(m), n, k)
    codec, ref = params.codec, ScalarRSCodec(params)
    nsyn = n - k
    rng = np.random.default_rng(59 + rows)
    y = np.array([codec.encode(rng.integers(0, params.q, k).tolist()) for _ in range(rows)])
    h = rng.integers(0, 6, size=(rows, n)) / 8
    for r in range(rows):
        # errors, most of them on the most unreliable level
        eps = int(rng.integers(0, nsyn))
        pos = rng.choice(n, eps, replace=False)
        y[r, pos] ^= rng.integers(1, params.q, eps)
        h[r, pos[: 2 * eps // 3]] = 5 / 8
    taus = rng.integers(0, nsyn + 1, rows)
    for at, tau in enumerate((0, nsyn, nsyn + 1, n + 5)):
        taus[at::7] = tau
    block = erase_most_unreliable(y, h, taus)
    assert isinstance(block, ErasedBlock)
    assert block.order.tolist() == [sorted(range(n), key=lambda i: -hr[i]) for hr in h]
    words = [erase_word(r, hr, tau) for r, hr, tau in zip(y.tolist(), h, taus.tolist())]
    for word, order, tau in zip(words, block.order, block.taus):
        assert [i for i, s in enumerate(word.symbols) if s is None] == sorted(order[:tau])
    got = codec.decode_ee(block)
    assert got == [ref.decode_ee(w) for w in words] == [codec.decode_ee(w) for w in words]
    if rows > 1:
        assert 0 < got.count(None) < rows
    tau = nsyn // 2
    assert codec.decode_ee(erase_most_unreliable(y, h, tau)) == [
        ref.decode_ee(erase_word(r, hr, tau)) for r, hr in zip(y.tolist(), h)]


def test_erase_block_rejects_bad_input(small):
    """A block whose symbols and unreliabilities differ in shape, an
    unreliability outside [0, 1) or a tau that is not an integer, or not
    one per row, is a CodeError."""
    y, h = np.zeros((3, small.n), dtype=np.int64), np.zeros((3, small.n))
    erase_most_unreliable(y, h, np.int8(2))
    for args in ((y[:, 1:], h, 2), (y, np.full((3, small.n), np.nan), 2), (y, h + 1, 2),
                 (y, h, 2.0), (y, h, [1, 2]), (y, h, np.ones((3, 1), dtype=int))):
        with pytest.raises(CodeError):
            erase_most_unreliable(*args)


def test_encode_systematic_and_valid(codec, small):
    rng = np.random.default_rng(0)
    for _ in range(20):
        info = rng.integers(0, small.q, size=small.k).tolist()
        cw = codec.encode(info)
        assert cw[: small.k] == info
        assert len(cw) == small.n
        assert syndromes(codec, [cw]).tolist() == [[0] * (small.n - small.k)]


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
    """encode, the syndromes of `erasure_trial_rows` and decode_ee equal the
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
        assert syndromes(codec, [[0 if s is None else s for s in word]])[0].tolist() == ref.syndromes(word)
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


def erased_sets(order, taus) -> list[list[int]]:
    """The erased positions of a word's trial for each tau of `taus`, in
    the order erased: order[:tau], each position once. Each set is a
    prefix of the next for taus non-decreasing."""
    return [list(dict.fromkeys(order[:tau])) for tau in taus]


def as_erased(symbols, erased) -> list:
    """The word with its erased positions as None."""
    erased = set(erased)
    return [None if i in erased else s for i, s in enumerate(symbols)]


def trial_block(codec, trials, locators=True) -> ErasedBlock:
    """The ErasedBlock of trials, (symbols, erased, locator) triples: row r
    erases the positions `erased`, and its order runs on through the
    others. With `locators` each row carries S(y) and Gamma/T from one
    erasure_trial_rows pass and its locator as lam/L rows, solved by
    locator_rows where the trial's is None; without, the block is the bare
    rows."""
    n = codec.params.n
    y = np.array([symbols for symbols, _, _ in trials])
    taus = np.array([len(erased) for _, erased, _ in trials], dtype=np.intp)
    order = np.array([erased + [i for i in range(n) if i not in set(erased)] for _, erased, _ in trials],
                     dtype=np.intp)
    if not locators:
        return ErasedBlock(y, order, taus)
    synd, polys = codec.erasure_trial_rows(y, order, taus[:, None])
    polys = polys[:, 0]
    by_tau = np.argsort(taus, kind="stable")
    solved, solved_L = codec.locator_rows(polys[by_tau], taus[by_tau])
    given = [locator for _, _, locator in trials if locator is not None]
    lam = np.zeros((len(trials), max([solved.shape[1]] + [len(c) for c, _ in given])), dtype=np.intp)
    L = np.zeros(len(trials), dtype=np.intp)
    lam[by_tau, : solved.shape[1]], L[by_tau] = solved, solved_L
    for r, (_, _, locator) in enumerate(trials):
        if locator is not None:
            lam[r], L[r] = 0, locator[1]
            lam[r, : len(locator[0])] = locator[0]
    return ErasedBlock(y, order, taus, synd, polys, lam, L)


def take(block: ErasedBlock, rows) -> ErasedBlock:
    """The rows `rows` of a block, with what it carries of them."""
    return ErasedBlock(*(None if getattr(block, f.name) is None else getattr(block, f.name)[rows]
                         for f in fields(block)))


@pytest.mark.parametrize("m, n, k", [(4, 15, 7), (8, 255, 144)])
def test_erased_word_grows_gamma_and_t(m, n, k):
    """Over each word's stable order from the most to the least unreliable,
    trial j of a word in erasure_trial_rows erases the first tau positions
    for tau of default_schedule, as gmd_decode's trials do: its Gamma and
    T = Gamma S mod x^(n-k) equal the scalar products over those
    positions, and S(y) is the received word's. Every trial's count comes
    twice, so the counts are cumulative with equal ones."""
    params = CodeParams(GF(m), n, k)
    codec, ref = params.codec, ScalarRSCodec(params)
    gf, nsyn = params.gf, n - k
    rng = np.random.default_rng(5)
    rows = 10
    y = rng.integers(0, params.q, (rows, n))
    h = rng.integers(0, 7, (rows, n)) / 8
    sequences = np.argsort(-h, axis=1, kind="stable")
    schedule = np.repeat(default_schedule(params.d_min), 2)
    sizes = np.repeat(schedule[None], rows, axis=0)
    synd, polys = codec.erasure_trial_rows(y, sequences, sizes)
    for r in range(rows):
        assert synd[r].tolist() == ref.syndromes(y[r].tolist())
        for j, tau in enumerate(schedule.tolist()):
            erased = sequences[r, :tau].tolist()
            gamma = scalar_erasure_locator(gf, n, erased)
            assert polys[r, j, 1 : tau + 2].tolist() == gamma
            assert polys[r, j, nsyn + 3 : 2 * nsyn + 3].tolist() == scalar_poly_mul(gf, gamma, synd[r].tolist())[:nsyn]


@pytest.mark.parametrize("m, n, k, words", [(4, 15, 7, 40), (8, 255, 144, 6)])
def test_trial_rows_decode_as_scalar_codec(m, n, k, words):
    """Every trial of a word, its S(y), Gamma/T and locator carried by an
    ErasedBlock row from one erasure_trial_rows pass and one locator_rows
    call (trial_block), decodes to the scalar codec's result on the word
    with the trial's erased positions as None, in the block and as a row
    alone: schedules from no erasure to past n-k (at RS(16;15,7)), over
    orders with repeated positions."""
    params = CodeParams(GF(m), n, k)
    codec, ref = params.codec, ScalarRSCodec(params)
    nsyn = n - k
    rng = np.random.default_rng(53)
    trials = []
    for _ in range(words):
        cw = codec.encode(rng.integers(0, params.q, k).tolist())
        symbols = corrupt(cw, rng, int(rng.integers(0, nsyn // 2 + 2)), 0, params.q)
        order = rng.choice(n, nsyn + 2).tolist()
        taus = [0] + sorted(rng.integers(0, len(order) + 1, 5).tolist())
        trials += [(symbols, erased, None) for erased in erased_sets(order, taus)]
    block = trial_block(codec, trials)
    got = codec.decode_ee(block)
    found = Counter()
    for r, (symbols, erased, _) in enumerate(trials):
        want = ref.decode_ee(ReceivedWord(as_erased(symbols, erased), np.zeros(n)))
        assert got[r] == want == codec.decode_ee(take(block, [r]))[0]
        found[want is not None] += 1
    assert found[True] > 0 and found[False] > 0
    # at n = 255 the draws with replacement leave about 90 distinct positions
    assert n != 15 or max(len(erased) for _, erased, _ in trials) > nsyn


@pytest.mark.parametrize("m, n, k", [(4, 15, 7), (8, 255, 144)])
def test_decode_ee_entries_match_scalar_codec(m, n, k, monkeypatch):
    """decode_ee of erase_most_unreliable blocks of 1, 5, 6 and 7 rows
    (word by word below ROW_DECODE_MIN_WORDS, as rows from it) and of all
    of them, and of each row's erase_word as one ReceivedWord, gives the
    scalar codec's result on that word, with one public decode_ee call
    each: up to n-k+2 erasures. One ReceivedWord with every symbol erased,
    or n-k+1 of them, decodes to None, and a block of no rows to []."""
    params = CodeParams(GF(m), n, k)
    codec, ref = RSCodec(params), ScalarRSCodec(params)
    nsyn = n - k
    rng = np.random.default_rng(61)
    sizes = [1, 5, 6, 7]
    count = sum(sizes)
    y = np.array(codec.encode(rng.integers(0, params.q, (count, k))))
    h = rng.uniform(0, 0.9, (count, n))
    taus = rng.integers(0, nsyn + 3, count)
    taus[::5] = nsyn + 1
    for r, tau in enumerate(taus.tolist()):
        eps = int(rng.integers(0, max(nsyn - tau, 0) // 2 + 3))
        y[r, rng.choice(n, eps, replace=False)] ^= rng.integers(1, params.q, eps)
    words = [erase_word(r, hr, tau) for r, hr, tau in zip(y.tolist(), h, taus.tolist())]
    want = [ref.decode_ee(w) for w in words]
    assert 0 < want.count(None) < count

    calls, paths = [], []
    decode_ee, decode_each, decode_rows = codec.decode_ee, codec._decode_each, codec._decode_rows
    monkeypatch.setattr(codec, "decode_ee", lambda w: calls.append(w) or decode_ee(w))
    monkeypatch.setattr(codec, "_decode_each", lambda b: paths.append(("each", len(b.taus))) or decode_each(b))
    monkeypatch.setattr(codec, "_decode_rows", lambda b: paths.append(("rows", len(b.taus))) or decode_rows(b))
    assert [codec.decode_ee(w) for w in words] == want
    assert codec.decode_ee(erase_most_unreliable(y, h, taus)) == want
    lo = 0
    for size in sizes:
        assert codec.decode_ee(erase_most_unreliable(y[lo : lo + size], h[lo : lo + size], taus[lo : lo + size])) \
            == want[lo : lo + size]
        lo += size
    assert codec.decode_ee(erase_most_unreliable(y[:0], h[:0], 0)) == []
    for erased in (n, nsyn + 1):
        word = ReceivedWord([None] * erased + y[0, erased:].tolist(), h[0])
        assert codec.decode_ee(word) is None is ref.decode_ee(word)
    assert len(calls) == count + 1 + len(sizes) + 1 + 2
    assert sizes[1] < ROW_DECODE_MIN_WORDS <= sizes[2]

    def via(size):
        return ("each" if size < ROW_DECODE_MIN_WORDS else "rows", size)

    assert paths == [via(1)] * count + [via(count)] + [via(size) for size in sizes] + [via(0)] + [via(1)] * 2


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
        is_erased = np.zeros((1, n), dtype=bool)
        is_erased[0, erased] = True
        at_root, ok = codec._error_positions(np.array([lam]), np.array([L]), is_erased)
        assert np.flatnonzero(at_root[0]).tolist() == roots
        if set(roots) & set(erased):
            cases["erased root"] += 1
            assert out is None and not ok[0]
        else:
            cases["accepted"] += 1
            assert ok[0]
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
    """The Forney syndromes of nested trials of noisy words, erasing from
    none to n-k+2 positions of a random order, so that the last trials
    erase more than n-k positions."""
    p = codec.params
    nsyn = p.n - p.k
    taus = list(range(p.d_min + 2))
    rows = []
    for _ in range(count):
        cw = codec.encode(rng.integers(0, p.q, p.k).tolist())
        symbols = corrupt(cw, rng, int(rng.integers(0, nsyn)), 0, p.q)
        erased = erased_sets(rng.permutation(p.n).tolist(), taus)
        y = np.array([symbols])
        _, polys = codec.erasure_trial_rows(y, np.array(erased[-1:]), np.array([[len(e) for e in erased]]))
        for e, buffer in zip(erased, polys[0]):
            tau = len(e)
            rows.append((buffer[nsyn + 3 + tau : 2 * nsyn + 3].tolist() + [0] * min(tau, nsyn), max(nsyn - tau, 0)))
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
def test_locator_rows_by_check_count(k):
    """locator_rows solves the trials of a word from their Gamma/T rows,
    by the row-batched pass where the trials hold enough work for it
    (ROW_BM_MIN_WORK) and by the scalar steps per trial otherwise: that of
    the reference Berlekamp-Massey wherever 2L <= N, and decode_ee gives
    the same result from a block that carries these locators as from the
    bare rows. RS(256;255,223) and RS(256;255,191) lie on the two sides."""
    params = CodeParams(GF(8), 255, k)
    codec, ref, nsyn = RSCodec(params), ScalarRSCodec(params), 255 - k
    assert (sum(range(nsyn, -1, -2)) ** 2 > ROW_BM_MIN_WORK * nsyn) == (k < 223)
    rng = np.random.default_rng(29)
    cw = codec.encode(rng.integers(0, params.q, k).tolist())
    symbols = corrupt(cw, rng, nsyn // 3, 0, params.q)
    order = rng.permutation(255).tolist()
    decoded = compared = 0
    for taus in ([0], [nsyn // 2], [3, 3], list(range(0, params.d_min, 2))):
        trials = [(symbols, erased, None) for erased in erased_sets(order, taus)]
        block = trial_block(codec, trials)
        sizes = block.taus
        lam, L = codec.locator_rows(block.polys, sizes)
        assert np.array_equal(lam, block.lam) and np.array_equal(L, block.L)
        for coeffs, got_l, buffer, tau in zip(lam.tolist(), L.tolist(), block.polys, sizes.tolist()):
            want, want_l = ref._berlekamp_massey(buffer[nsyn + 3 + tau : 2 * nsyn + 3].tolist())
            if 2 * want_l <= nsyn - tau:
                assert (coeffs, got_l) == (want + [0] * (len(coeffs) - len(want)), want_l)
                compared += 1
        out = codec.decode_ee(block)
        assert out == codec.decode_ee(trial_block(codec, trials, locators=False))
        decoded += out.count(cw)
    assert decoded > 0 and compared > 0


@pytest.mark.parametrize("bad", [-1, -3, 16, 1.7])
def test_out_of_range_symbols_are_code_errors(codec, small, bad):
    """A symbol that is not an integer in [0, q) is a CodeError in encode,
    in decode_ee of a block and of one ReceivedWord, with or without
    erasures (None marks an erasure of one word), and in gmd_decode.
    Unchecked, a negative symbol wraps around the log table and decodes to
    a "codeword" with negative symbols."""
    n = small.n
    with pytest.raises(CodeError):
        codec.encode([bad] * small.k)
    cw = codec.encode(list(range(small.k)))
    h = np.linspace(0, 0.5, n)
    word = list(cw)
    word[0] = bad
    for rows in (1, ROW_DECODE_MIN_WORDS):
        with pytest.raises(CodeError):
            codec.decode_ee(erase_most_unreliable([word] * rows, [h] * rows, 2))
        with pytest.raises(CodeError):
            gmd_decode([word] * rows, codec, [h] * rows)
    for erasures in ([], [5, 9]):
        word = list(cw)
        word[0] = bad
        for i in erasures:
            word[i] = None
        with pytest.raises(CodeError):
            codec.decode_ee(ReceivedWord(word, h))
        word[0] = cw[0]
        assert codec.decode_ee(ReceivedWord(word, np.zeros(n))) == cw
    assert codec.encode(np.arange(small.k, dtype=np.uint8)) == cw


@pytest.mark.parametrize("form", ["decode_ee-list", "erase-one-word", "gmd-received-word"])
def test_word_forms_fail_at_entry(codec, small, form):
    """The word forms that arrays replaced fail at entry with a CodeError
    that names the (rows, n) form expected, not an error from inside the
    code: decode_ee of a list of ReceivedWords, erase_most_unreliable of
    one word, and gmd_decode of one ReceivedWord."""
    word = ReceivedWord(codec.encode([1] * small.k), np.zeros(small.n))
    run = {
        "decode_ee-list": lambda: codec.decode_ee([word]),
        "erase-one-word": lambda: erase_most_unreliable(word.symbols, word.unreliability, 2),
        "gmd-received-word": lambda: gmd_decode(word, codec, word.unreliability),
    }[form]
    with pytest.raises(CodeError, match=r"\(rows, n\)"):
        run()


def decode_case(ref, symbols, erased, locator):
    """Which check of the decoder the trial fails, by the scalar codec's
    steps and the trial's own locator when it has one, or "corrected"."""
    p = ref.params
    gf, n, nsyn = p.gf, p.n, p.n - p.k
    tau = len(erased)
    synd = ref.syndromes(symbols)
    if tau > nsyn:
        return "tau > n-k"
    if tau == 0 and not any(synd):
        return "clean"
    if locator is None:
        gamma = scalar_erasure_locator(gf, n, erased)
        lam, L = ref._berlekamp_massey(scalar_poly_mul(gf, gamma, synd)[tau:nsyn])
    else:
        # a carried Lambda is read to its first L + 1 coefficients
        lam, L = locator[0][: locator[1] + 1], locator[1]
    if 2 * L > nsyn - tau:
        return "2L > N"
    if L != len(lam) - 1 or not lam[L]:
        return "deg != L"
    roots = [i for i in range(n) if poly_eval(gf, lam, alpha_pow(gf, -(n - 1 - i))) == 0]
    if len(roots) != L:
        return "few roots"
    if set(roots) & set(erased):
        return "erased root"
    return "corrected"


def block_rows(codec, rng, count):
    """(symbols, erased, locator, word) rows for the block decoder: the
    trials of codewords with up to three errors past the radius of tau
    erasures, tau up to n-k+2, and those erasures (in all but every third
    trial up to three more) at other positions in a random order, and the
    scalar codec's word for each, the trial's erasures as None; every
    tenth a clean codeword. Then trials with a locator that solves no key
    equation, whose word is None: Lambda = 1 + X_b x with b not the error
    position (S(e) != S(y)) or erased, and with L = 2 > deg Lambda; and the
    one-error word's true Lambda with a coefficient past L, and past the
    row decoder's (n-k)//2 + 2, whose word is the one-error word: decoding
    reads Lambda to its first L + 1 coefficients."""
    p = codec.params
    n, k, nsyn = p.n, p.k, p.n - p.k
    rows = []
    for r in range(count):
        cw = codec.encode(rng.integers(0, p.q, k).tolist())
        if r % 10 == 0:
            rows.append((cw, [], None, cw))
            continue
        tau = int(rng.integers(0, nsyn + 3))
        eps = int(rng.integers(0, max(nsyn - tau, 0) // 2 + 4))
        pos = rng.permutation(n)
        symbols = list(cw)
        for i in pos[:eps]:
            symbols[i] ^= int(rng.integers(1, p.q))
        erased = pos[eps : eps + tau + (0 if r % 3 == 0 else int(rng.integers(0, 4)))].tolist()
        rows.append((symbols, erased, None, as_erased(symbols, erased)))
    for a, b in rng.choice(n, (3, 2), replace=False).tolist():
        cw = codec.encode(rng.integers(0, p.q, k).tolist())
        word = list(cw)
        word[a] ^= 1
        x = p.gf.exp[n - 1 - b]
        true = [1, p.gf.exp[n - 1 - a]] + [0] * (nsyn // 2 + 2) + [1]
        for erased, locator, out in (([], ([1, x], 1), None), ([b], ([1, x], 1), None), ([], ([1, x], 2), None),
                                     ([], (true, 1), word)):
            rows.append((word, erased, locator, out))
    return rows


@pytest.mark.parametrize("m, n, k, count", [(4, 15, 7, 600), (8, 255, 144, 60)])
def test_decode_ee_block_matches_per_word_and_scalar(m, n, k, count):
    """decode_ee of a block of trials, in random order, as an ErasedBlock
    whose rows carry S(y), Gamma/T and locators (trial_block), gives each
    row's decode_ee alone and the scalar codec's result on the trial's
    word, its erasures as None; the trials without a locator of their own
    decode alike from the bare rows, and as ReceivedWords, one by one.
    Six rows of the bare block take the scalar
    Berlekamp-Massey form, the whole block the row form. The rows meet
    every exit of the decoder: clean, more than n-k erasures, 2L > N,
    deg Lambda != L, too few Chien roots, a root at an erasure,
    S(e) != S(y) and corrected. A carried Lambda with a coefficient past L
    decodes alike alone and in the block: both read its first L + 1."""
    params = CodeParams(GF(m), n, k)
    codec, ref = params.codec, ScalarRSCodec(params)
    rng = np.random.default_rng(41)
    rows = block_rows(codec, rng, count)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    trials = [(symbols, erased, locator) for symbols, erased, locator, _ in rows]
    block = trial_block(codec, trials)
    got = codec.decode_ee(block)
    assert got == [codec.decode_ee(take(block, [r]))[0] for r in range(len(trials))]
    assert codec.decode_ee(take(block, slice(0, 6))) == got[:6]
    plain = [r for r, (_, _, locator) in enumerate(trials) if locator is None]
    bare = take(trial_block(codec, trials, locators=False), plain)
    words = [ReceivedWord(rows[r][3], np.zeros(n)) for r in plain]
    assert [got[r] for r in plain] == codec.decode_ee(bare) == [codec.decode_ee(w) for w in words]
    assert codec.decode_ee(take(bare, slice(0, 6))) == [got[r] for r in plain[:6]]
    assert codec._row_form([n - k] * count) and not codec._row_form([n - k] * 6)
    cases = Counter()
    for (symbols, erased, locator, word), out in zip(rows, got):
        case = decode_case(ref, as_erased(symbols, erased), erased, locator)
        if word is None:
            assert out is None
            case = "S(e) != S(y)" if case == "corrected" else case
        else:
            assert out == ref.decode_ee(ReceivedWord(word, np.zeros(n)))
            assert (out is not None) == (case in ("clean", "corrected"))
        cases[case] += 1
    assert set(cases) == {"clean", "tau > n-k", "2L > N", "deg != L", "few roots",
                          "erased root", "S(e) != S(y)", "corrected"}, cases


@pytest.mark.parametrize("m, n, k, words", [(4, 15, 7, 40), (8, 255, 144, 6)])
def test_decode_ee_block_of_trials_matches_each_trial(m, n, k, words):
    """A block of the trials of GMD-like schedules, shuffled among received
    words, decodes as an ErasedBlock (trial_block) of rows that carry S(y),
    Gamma/T and the locator, as the bare rows, as each row alone, carrying
    or bare in turn, and as the trials' words, each alone. Words with up
    to twice the errors the radius takes."""
    params = CodeParams(GF(m), n, k)
    codec = params.codec
    nsyn = n - k
    rng = np.random.default_rng(47)
    trials = []
    for _ in range(words):
        cw = codec.encode(rng.integers(0, params.q, k).tolist())
        symbols = corrupt(cw, rng, int(rng.integers(0, nsyn)), 0, params.q)
        taus = range(0, nsyn + 2, 3)
        trials += [(symbols, erased, None) for erased in erased_sets(rng.permutation(n).tolist(), taus)]
    trials = [trials[i] for i in rng.permutation(len(trials))]
    solved, bare = trial_block(codec, trials), trial_block(codec, trials, locators=False)
    got = codec.decode_ee(solved)
    assert got == codec.decode_ee(bare)
    assert got == [codec.decode_ee(take((solved, bare)[r % 2], [r]))[0] for r in range(len(trials))]
    received = [ReceivedWord(as_erased(symbols, erased), np.zeros(n)) for symbols, erased, _ in trials]
    assert got == [codec.decode_ee(w) for w in received]
    found = [c is not None for c in got]
    assert any(found) and not all(found)


def test_decode_block_peak_stays_bounded(big_codec):
    """One 256-word RS(256;255,144) block of words with up to 49 errors
    and 37 erasures decodes with a traced peak under 6 MB (it measures
    2.9): the gathers run in row chunks of GATHER_ENTRIES entries, where
    one gather over the whole block's syndromes alone would take 58 MB."""
    p = big_codec.params
    rng = np.random.default_rng(43)
    y = np.empty((256, p.n), dtype=np.int64)
    h, taus, sent = np.zeros((256, p.n)), np.empty(256, dtype=np.intp), []
    for r in range(256):
        cw = big_codec.encode(rng.integers(0, p.q, p.k).tolist())
        eps, taus[r] = int(rng.integers(0, 50)), int(rng.integers(0, 38))
        pos = rng.permutation(p.n)[: eps + taus[r]]
        y[r] = cw
        y[r, pos[:eps]] ^= rng.integers(1, p.q, eps)
        h[r, pos[eps:]] = 0.5
        sent.append(cw)
    block = erase_most_unreliable(y, h, taus)
    tracemalloc.start()
    try:
        out = big_codec.decode_ee(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak
    assert out.count(None) > 0 and sum(o == cw for o, cw in zip(out, sent)) > 128

"""Reed-Solomon encoding and algebraic error/erasure decoding.

Systematic generator-polynomial encoding with roots alpha^1..alpha^(n-k).
Decoding is bounded-minimum-distance with erasures: Forney syndromes,
Berlekamp-Massey for the error locator Lambda, Chien search and the
Forney magnitude formula. A word with eps errors and tau erasures is
recovered whenever 2*eps + tau <= d_min - 1.

The decoder works on trials, a received word under one erasure set: the
hard word y, its syndromes S(y), the erased positions, the erasure
locator Gamma(x) and T(x) = Gamma(x) S(x) mod x^(n-k), whose coefficients
tau..n-k-1 are the Forney syndromes, and the error locator once solved.
Erasing one more position multiplies Gamma and T by one linear factor.
One kernel, `_erase_rows`, grows the Gamma/T of a block's words in
lock-step (step s multiplies each by the factor of its s-th erased
position), with a snapshot at each erasure count some trial has: the
nested trials of a block (`erasure_trial_rows`, GMD's) come from one pass
of it.
The Chien search runs on Lambda alone: Psi = Lambda Gamma has deg Psi
distinct roots iff Lambda has L distinct roots at code positions and
none is erased. The Forney magnitudes are evaluated at the at most n-k
roots of Psi, and the corrected word is checked by S(y) = S(e), a sum
over those roots only.

`decode_ee` takes an `ErasedBlock`: the (rows, n) hard words with each
row's erasure order and count (`erase_most_unreliable`), and for GMD's
trials each row's S(y), Gamma/T and locator. One `ReceivedWord`, whose
None symbols are erased, is the one-row block of its symbols. One row
kernel decodes a block: the syndromes as one (rows, n) x (n, n-k)
gather; Gamma/T grown in lock-step; Lambda for the rows at once; the Chien search as one gather over the block's
largest L + 1 coefficients; the Forney step at each row's roots, padded
to the block's largest root count; and the check S(y) = S(e). Each check
drops the rows it fails, a clean row costs nothing past its syndrome
test, and the gathers run in row chunks of GATHER_ENTRIES entries, which
bound their temporaries at n = 255. A row's work is the one word's, so
the block gives each word's result. One row costs about three words'
array calls, though, so a block of fewer than ROW_DECODE_MIN_WORDS rows
goes word by word, read off its arrays.

Every step of order n*(n-k) is an array kernel of `GF` (one table gather
and an XOR-reduce, see `erasurelab.gf`) on matrices of logarithms built
once per code: the k x (n-k) parity matrix of the encoder, which also
takes a (rows, k) block in one gather, the n x (n-k) syndrome matrix,
the Chien power table and the Forney table, its blocks at the roots
facing the coefficients of Psi and of Omega = Lambda T mod x^(n-k), both
read off one array product of Lambda with the trial's Gamma/T buffer.
g(x) and Gamma are built one linear factor at a time. The tables are
read-only, and `CodeParams.codec` builds them once per code: every
campaign on one `CodeParams` shares its codec.

Berlekamp-Massey runs in its inversion form, on Lambda, L, P (Lambda as
it stood at the last length change m) and beta, the inverse discrepancy
at m. It has two forms. The scalar form runs one trial on byte strings,
one byte per coefficient: a polynomial times a scalar is one
`bytes.translate` by `GF.mul_tables`, a sum one int XOR. It carries the
discrepancy polynomial D = Lambda S, shifted one byte a step, and P S as
D stood at m, so that delta is D's low byte and the update of D one more
translated XOR (the Delta-polynomial of D. V. Sarwate and N. R.
Shanbhag, "High-speed architectures for Reed-Solomon decoders", IEEE
Trans. VLSI 9(5), 2001). The row form steps trials in lock-step on
(W, rows) log/antilog arrays, W = (n-k)//2 + 2, at about ten array calls
a step whatever the row count. Both give the same Lambda wherever
2L <= N, where it is unique. One rule, `RSCodec._row_form`, picks the
form in `RSCodec.locator_rows`: the row form when the squared total
count of Forney syndromes exceeds ROW_BM_MIN_WORK times the longest
row's count, the steps of the row pass (for R rows of N syndromes,
R^2 N > ROW_BM_MIN_WORK).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF

#: the work from which `RSCodec._row_form` solves Berlekamp-Massey rows in one
#: row-batched Berlekamp-Massey pass, not by the scalar steps per row: the
#: row form when S^2 > ROW_BM_MIN_WORK * N, S being the rows' total count
#: of Forney syndromes and N the longest row's, the steps of the row pass.
#: For R rows of N syndromes that reads R^2 N > ROW_BM_MIN_WORK. Measured
#: on the syndromes of words with about N/3 errors, R rows of N cross at
#: R = 32 to 48 for every N from 8 to 111 (R^2 N from 12 000 to 256 000).
#: The trial sets of a one-frame GMD pass at n = 255 (S^2 / N at most
#: 88 600) take the scalar form, with which `mc_long` and `semi_long` gmd
#: ran 1.03x and 1.07x as fast as at the value 5000; 256-frame GMD passes
#: at n = 15, whose smaller trial sets the row form solves faster from
#: S^2 / N = 1600 on, ran as fast (1.015x)
ROW_BM_MIN_WORK = 100_000
#: entries of one gather's index array in the block decoder and encoder:
#: rows are taken in chunks that keep each gather's temporaries near
#: 0.5 MB (an intp per entry) whatever the code length and block size. A
#: 256-word block at n = 255 decodes as fast in chunks of 2^15 or 2^16
#: entries and 1.6x slower in chunks of 2^18, whose temporaries leave the
#: cache; a whole block at n = 15 is one chunk
GATHER_ENTRIES = 1 << 16
#: the words from which `RSCodec.decode_ee` decodes a block as rows: fewer
#: go word by word, which costs less for one to about five words (at
#: n = 15 one row costs about 3x a word, six break even; at n = 255,
#: errors-only blocks of four and six words decode 5-15 % faster word by
#: word, and 4-frame passes run as fast at 6, 4 or 1)
ROW_DECODE_MIN_WORDS = 6


class CodeError(ValueError):
    pass


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise `error` unless `value` is an integer: anything operator.index
    takes, numpy integers too, but not a bool, which is an int but never a
    count."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CodeParams:
    """RS(q; n, k, d_min) over GF(2^m); d_min = n - k + 1 (MDS)."""

    gf: GF
    n: int
    k: int

    def __post_init__(self):
        require_integer("n", self.n, CodeError)
        require_integer("k", self.k, CodeError)
        if not (1 <= self.k < self.n <= self.gf.q - 1):
            raise CodeError(f"need 1 <= k < n <= q-1, got n={self.n} k={self.k} q={self.gf.q}")

    @property
    def q(self) -> int:
        return self.gf.q

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1

    @cached_property
    def codec(self) -> RSCodec:
        """The code's encoder/decoder, built on first use and shared by
        every user of this CodeParams; a copy (`dataclasses.replace`)
        builds its own."""
        return RSCodec(self)


@dataclass
class ReceivedWord:
    """One word for `RSCodec.decode_ee`: hard-decision symbols, None
    marking an erasure, with per-position unreliabilities."""

    symbols: list  # list of int | None, length n
    unreliability: np.ndarray  # shape (n,), values in [0, 1)

    def __post_init__(self):
        u = self.unreliability = np.asarray(self.unreliability, dtype=float)
        if len(self.symbols) != len(u):
            raise CodeError("symbols and unreliability lengths differ")
        _check_unreliability(u)


def _check_unreliability(h: np.ndarray) -> None:
    # NaN fails both comparisons, +-inf one of them
    if not ((h >= 0) & (h < 1)).all():
        raise CodeError("unreliability entries must be finite and lie in [0, 1)")


def received_block(symbols, unreliability, gf: GF | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n) hard symbols and unreliabilities as arrays; a CodeError
    unless they share one (rows, n) shape, each unreliability in [0, 1)
    and, given the field, each symbol an integer in [0, q)."""
    y, h = np.asarray(symbols), np.asarray(unreliability, dtype=float)
    if h.ndim != 2 or y.shape != h.shape:
        raise CodeError(f"need symbols and unreliabilities of one (rows, n) shape, got {y.shape} and {h.shape}")
    _check_unreliability(h)
    return (y if gf is None else _symbol_array(y, gf)), h


def erase_most_unreliable(symbols, unreliability, tau) -> ErasedBlock:
    """Erase each row's tau most unreliable positions, for (rows, n)
    symbols and unreliabilities (`received_block`) and one tau or one a
    row: the `ErasedBlock` of one stable argsort, which keeps position
    order among equal unreliabilities."""
    y, h = received_block(symbols, unreliability)
    taus = np.asarray(tau)
    if taus.dtype.kind not in "iu" or taus.shape not in ((), (len(h),)):
        raise CodeError(f"need an integer tau or one a row, got {tau!r}")
    # a tau past n erases every position, and one below 0 none
    taus = np.minimum(np.maximum(np.broadcast_to(taus, len(h)), 0), h.shape[1])
    return ErasedBlock(y, np.argsort(-h, axis=1, kind="stable"), taus)


@dataclass
class ErasedBlock:
    """Row r of the (rows, n) hard symbols `y` with order[r, :taus[r]]
    erased, order[r] its positions in the order erased, from the most to
    the least unreliable for `erase_most_unreliable`.

    A block of trials also carries each row's S(y) in `synd`, Gamma/T in
    `polys` and error locator, Lambda in `lam` and L, as
    `RSCodec.locator_rows` solves them; decoding reads Lambda to its first
    L + 1 coefficients, and only where 2L <= n-k-tau. Row r of `polys`
    holds the erasure locator Gamma(x) = prod (1 + X_i x) over the erased
    positions and T(x) = Gamma(x) S(x) mod x^(n-k) as
    [0, Gamma_0..Gamma_(n-k), 0, T_0..T_(n-k)], T_(n-k) being a spare
    slot.

    The symbols of y at the erased positions stay as they are: the Forney
    syndromes do not depend on them, and the Forney magnitudes are linear
    in S, so the decoder corrects y to the codeword it would find with
    them read as 0."""

    y: np.ndarray
    order: np.ndarray
    taus: np.ndarray
    synd: np.ndarray | None = None
    polys: np.ndarray | None = None
    lam: np.ndarray | None = None
    L: np.ndarray | None = None


def _symbol_array(symbols, gf: GF) -> np.ndarray:
    """`symbols` as an array; a CodeError unless each is an integer in
    [0, q). Unchecked, a negative symbol would wrap around the log table."""
    y = np.asarray(symbols)
    # the OR of all entries has no bit from m up exactly when each is in
    # [0, q); a negative entry sets the sign bit
    if y.dtype.kind not in "iu" or np.bitwise_or.reduce(y, axis=None) >> gf.m:
        raise CodeError(f"symbols must be integers in [0, {gf.q})")
    return y


def _ranks(counts: np.ndarray) -> np.ndarray:
    """For each of counts[r] entries of each row r in turn, its rank
    0..counts[r]-1 within the row: the column that np.nonzero order puts it
    in."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class RSCodec:
    """Encoder/decoder pair for one code, which `CodeParams.codec` builds
    once and shares: it holds only the code and read-only tables."""

    def __init__(self, params: CodeParams):
        self.params = params
        gf = params.gf
        n, k = params.n, params.k
        nsyn = n - k
        order = gf.q - 1
        log, exp = gf.log_table, gf.exp_table
        # g(x) = prod_{j=1}^{n-k} (x + alpha^j), the reversal of prod (1 + alpha^j x)
        g = gf.linear_factors(np.arange(1, nsyn + 1))[::-1]
        glog = log[g[:nsyn]]
        # x^(n-1-i) mod g(x) is the parity of a unit at info position i:
        # rows by the recursion x^(t+1) mod g = x * (x^t mod g) mod g, row i
        # in columns 1..n-k behind a zero column, so that columns 0..n-k-1
        # are its shift by x
        rows = np.zeros((k, nsyn + 1), dtype=gf.dtype)
        rows[-1, 1:] = g[:nsyn]  # x^(n-k) mod g
        for i in range(k - 1, 0, -1):
            rows[i - 1, 1:] = rows[i, :-1] ^ exp[glog + log[rows[i, -1]]]
        parity = rows[:, 1:]
        # parity position k + t holds the coefficient of x^(n-k-1-t)
        self._parity_logs = log[parity[:, ::-1]]
        powers = np.arange(n - 1, -1, -1)  # X_i = alpha^(n-1-i)
        # S_j = sum_i r_i X_i^j, j = 1..n-k
        self._syndrome_logs = np.outer(powers, np.arange(1, nsyn + 1)) % order
        # Psi(X_i^-1) = sum_t Psi_t X_i^-t for deg Psi <= n-k
        self._chien_logs = np.outer(np.arange(nsyn + 1), -powers) % order
        # Forney terms facing the product of Lambda(x) with ErasedBlock.polys,
        # one (2, n-k+2) block per position. As deg Psi = L + tau <= n-k,
        # the product's two halves are Psi = Lambda Gamma and
        # Omega = Lambda T mod x^(n-k), coefficient s at index s + 1: the
        # first half pairs the odd Psi_s with X_i^-s (Psi_odd), the second
        # Omega_s with X_i^-(s+1); the zero sentinel masks the rest
        forney = np.full((n, 2, nsyn + 2), gf.zero_log)
        forney[:, 0, 2::2] = self._chien_logs[1::2].T
        forney[:, 1, 1:-1] = self._chien_logs[1:].T
        self._forney_logs = forney
        # shared by every campaign on the code through `CodeParams.codec`
        for table in (self._parity_logs, self._syndrome_logs, self._chien_logs, forney):
            table.setflags(write=False)

    # position i <-> coefficient of x^(n-1-i); info occupies positions 0..k-1

    def encode(self, info) -> list:
        """The systematic codeword (n symbols) of `info`, k symbols in
        [0, q); a (rows, k) block of info words gives the list of their
        codewords, the parities of all rows in one gather. One info word
        is the one-row block."""
        p = self.params
        u = _symbol_array(info, p.gf)
        if u.ndim not in (1, 2) or u.shape[-1] != p.k:
            raise CodeError(f"info must be k={p.k} symbols or a (rows, {p.k}) block, got shape {u.shape}")
        block = np.atleast_2d(u)
        words = np.concatenate([block, self._row_products(block, self._parity_logs, p.n - p.k)], axis=1).tolist()
        return words if u.ndim == 2 else words[0]

    def decode_ee(self, word):
        """Error/erasure decode; returns a codeword or None on failure.

        An `ErasedBlock` is decoded row by row, and the result the list of
        its rows' codewords or None; a block of ROW_DECODE_MIN_WORDS rows
        or more decodes as rows, a smaller one word by word. One
        `ReceivedWord` is the one-row block of its symbols that erases its
        None symbols, in position order, and the result its codeword or
        None.

        The decoder is a BMD decoder: the trial with erased set X returns
        the codeword c exactly when 2 |{i not in X : y_i != c_i}| + |X| <=
        n - k, and None when no codeword lies that close. Within that
        radius c is unique.
        """
        if isinstance(word, ReceivedWord):
            erased = [i for i, s in enumerate(word.symbols) if s is None]
            order = erased + [i for i, s in enumerate(word.symbols) if s is not None]
            y = np.array([[0 if s is None else s for s in word.symbols]])
            return self._decode_each(ErasedBlock(y, np.array([order]), np.array([len(erased)])))[0]
        if not isinstance(word, ErasedBlock):
            raise CodeError(f"decode_ee takes one ReceivedWord or an ErasedBlock of (rows, n) hard words, "
                            f"got {type(word).__name__}")
        return self._decode_each(word) if len(word.taus) < ROW_DECODE_MIN_WORDS else self._decode_rows(word)

    def _decode_each(self, block: ErasedBlock) -> list:
        """`decode_ee` of a block word by word, from the S(y), Gamma/T and
        locators it carries or one `erasure_trial_rows` pass: each row by
        scalar steps and per-word array calls. A carried Lambda of other
        than L + 1 coefficients, or a zero last one, has a degree other
        than L."""
        gf = self.params.gf
        nsyn = self.params.n - self.params.k
        y = self._block_symbols(block)
        order, taus = block.order, block.taus.tolist()
        if block.polys is None:
            synd, polys = self.erasure_trial_rows(y, order, block.taus[:, None])
            polys = polys[:, 0]
        else:
            synd, polys = block.synd, block.polys
        Ls = [None] * len(taus) if block.L is None else block.L.tolist()
        out = [None] * len(taus)
        for r, (tau, L) in enumerate(zip(taus, Ls)):
            if tau > nsyn:
                continue  # radius empty
            if tau == 0 and not synd[r].any():
                out[r] = y[r].tolist()
                continue

            # the locator carried, or solved by the scalar steps
            if L is None:
                lam, L = self._berlekamp_massey(polys[r, nsyn + 3 + tau : 2 * nsyn + 3].tolist())
            else:
                lam = block.lam[r, : L + 1]
            if 2 * L > nsyn - tau or len(lam) != L + 1 or not lam[L]:
                continue

            # the Chien search of `_error_positions` on one row
            roots = np.flatnonzero(gf.vecmat(lam, self._chien_logs) == 0)
            if len(roots) != L:
                continue
            erased = order[r, :tau]
            is_erased = np.zeros(self.params.n, dtype=bool)
            is_erased[erased] = True
            if is_erased[roots].any():
                continue
            roots = np.concatenate([roots, erased]).astype(np.intp)  # the roots of Psi = Lambda Gamma

            # Forney at the roots of Psi only, as in `_decode_rows`
            top = len(roots) + 2
            prod = gf.poly_mul(lam, polys[r], polys.shape[1]).reshape(2, nsyn + 2)
            terms = gf.exp_table[gf.log_table[prod[:, :top]] + self._forney_logs[roots, :, :top]]
            den, num = np.bitwise_xor.reduce(terms, axis=2).T
            e = gf.div_array(num, den)

            # the corrected word y + e is a codeword iff S(y) = S(e)
            if (gf.vecmat(e, self._syndrome_logs[roots]) != synd[r]).any():
                continue
            c = y[r].copy()
            c[roots] ^= e
            out[r] = c.tolist()
        return out

    def _block_symbols(self, block: ErasedBlock) -> np.ndarray:
        """The block's hard words; a CodeError unless they are (rows, n)
        integers in [0, q), checked where S(y) was if the block carries it."""
        y = _symbol_array(block.y, self.params.gf) if block.synd is None else np.asarray(block.y)
        if y.shape != (len(block.taus), self.params.n):
            raise CodeError("received word length mismatch")
        return y

    def _decode_rows(self, block: ErasedBlock) -> list:
        """`decode_ee` of a block decoded as rows: row r the hard word y[r]
        with order[r, :taus[r]] erased, in that order, from the S(y),
        Gamma/T and locators that the block carries, or else ones computed
        here. A clean row (no erasure, zero syndrome) returns y, and one
        with more than n-k erasures None, before any further array work.
        The other rows go in order of erasure count: those still growing
        Gamma/T at an erasure step are a suffix, and the Forney syndrome
        lengths non-increasing, as the row Berlekamp-Massey pass needs.
        Each later check drops the rows it fails.
        """
        p = self.params
        gf, n = p.gf, p.n
        nsyn = n - p.k
        log = gf.log_table
        taus = block.taus
        out = [None] * len(taus)
        if not len(taus):
            return out
        y = self._block_symbols(block)
        synd = self._row_products(y, self._syndrome_logs, nsyn) if block.synd is None else block.synd
        clean = (taus == 0) & ~synd.any(axis=1)
        for j, c in zip(np.flatnonzero(clean).tolist(), y[clean].tolist()):
            out[j] = c
        live = np.flatnonzero(~clean & (taus <= nsyn))  # past n-k erasures the radius is empty
        if not len(live):
            return out
        live = live[np.argsort(taus[live], kind="stable")]
        taus = taus[live]
        erased = block.order[live, : taus[-1]]

        # Gamma/T, laid out as `ErasedBlock.polys`: carried, or 1 and S grown
        # in lock-step by one linear factor per erasure step
        if block.polys is None:
            polys = np.zeros((2 * nsyn + 4, len(live)), dtype=np.intp)
            polys[1] = 1
            polys[nsyn + 3 : 2 * nsyn + 3] = synd[live].T
            self._erase_rows(polys, erased, taus)
            polys = polys.T
        else:
            polys = block.polys[live]

        # Lambda and L: carried, or solved; read to its first L + 1
        # coefficients, as `_decode_each` does (an L past the row has 2L > N)
        lam, L = self.locator_rows(polys, taus) if block.L is None else (block.lam[live], block.L[live])
        lam = np.where(np.arange(lam.shape[1]) <= L[:, None], lam, 0)
        keep = (2 * L <= nsyn - taus) & (lam[np.arange(len(L)), np.minimum(L, lam.shape[1] - 1)] != 0)

        live, taus, polys, lam, L, erased = live[keep], taus[keep], polys[keep], lam[keep], L[keep], erased[keep]
        if not len(live):
            return out
        is_erased = np.zeros((len(live), n), dtype=bool)
        among = np.arange(erased.shape[1]) < taus[:, None]
        is_erased[np.nonzero(among)[0], erased[among]] = True
        at_root, keep = self._error_positions(lam, L, is_erased)
        live, taus, polys, lam, L = live[keep], taus[keep], polys[keep], lam[keep], L[keep]
        if not len(live):
            return out
        # the roots of Psi, each row's padded to the block's largest count
        count = L + taus
        row, pos = np.nonzero(at_root[keep] | is_erased[keep])
        most = int(count.max())
        roots = np.zeros((len(live), most), dtype=np.intp)
        roots[row, _ranks(count)] = pos
        padding = np.arange(most) >= count[:, None]

        # Forney at the roots of Psi: e = X^-1 Omega(X^-1) / Psi_odd(X^-1),
        # where Psi_odd(x) = x Psi'(x) (char 2) sums the odd-power terms.
        # The coefficients 0..most+1 of each half of the product of Lambda
        # with Gamma/T, one row of Lambda against the shifts of its buffer:
        # Psi = Lambda Gamma and Omega = Lambda T mod x^(n-k) are zero past
        # index count + 1, and Gamma's tail meets no nonzero Lambda_j
        top = int(L.max()) + 1
        cols = (np.arange(most + 2) + np.array([[0], [nsyn + 2]])).ravel()
        shifts = cols + (top - 1 - np.arange(top))[:, None]
        padded = np.full((len(live), top - 1 + polys.shape[1]), gf.zero_log, dtype=np.intp)
        padded[:, top - 1 :] = log[polys]
        prod = self._row_products(lam[:, :top], lambda rows: padded[rows][:, shifts], len(cols))
        prod = log[prod.reshape(len(live), 1, 2, most + 2)]
        terms = self._row_chunked(
            len(live), most * 2 * (most + 2),
            lambda rows: np.bitwise_xor.reduce(
                gf.exp_table[prod[rows] + self._forney_logs[roots[rows], :, : most + 2]], axis=3))
        den, num = np.moveaxis(terms, 2, 0)
        den[padding], num[padding] = 1, 0
        e = gf.div_array(num, den)

        # the corrected word y + e is a codeword iff S(y) = S(e)
        check = self._row_products(e, lambda rows: self._syndrome_logs[roots[rows]], nsyn)
        keep = (check == synd[live]).all(axis=1)
        c = y[live[keep]]
        fix = ~padding[keep]
        c[np.nonzero(fix)[0], roots[keep][fix]] ^= e[keep][fix]
        for j, word in zip(live[keep].tolist(), c.tolist()):
            out[j] = word
        return out

    def _error_positions(self, lam: np.ndarray, L: np.ndarray, is_erased: np.ndarray):
        """Chien search of each row's Lambda, cut at the rows' largest L + 1
        coefficients, over all positions: the (rows, n) mask of its roots,
        and per row whether Lambda has L distinct roots at code positions
        and none of them is erased (`is_erased`, a (rows, n) mask).

        That is the test that Psi = Lambda Gamma has deg Psi distinct roots
        at code positions. Psi is then squarefree, so the Forney
        denominator Psi_odd is nonzero at each of its roots.
        """
        top = int(L.max()) + 1
        at_root = self._row_products(lam[:, :top], self._chien_logs, self.params.n) == 0
        return at_root, (at_root.sum(axis=1) == L) & ~(at_root & is_erased).any(axis=1)

    def _row_chunked(self, rows: int, per_row: int, kernel) -> np.ndarray:
        """kernel(rows) over consecutive slices of `rows` rows, each small
        enough that a gather of per_row entries a row stays within
        GATHER_ENTRIES, concatenated along the rows."""
        step = max(1, GATHER_ENTRIES // max(per_row, 1))
        if rows <= step:
            return kernel(slice(0, rows))
        return np.concatenate([kernel(slice(lo, lo + step)) for lo in range(0, rows, step)])

    def _row_products(self, v: np.ndarray, log_matrix, width: int) -> np.ndarray:
        """`GF.vecmat` of each row of v, (rows, I), with one (I, width) log
        matrix, or with log_matrix(rows), the (len, I, width) matrices of a
        slice of rows; in chunks of rows (`_row_chunked`)."""
        gf = self.params.gf
        matrix = log_matrix if callable(log_matrix) else lambda rows: log_matrix
        return self._row_chunked(len(v), v.shape[1] * width, lambda rows: gf.vecmat(v[rows], matrix(rows)))

    def _erase_rows(self, polys: np.ndarray, positions: np.ndarray, taus: np.ndarray, keep=()) -> np.ndarray:
        """Grow the Gamma/T buffers, the columns of the (width, rows) array
        `polys`, in place by one linear factor (1 + X x) per position of
        positions[r, :taus[r]] for column r, taus non-decreasing: step s
        multiplies the columns that erase an s-th position, a suffix, at
        once, and the columns keep its operands contiguous. The
        shift-and-add over the whole buffer updates both polynomials:
        Gamma's top coefficient spills into T's leading zero only past n-k
        erasures, where decoding fails anyway. Returns the buffers after
        each step count of `keep`, ascending: a (len(keep), width, rows)
        array of field elements, [i, :, r] column r after
        min(keep[i], taus[r]) factors."""
        gf = self.params.gf
        log, exp = gf.log_table, gf.exp_table
        steps = int(taus[-1]) if len(taus) else 0
        keep = list(keep)
        kept = np.empty((len(keep),) + polys.shape, dtype=gf.dtype)
        # exps[s, r] = n-1-i for the s-th erased position i of column r
        exps = (self.params.n - 1 - positions[:, :steps]).T
        last = polys.shape[1] - 1
        at, lo = 0, None
        for s, start in enumerate(np.searchsorted(taus, np.arange(steps), side="right").tolist()):
            while at < len(keep) and keep[at] <= s:
                kept[at] = polys
                at += 1
            if start != lo:
                lo = start
                if lo == last:
                    # one column: X^e times the buffer through the table
                    # shifted by e, one array call fewer
                    out, shifted, factors = polys[1:, lo], polys[:-1, lo], exps[:, lo].tolist()
                else:
                    out, shifted, factors = polys[1:, lo:], polys[:-1, lo:], exps[:, None, lo:]
            if lo == last:
                out ^= exp[factors[s] :][log[shifted]]
            else:
                out ^= exp[factors[s] + log[shifted]]
        kept[at:] = polys
        return kept

    def erasure_trial_rows(self, y: np.ndarray, positions: np.ndarray, sizes: np.ndarray):
        """The trials of a block of words: trial j of word r erases
        positions[r, :sizes[r, j]], `y` being the (rows, n) hard words,
        integers in [0, q), `positions` distinct positions per row, and
        each row of `sizes` non-decreasing. Returns S(y), (rows, n-k), one gather, and the trials' Gamma/T
        buffers, laid out as `ErasedBlock.polys`, a (rows, trials, 2(n-k)+4)
        array of field elements, from one lock-step pass of `_erase_rows`
        with a snapshot at each count that some trial erases."""
        nsyn = self.params.n - self.params.k
        synd = self._row_products(y, self._syndrome_logs, nsyn)
        polys = np.zeros((2 * nsyn + 4, len(y)), dtype=np.intp)
        polys[1] = 1
        polys[nsyn + 3 : 2 * nsyn + 3] = synd.T
        # one snapshot per count; every row takes the largest count of
        # factors, past its trials erasing positions that none reads
        keep = sorted(set(sizes.ravel().tolist()))
        kept = self._erase_rows(polys, positions, np.full(len(y), keep[-1] if keep else 0), keep)
        return synd, kept.transpose(2, 0, 1)[np.arange(len(y))[:, None], np.searchsorted(keep, sizes)]

    def locator_rows(self, polys: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The error locators of trials given by their Gamma/T buffers, the
        rows of `polys`, and erasure counts `taus`, non-decreasing: Lambda
        as the rows of a (trials, (n-k)//2 + 2) array, and L. They are
        solved from the Forney syndromes, coefficients tau..n-k-1 of T,
        the same whatever symbols sit at the erasures: in one row-batched
        Berlekamp-Massey pass where `_row_form` says so, and by the scalar
        steps per trial otherwise."""
        gf, nsyn = self.params.gf, self.params.n - self.params.k
        width = nsyn // 2 + 2
        # left-aligned; the columns past a row's count are never read
        at = np.minimum(nsyn + 3 + taus[:, None] + np.arange(nsyn), 2 * nsyn + 3)
        forney, lengths = np.take_along_axis(polys, at, axis=1), np.maximum(nsyn - taus, 0)
        if self._row_form(lengths.tolist()):
            lam, L = self._berlekamp_massey_rows(forney, lengths)
            return lam.T, L
        lam = np.zeros((len(taus), width), dtype=gf.dtype)
        L = np.zeros(len(taus), dtype=np.intp)
        for r, (f, N) in enumerate(zip(forney.tolist(), lengths.tolist())):
            coeffs, L[r] = self._berlekamp_massey(f[:N])
            # a Lambda past W coefficients has 2L > N, which fails
            lam[r, : min(len(coeffs), width)] = coeffs[:width]
        return lam, L

    @staticmethod
    def _row_form(lengths) -> bool:
        """Whether Berlekamp-Massey on rows of these Forney syndrome counts,
        runs as one row-batched pass: where the squared total count exceeds
        ROW_BM_MIN_WORK times the longest."""
        return len(lengths) > 1 and sum(lengths) ** 2 > ROW_BM_MIN_WORK * max(lengths)

    def _berlekamp_massey_rows(self, synd: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
        """Berlekamp-Massey on the rows of `synd` in lock-step.

        Row j holds its syndromes in columns 0..lengths[j]-1, the lengths
        non-increasing, so the rows still running at step r are a prefix.
        Returns Lambda as the columns of a (W, rows) array,
        W = (n-k)//2 + 2, and L per row. Wherever 2L <= lengths[j], the
        row's Lambda and L are those of `_berlekamp_massey`: L never
        decreases, so such a row never held a coefficient beyond
        (n-k)//2. Where 2L > lengths[j], L is at least as large as the
        scalar one and Lambda, cut at W coefficients, is meaningless.

        A step is the update of `_berlekamp_massey` on columns, in logs: P
        as its logs, beta as its log, and delta as the inner product of
        Lambda with the syndromes, where the byte form reads the low byte
        of its carried D. The zero sentinel makes a zero discrepancy leave
        Lambda unchanged without a branch.
        """
        gf = self.params.gf
        order, zero = gf.q - 1, gf.zero_log
        log, exp = gf.log_table, gf.exp_table
        lengths = np.asarray(lengths)
        rows = len(lengths)
        if np.any(lengths[1:] > lengths[:-1]):
            raise ValueError("row lengths must be non-increasing")
        steps = int(lengths[0]) if rows else 0
        width = (self.params.n - self.params.k) // 2 + 2
        # live[r]: the number of rows longer than r
        live = np.searchsorted(-lengths, -np.arange(steps), side="left").tolist()
        # the syndrome logs reversed: S_(r-j) is at index steps-1-r+j, with
        # zero sentinels for r-j < 0
        lsynd = np.full((steps + width - 1, rows), zero)
        lsynd[:steps] = log[synd[:, :steps][:, ::-1].T]
        lam = np.zeros((width, rows), dtype=gf.dtype)
        lam[0] = 1
        # the window of step r, from index steps-1-r on, holds the logs of
        # x^(r-m) P: P is written where the window of step m starts, and
        # each window starts one index lower than the one before; P = 1,
        # m = -1 to begin with
        lp = np.full((steps + width, rows), zero)
        lp[steps] = 0
        lbeta = np.zeros(rows, dtype=np.intp)
        twice_l = np.zeros(rows, dtype=np.intp)
        for r in range(steps):
            j = live[r]
            # Lambda and B have degree at most r + 1 here
            w = min(width, r + 2)
            at = steps - 1 - r
            lam_r, lp_r, lbeta_r, twice_l_r = lam[:w, :j], lp[at : at + w, :j], lbeta[:j], twice_l[:j]
            llam = log[lam_r]
            delta = np.bitwise_xor.reduce(exp[llam + lsynd[at : at + w, :j]], axis=0)
            ldelta = log[delta]
            # the log of delta * beta, the zero sentinel when delta = 0
            lscale = log[exp[ldelta + lbeta_r]]
            grow = twice_l_r <= r
            np.logical_and(grow, delta, out=grow)
            update = exp[lp_r + lscale]
            np.copyto(lp_r, llam, where=grow)
            lam_r ^= update
            np.subtract(order, ldelta, out=lbeta_r, where=grow)
            np.subtract(2 * (r + 1), twice_l_r, out=twice_l_r, where=grow)
        return lam, twice_l // 2

    def _berlekamp_massey(self, synd: list[int]) -> tuple[list[int], int]:
        """Lambda, trailing zeros trimmed, and L for one syndrome list.

        Polynomials are ints, coefficient j in byte j: c times one is a
        `bytes.translate` by `GF.mul_tables`[c], a sum one XOR. D = Lambda S
        is carried shifted right one byte a step, so that delta_r is its
        low byte, and next to P the bytes of P S as D stood at the last
        length change m: the update D += delta beta x^(r-m) P S is then an
        XOR of the translated bytes, both being shifted alike. The bytes of
        D past the syndromes' count meet no later delta."""
        gf = self.params.gf
        mul, exp, log = gf.mul_tables, gf.exp, gf.log
        from_bytes = int.from_bytes
        order, count = gf.q - 1, len(synd)
        d = from_bytes(bytes(synd), "little")
        lam, L = 1, 0
        # P = 1 and beta = 1 at m = -1, P S being S one byte up
        p, ps, beta, shift = b"\x01", bytes([0, *synd[:-1]]), 1, 8
        for r in range(count):
            delta = d & 0xFF
            if delta:
                scale = mul[mul[delta][beta]]
                lam_update = from_bytes(p.translate(scale), "little") << shift
                d_update = from_bytes(ps.translate(scale), "little")
                if 2 * L <= r:
                    # deg Lambda <= L; D holds no more bytes than S, and
                    # the steps after r read its first count - 1 - r
                    p, ps = lam.to_bytes(L + 1, "little"), d.to_bytes(count, "little")[: count - 1 - r]
                    beta, shift, L = exp[order - log[delta]], 0, r + 1 - L
                lam ^= lam_update
                d ^= d_update
            d >>= 8
            shift += 8
        return list(lam.to_bytes((lam.bit_length() + 7) // 8, "little")), L

"""Reed-Solomon encoding and algebraic error/erasure decoding.

Systematic generator-polynomial encoding with roots alpha^1..alpha^(n-k).
Decoding is bounded-minimum-distance with erasures: Forney syndromes,
Berlekamp-Massey for the error locator Lambda, Chien search and the
Forney magnitude formula. A word with eps errors and tau erasures is
recovered whenever 2*eps + tau <= d_min - 1.

The decoder works on trials, `ErasedWord` values that
`RSCodec.erasure_trials` builds from a received word: the hard word y,
its syndromes S(y), computed once, the erased positions, the erasure
locator Gamma(x) and T(x) = Gamma(x) S(x) mod x^(n-k), whose coefficients
tau..n-k-1 are the Forney syndromes, and the error locator once
`RSCodec.solve_locators` has solved it. Erasing one more position
multiplies Gamma and T by one linear factor, so the trials of nested
erasure sets (GMD) come from one pass, each trial's Gamma/T buffer a row
of one array grown from the row before.
`decode_ee` reads a `ReceivedWord` as the builder's one trial. The Chien
search runs on Lambda alone: Psi = Lambda Gamma has deg Psi distinct
roots iff Lambda has L distinct roots at code positions and none is
erased. The Forney magnitudes are evaluated at the at most n-k roots of
Psi, and the corrected word is checked by S(y) = S(e), a sum over those
roots only.

Every step of order n*(n-k) is an array kernel of `GF` (one table gather
and an XOR-reduce, see `erasurelab.gf`) on matrices of logarithms built
once per code: the k x (n-k) parity matrix of the encoder, the n x (n-k)
syndrome matrix, the Chien power table and the Forney table, its blocks
at the roots facing the coefficients of Psi and of Omega = Lambda T mod
x^(n-k), both read off one array product of Lambda with the trial's
Gamma/T buffer. g(x) and Gamma are built one linear factor at a time.
The tables are read-only, and `CodeParams.codec` builds them once per
code: every campaign on one `CodeParams` shares its codec.

Berlekamp-Massey has one entry, `RSCodec.solve_locators`, and two forms
with one state: Lambda, L, and B = beta x^(r-m) P as the log of beta, the
inverse discrepancy of the last length change m, and the logs of P, Lambda
as it stood then; log(delta beta) is reduced through one table round trip.
The scalar form runs one trial on the field's zero-sentinel lists, Lambda
kept at L + 1 coefficients. The row form steps trials in lock-step on
(W, rows) arrays, W = (n-k)//2 + 2, at about ten array calls a step
whatever the row count, so it runs for two or more trials from
ROW_BM_MIN_CHECKS check symbols on. Both give the same Lambda wherever
2L <= N, where it is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF

#: the number n-k of check symbols from which `RSCodec.solve_locators`
#: solves two or more trials of a word in one row-batched Berlekamp-Massey
#: pass. Below it the scalar pass per trial is faster: on GMD frames of
#: RS(256;255,k) with about (n-k)/3 symbol errors the two cross between
#: n-k = 48 and 56
ROW_BM_MIN_CHECKS = 56


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
    """Hard-decision symbols (None marks an erasure) with per-position unreliabilities."""

    symbols: list  # list of int | None, length n
    unreliability: np.ndarray  # shape (n,), values in [0, 1)

    def __post_init__(self):
        u = self.unreliability = np.asarray(self.unreliability, dtype=float)
        if len(self.symbols) != len(u):
            raise CodeError("symbols and unreliability lengths differ")
        # NaN fails both comparisons, +-inf one of them
        if not ((u >= 0) & (u < 1)).all():
            raise CodeError("unreliability entries must be finite and lie in [0, 1)")


def erasure_order(h: np.ndarray) -> list[int]:
    """The positions from the most to the least unreliable; the sort is
    stable, so it keeps position order among equal unreliabilities."""
    return np.argsort(-h, kind="stable").tolist()


def erase_most_unreliable(symbols: list, unreliability: np.ndarray, tau: int) -> ReceivedWord:
    """Erase the first tau positions of `erasure_order`."""
    h = np.asarray(unreliability, dtype=float)
    out = list(symbols)
    if tau > 0:
        for i in erasure_order(h)[:tau]:
            out[i] = None
    return ReceivedWord(out, h)


def _symbol_array(symbols, gf: GF) -> np.ndarray:
    """`symbols` as an array; a CodeError unless each is an integer in
    [0, q). Unchecked, a negative symbol would wrap around the log table."""
    y = np.asarray(symbols)
    # the OR of all entries has no bit from m up exactly when each is in
    # [0, q); a negative entry sets the sign bit
    if y.dtype.kind not in "iu" or np.bitwise_or.reduce(y) >> gf.m:
        raise CodeError(f"symbols must be integers in [0, {gf.q})")
    return y


def _erasures_as_zero(symbols: list, gf: GF) -> np.ndarray:
    return _symbol_array([0 if s is None else s for s in symbols], gf)


@dataclass
class ErasedWord:
    """One decoder trial: a received word under one erasure set.

    `y` is the hard word with the input erasures (None) read as 0 and
    `synd` = S(y). `erased` lists the erased positions in the order they
    were erased. `polys` holds the erasure locator
    Gamma(x) = prod (1 + X_i x) over them and T(x) = Gamma(x) S(x) mod
    x^(n-k) as [0, Gamma_0..Gamma_(n-k), 0, T_0..T_(n-k)], T_(n-k) being a
    spare slot. `locator` is None or the (Lambda, L) that
    `RSCodec.solve_locators` solved.

    The symbols of y at the erasures past the input ones stay as they
    are: the Forney syndromes do not depend on them, and the Forney
    magnitudes are linear in S, so the decoder corrects y to the codeword
    it would find with them read as 0.
    """

    y: np.ndarray
    synd: np.ndarray
    erased: list[int]
    polys: np.ndarray
    locator: tuple[list[int], int] | None = None

    @property
    def gamma(self) -> np.ndarray:
        return self.polys[1 : len(self.erased) + 2]

    @property
    def gamma_s(self) -> np.ndarray:
        nsyn = len(self.synd)
        return self.polys[nsyn + 3 : 2 * nsyn + 3]


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
        # Forney terms facing the product of Lambda(x) with ErasedWord.polys,
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

    def encode(self, info: list[int]) -> list[int]:
        p = self.params
        if len(info) != p.k:
            raise CodeError(f"info length {len(info)} != k={p.k}")
        parity = p.gf.vecmat(_symbol_array(info, p.gf), self._parity_logs)
        return list(info) + parity.tolist()

    def decode_ee(self, word: ReceivedWord | ErasedWord) -> list[int] | None:
        """Error/erasure decode; returns a codeword or None on failure.

        A `ReceivedWord` is read as the one trial of its symbols; a caller
        that decodes one word under several erasure sets passes the
        trials of `erasure_trials`, solved by `solve_locators` or not: a
        trial without a locator gets it from `solve_locators`.

        The decoder is a BMD decoder: the trial with erased set X returns
        the codeword c exactly when 2 |{i not in X : y_i != c_i}| + |X| <=
        n - k, and None when no codeword lies that close. Within that
        radius c is unique.
        """
        if isinstance(word, ReceivedWord):
            (word,) = self.erasure_trials(word.symbols)
        gf = self.params.gf
        nsyn = len(word.synd)
        erased = word.erased
        tau = len(erased)
        if tau > nsyn:
            return None  # radius empty
        synd = word.synd
        if tau == 0 and not synd.any():
            return word.y.tolist()

        if word.locator is None:
            (word,) = self.solve_locators([word])
        lam, L = word.locator
        if 2 * L > nsyn - tau or L != len(lam) - 1:
            return None

        roots = self._error_positions(lam, erased)
        if roots is None:
            return None
        roots += erased  # the roots of Psi = Lambda Gamma

        # Forney at the roots of Psi only: e = X^-1 Omega(X^-1) / Psi_odd(X^-1),
        # where Psi_odd(x) = x Psi'(x) (char 2) sums the odd-power terms
        # deg Omega < deg Psi = len(roots), so both halves of the product
        # are zero past index len(roots) + 1
        top = len(roots) + 2
        prod = gf.poly_mul(lam, word.polys, len(word.polys)).reshape(2, nsyn + 2)
        terms = gf.exp_table[gf.log_table[prod[:, :top]] + self._forney_logs[roots, :, :top]]
        den, num = np.bitwise_xor.reduce(terms, axis=2).T
        e = gf.div_array(num, den)

        # the corrected word y + e is a codeword iff S(y) = S(e)
        if (gf.vecmat(e, self._syndrome_logs[roots]) != synd).any():
            return None
        c = word.y.copy()
        c[roots] ^= e
        return c.tolist()

    def _error_positions(self, lam: list[int], erased: list[int]) -> list[int] | None:
        """Chien search of Lambda over all positions: the positions of its
        L = len(lam) - 1 roots, or None unless it has L distinct roots at
        code positions and none of them is erased.

        That is the test that Psi = Lambda Gamma has deg Psi distinct roots
        at code positions. Psi is then squarefree, so the Forney
        denominator Psi_odd is nonzero at each of its roots.
        """
        vals = self.params.gf.vecmat(lam, self._chien_logs)
        roots = np.flatnonzero(vals == 0).tolist()
        if len(roots) != len(lam) - 1 or not set(roots).isdisjoint(erased):
            return None
        return roots

    def erasure_trials(self, symbols: list, order=(), taus=(0,)) -> list[ErasedWord]:
        """The trials of one received word, one per tau of `taus`,
        non-negative integers in non-decreasing order (anything else is a
        CodeError): trial tau erases the input erasures (None) and then
        order[:tau], skipping positions already erased.

        S(y) is computed once. Each trial's Gamma/T buffer is a row of one
        array, a copy of the row before grown by one linear factor per new
        position. The trials carry no locator: `solve_locators` gives
        them theirs.
        """
        p = self.params
        n, gf = p.n, p.gf
        if len(symbols) != n:
            raise CodeError("received word length mismatch")
        y = _erasures_as_zero(symbols, gf)
        synd = gf.vecmat(y, self._syndrome_logs)
        nsyn = len(synd)
        sequence = [i for i, s in enumerate(symbols) if s is None]
        first = len(sequence)
        sequence += order
        # intp: a log-table gather indexed by it needs no cast
        rows = np.zeros((len(taus), 2 * nsyn + 4), dtype=np.intp)
        trials: list[ErasedWord] = []
        erased: list[int] = []
        is_erased = bytearray(n)
        done = 0
        for tau in taus:
            require_integer("tau", tau, CodeError)
            row = rows[len(trials)]
            if trials:
                row[:] = trials[-1].polys
            else:
                row[1] = 1
                row[nsyn + 3 : 2 * nsyn + 3] = synd
            end = first + tau
            if tau < 0 or end < done:
                raise CodeError(f"taus must be non-negative and non-decreasing, got {taus}")
            # one shift-and-add over the whole row updates both polynomials:
            # Gamma's top coefficient spills into T's leading zero only past
            # n-k erasures, where decoding fails anyway
            out, shifted = row[1:], row[:-1]
            for i in sequence[done:end]:
                if not is_erased[i]:
                    is_erased[i] = 1
                    erased.append(i)
                    gf.mul_linear(out, shifted, n - 1 - i)
            done = end
            trials.append(ErasedWord(y, synd, erased[:], row))
        return trials

    def solve_locators(self, trials: list[ErasedWord]) -> list[ErasedWord]:
        """The trials, each with its error locator (Lambda, L) solved from
        its Forney syndromes: in one row-batched Berlekamp-Massey pass for
        two or more trials from ROW_BM_MIN_CHECKS check symbols on, which
        needs them in non-decreasing order of erasure count, as
        `erasure_trials` builds them, and by the scalar steps per trial
        otherwise."""
        nsyn = self.params.n - self.params.k
        # the coefficients tau..n-k-1 of T = Gamma S mod x^(n-k) are the
        # Forney syndromes, the same whatever symbols sit at the erasures
        forney = [t.gamma_s[len(t.erased) :] for t in trials]
        if len(trials) < 2 or nsyn < ROW_BM_MIN_CHECKS:
            locators = [self._berlekamp_massey(f.tolist()) for f in forney]
        else:
            # row j: trial j's Forney syndromes, left-aligned; the columns
            # past them are never read
            synd = np.zeros((len(trials), nsyn), dtype=np.intp)
            for row, f in zip(synd, forney):
                row[: len(f)] = f
            lam, L = self._berlekamp_massey_rows(synd, [len(f) for f in forney])
            # deg Lambda: the index of the last nonzero coefficient
            deg = (len(lam) - 1 - np.argmax(lam[::-1] != 0, axis=0)).tolist()
            locators = [(c[: d + 1], l) for c, d, l in zip(lam.T.tolist(), deg, L.tolist())]
        return [ErasedWord(t.y, t.synd, t.erased, t.polys, loc) for t, loc in zip(trials, locators)]

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

        A step is the scalar update on columns. The zero sentinel makes a
        zero discrepancy leave Lambda unchanged without a branch.
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
        """Lambda, trailing zeros trimmed, and L for one syndrome list."""
        gf = self.params.gf
        exp, log = gf.exp, gf.log  # zero-sentinel lists: no branch on 0
        order = gf.q - 1
        log_synd = [log[s] for s in synd]
        lam = [1]  # deg Lambda <= L: L + 1 coefficients
        lp, lbeta, shift = [0], 0, 0  # P = 1, beta = 1, m = -1
        L = 0
        for r, s in enumerate(synd):
            delta = s
            for j in range(1, L + 1):
                delta ^= exp[log[lam[j]] + log_synd[r - j]]
            shift += 1
            if delta == 0:
                continue
            log_delta = log[delta]
            lscale = log[exp[log_delta + lbeta]]  # log(delta beta) mod q-1
            update, at = lp, shift
            if 2 * L <= r:
                lp, lbeta, shift = [log[c] for c in lam], order - log_delta, 0
                lam += [0] * (r + 1 - 2 * L)
                L = r + 1 - L
            for j, c in enumerate(update, at):
                lam[j] ^= exp[c + lscale]
        # trim trailing zeros
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        return lam, L

"""Reed-Solomon encoding and algebraic error/erasure decoding.

Systematic generator-polynomial encoding with roots alpha^1..alpha^(n-k).
Decoding is bounded-minimum-distance with erasures: Forney syndromes,
Berlekamp-Massey for the error locator, Chien search and the Forney
magnitude formula. A word with eps errors and tau erasures is recovered
whenever 2*eps + tau <= d_min - 1.

Every step of order n*(n-k) is an array kernel of `GF` (one table gather
and an XOR-reduce, see `erasurelab.gf`) on matrices of logarithms built
once per code: the k x (n-k) parity matrix of the encoder, the n x (n-k)
syndrome matrix (also the final codeword check) and the Chien power
table, whose columns at the roots also give the Forney magnitudes. g(x)
and the erasure locator Gamma(x) are built one linear factor at a time;
the Forney syndromes, Psi(x) and Omega(x) are array polynomial products.
Berlekamp-Massey is scalar, on the field's zero-sentinel table lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF


class CodeError(ValueError):
    pass


@dataclass(frozen=True)
class CodeParams:
    """RS(q; n, k, d_min) over GF(2^m); d_min = n - k + 1 (MDS)."""

    gf: GF
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k < self.n <= self.gf.q - 1):
            raise CodeError(f"need 1 <= k < n <= q-1, got n={self.n} k={self.k} q={self.gf.q}")

    @property
    def q(self) -> int:
        return self.gf.q

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1


@dataclass
class ReceivedWord:
    """Hard-decision symbols (None marks an erasure) with per-position unreliabilities."""

    symbols: list  # list of int | None, length n
    unreliability: np.ndarray  # shape (n,), values in [0, 1)

    def __post_init__(self):
        self.unreliability = np.asarray(self.unreliability, dtype=float)
        if len(self.symbols) != len(self.unreliability):
            raise CodeError("symbols and unreliability lengths differ")
        if np.any(~np.isfinite(self.unreliability)):
            raise CodeError("unreliability entries must be finite")
        if np.any(self.unreliability < 0) or np.any(self.unreliability >= 1):
            raise CodeError("unreliability entries must lie in [0, 1)")

    @property
    def erasure_count(self) -> int:
        return sum(1 for s in self.symbols if s is None)


def erase_most_unreliable(symbols: list, unreliability: np.ndarray, tau: int) -> ReceivedWord:
    """Erase the tau positions with the largest unreliability (stable order)."""
    h = np.asarray(unreliability, dtype=float)
    out = list(symbols)
    if tau > 0:
        # stable sort keeps position order among equal unreliabilities
        idx = np.argsort(-h, kind="stable")[:tau]
        for i in idx:
            out[int(i)] = None
    return ReceivedWord(out, h)


def _erasures_as_zero(symbols: list) -> np.ndarray:
    return np.array([0 if s is None else s for s in symbols])


class RSCodec:
    """Encoder/decoder pair for one code."""

    def __init__(self, params: CodeParams):
        self.params = params
        gf = params.gf
        n, k = params.n, params.k
        nsyn = n - k
        order = gf.q - 1
        # g(x) = prod_{j=1}^{n-k} (x + alpha^j), the reversal of prod (1 + alpha^j x)
        g = gf.linear_factors(np.arange(1, nsyn + 1))[::-1]
        self.generator = g
        # x^(n-1-i) mod g(x) is the parity of a unit at info position i:
        # rows by the recursion x^(t+1) mod g = x * (x^t mod g) mod g
        parity = np.empty((k, nsyn), dtype=gf.dtype)
        row = g[:nsyn]  # x^(n-k) mod g
        for i in range(k - 1, -1, -1):
            parity[i] = row
            row = np.concatenate(([0], row[:-1])) ^ gf.mul_array(row[-1], g[:nsyn])
        # parity position k + t holds the coefficient of x^(n-k-1-t)
        self._parity_logs = gf.log_table[parity[:, ::-1]]
        powers = np.arange(n - 1, -1, -1)  # X_i = alpha^(n-1-i)
        # S_j = sum_i r_i X_i^j, j = 1..n-k
        self._syndrome_logs = np.outer(powers, np.arange(1, nsyn + 1)) % order
        # Psi(X_i^-1) = sum_t Psi_t X_i^-t for deg Psi <= n-k
        self._chien_logs = np.outer(np.arange(nsyn + 1), -powers) % order

    # position i <-> coefficient of x^(n-1-i); info occupies positions 0..k-1

    def encode(self, info: list[int]) -> list[int]:
        p = self.params
        if len(info) != p.k:
            raise CodeError(f"info length {len(info)} != k={p.k}")
        parity = p.gf.vecmat(np.asarray(info), self._parity_logs)
        return list(info) + parity.tolist()

    def _syndromes(self, received: np.ndarray) -> np.ndarray:
        return self.params.gf.vecmat(received, self._syndrome_logs)

    def syndromes(self, symbols: list[int]) -> list[int]:
        """S_j = R(alpha^j) for j = 1..n-k, with erasures read as zero."""
        return self._syndromes(_erasures_as_zero(symbols)).tolist()

    def is_codeword(self, symbols: list[int]) -> bool:
        return not self._syndromes(_erasures_as_zero(symbols)).any()

    def decode_ee(self, word: ReceivedWord) -> list[int] | None:
        """Error/erasure decode; returns a codeword or None on failure."""
        p = self.params
        gf = p.gf
        n, k = p.n, p.k
        if len(word.symbols) != n:
            raise CodeError("received word length mismatch")
        nsyn = n - k

        erased = [i for i, s in enumerate(word.symbols) if s is None]
        tau = len(erased)
        if tau > nsyn:
            return None  # radius empty

        r = _erasures_as_zero(word.symbols)
        synd = self._syndromes(r)
        if tau == 0 and not synd.any():
            return r.tolist()

        # erasure locator polynomial Gamma(x) = prod (1 + X x), X = alpha^(n-1-i)
        gamma = gf.linear_factors([n - 1 - i for i in erased])
        # T(x) = Gamma(x) S(x) mod x^(n-k), with S(x) = sum S_j x^(j-1);
        # its coefficients tau..n-k-1 are the Forney syndromes
        gamma_s = gf.poly_mul(gamma, synd, nsyn)

        lam, L = self._berlekamp_massey(gamma_s[tau:].tolist())
        if 2 * L > nsyn - tau or L != len(lam) - 1:
            return None
        psi = gf.poly_mul(lam, gamma)

        # Chien search over all positions: terms[t, i] = Psi_t X_i^-t
        terms = gf.products(psi, self._chien_logs)
        roots = np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)
        if len(roots) != len(psi) - 1:
            return None

        # Forney: e = Omega(X^-1) / Psi'(X^-1) = X^-1 Omega(X^-1) / Psi_odd(X^-1),
        # where Psi_odd(x) = x Psi'(x) (char 2) sums the odd-power terms
        # and Omega(x) = Psi(x) S(x) mod x^(n-k) = Lambda(x) T(x) mod x^(n-k)
        den = np.bitwise_xor.reduce(terms[1::2, roots], axis=0)
        if not den.all():
            return None
        omega = gf.poly_mul(lam, gamma_s, nsyn)
        r[roots] ^= gf.div_array(gf.vecmat(omega, self._chien_logs[1:, roots]), den)

        if self._syndromes(r).any():
            return None
        return r.tolist()

    def _berlekamp_massey(self, synd: list[int]) -> tuple[list[int], int]:
        gf = self.params.gf
        exp, log = gf.exp, gf.log  # zero-sentinel lists: no branch on 0
        order = gf.q - 1
        log_synd = [log[s] for s in synd]
        lam = [1]
        b = [1]
        L = 0
        for r, s in enumerate(synd):
            delta = s
            for j in range(1, min(len(lam), r + 1)):
                delta ^= exp[log[lam[j]] + log_synd[r - j]]
            b.insert(0, 0)
            if delta != 0:
                log_delta = log[delta]
                t = lam + [0] * (len(b) - len(lam))
                for j, c in enumerate(b):
                    t[j] ^= exp[log_delta + log[c]]
                if 2 * L <= r:
                    log_dinv = order - log_delta
                    b = [exp[log_dinv + log[c]] for c in lam]
                    L = r + 1 - L
                lam = t
        # trim trailing zeros
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        return lam, L

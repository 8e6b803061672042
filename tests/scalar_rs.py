"""Scalar reference codec for the differential tests of `erasurelab.rs`.

`ScalarRSCodec` is the pure-Python encoder and error/erasure decoder that
the array kernels of `RSCodec` replaced, kept verbatim apart from its name,
its polynomial product and its field helpers: `scalar_poly_mul` is the
list-based product that `GF.poly_mul` was before, and `inv`, `div`,
`alpha_pow` and `poly_eval` are the scalar `GF` methods of the same names,
now free functions, since only the tests use them. `mul_noLUT` is the
table-free product that `tests/test_gf.py` checks the tables against.
`erase_word` is the one-word form that `rs.erase_most_unreliable` had,
with a Python sort in place of numpy's stable argsort.
`list_berlekamp_massey` is the list form of `RSCodec._berlekamp_massey`
that its byte form replaced: the state Lambda, L, log beta and the logs
of P on the field's zero-sentinel lists, and an inner product a step for
the discrepancy.
"""

from __future__ import annotations

from erasurelab.rs import CodeError, CodeParams, ReceivedWord


def inv(gf, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^m)")
    return gf.exp[gf.q - 1 - gf.log[a]]


def div(gf, a: int, b: int) -> int:
    return gf.mul(a, inv(gf, b))


def alpha_pow(gf, e: int) -> int:
    """alpha^e for the table generator alpha."""
    return gf.exp[e % (gf.q - 1)]


def poly_eval(gf, p: list[int], x: int) -> int:
    """Evaluate p (ascending coefficients) at x by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = gf.mul(acc, x) ^ c
    return acc


def erase_word(symbols, unreliability, tau: int) -> ReceivedWord:
    """The word with its tau most unreliable positions erased (None), the
    earlier position first among equal unreliabilities."""
    out = list(symbols)
    for i in sorted(range(len(out)), key=lambda i: -unreliability[i])[: max(tau, 0)]:
        out[i] = None
    return ReceivedWord(out, unreliability)


def mul_noLUT(gf, a: int, b: int) -> int:
    """Carry-less polynomial multiply reduced by the primitive polynomial."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & gf.q:
            a ^= gf.primitive_poly
    return r


def scalar_poly_mul(gf, p: list[int], q: list[int]) -> list[int]:
    """The list-based product that `GF.poly_mul` was before its array kernel."""
    r = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            r[i + j] ^= gf.mul(pi, qj)
    return r


def list_berlekamp_massey(gf, synd: list[int]) -> tuple[list[int], int]:
    """Lambda, trailing zeros trimmed, and L for one syndrome list, by the
    list form that `RSCodec._berlekamp_massey` was before its byte form."""
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


class ScalarRSCodec:
    """The scalar encoder/decoder pair that the array kernels replaced."""

    def __init__(self, params: CodeParams):
        self.params = params
        gf = params.gf
        # g(x) = prod_{j=1}^{n-k} (x - alpha^j)
        g = [1]
        for j in range(1, params.n - params.k + 1):
            g = scalar_poly_mul(gf, g, [alpha_pow(gf, j), 1])
        self.generator = g

    # position i <-> coefficient of x^(n-1-i); info occupies positions 0..k-1

    def encode(self, info: list[int]) -> list[int]:
        p = self.params
        gf = p.gf
        if len(info) != p.k:
            raise CodeError(f"info length {len(info)} != k={p.k}")
        nparity = p.n - p.k
        # long division of info(x) * x^(n-k) by g(x)
        rem = [0] * nparity
        for a in info:
            top = a ^ rem[-1]
            rem = [0] + rem[:-1]
            if top:
                for j in range(nparity):
                    rem[j] ^= gf.mul(top, self.generator[j])
        parity = rem[::-1]  # position order (descending powers)
        return list(info) + parity

    def syndromes(self, symbols: list[int]) -> list[int]:
        """S_j = R(alpha^j) for j = 1..n-k, with erasures read as zero."""
        p = self.params
        gf = p.gf
        coeffs = [0 if s is None else s for s in reversed(symbols)]  # coeff of x^i
        return [poly_eval(gf, coeffs, alpha_pow(gf, j)) for j in range(1, p.n - p.k + 1)]

    def is_codeword(self, symbols: list[int]) -> bool:
        return all(s == 0 for s in self.syndromes(symbols))

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

        received = [0 if s is None else s for s in word.symbols]
        synd = self.syndromes(received)
        if tau == 0 and all(s == 0 for s in synd):
            return received

        # erasure locators X_i = alpha^(n-1-i)
        eras_loc = [alpha_pow(gf, n - 1 - i) for i in erased]

        # Forney syndromes: fold each erasure factor (1 + X x) into S(x),
        # dropping the constant term each time
        fsynd = list(synd)
        for X in eras_loc:
            for j in range(len(fsynd) - 1):
                fsynd[j] = gf.mul(fsynd[j], X) ^ fsynd[j + 1]
            fsynd[-1] = gf.mul(fsynd[-1], X)
        fsynd = fsynd[: nsyn - tau]

        lam, L = self._berlekamp_massey(fsynd)
        if 2 * L > nsyn - tau or L != len(lam) - 1:
            return None

        # erasure locator polynomial Gamma(x) = prod (1 + X x)
        gamma = [1]
        for X in eras_loc:
            gamma = scalar_poly_mul(gf, gamma, [1, X])
        psi = scalar_poly_mul(gf, lam, gamma)

        # Chien search over all positions
        roots = []  # positions i with Psi(X_i^{-1}) = 0
        deg_psi = len(psi) - 1
        for i in range(n):
            xinv = alpha_pow(gf, -(n - 1 - i))
            if poly_eval(gf, psi, xinv) == 0:
                roots.append(i)
        if len(roots) != deg_psi:
            return None

        # Omega(x) = Psi(x) S(x) mod x^(n-k), with S(x) = sum S_j x^(j-1)
        omega = scalar_poly_mul(gf, psi, synd)[:nsyn]
        # formal derivative of Psi (char 2: odd-power terms survive)
        dpsi = [psi[j] if j % 2 == 1 else 0 for j in range(1, len(psi))]

        corrected = list(received)
        for i in roots:
            xinv = alpha_pow(gf, -(n - 1 - i))
            den = poly_eval(gf, dpsi, xinv)
            if den == 0:
                return None
            mag = div(gf, poly_eval(gf, omega, xinv), den)
            corrected[i] ^= mag

        if not self.is_codeword(corrected):
            return None
        return corrected

    def _berlekamp_massey(self, synd: list[int]) -> tuple[list[int], int]:
        gf = self.params.gf
        lam = [1]
        b = [1]
        L = 0
        for r, s in enumerate(synd):
            delta = s
            for j in range(1, len(lam)):
                if r - j < 0:
                    break
                delta ^= gf.mul(lam[j], synd[r - j])
            b = [0] + b
            if delta != 0:
                t = [0] * max(len(lam), len(b))
                for j, c in enumerate(lam):
                    t[j] ^= c
                for j, c in enumerate(b):
                    t[j] ^= gf.mul(delta, c)
                if 2 * L <= r:
                    dinv = inv(gf, delta)
                    b = [gf.mul(dinv, c) for c in lam]
                    L = r + 1 - L
                lam = t
        # trim trailing zeros
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        return lam, L

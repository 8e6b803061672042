"""GF(2^m) arithmetic via log/antilog tables.

Addition is XOR; multiplication and inversion go through the discrete
logarithm tables generated from a primitive polynomial. The tables carry a
zero sentinel: the logarithm of 0 is 2(q-1), and the antilog table is zero
from index 2(q-1) onward, so the product of any two elements, zero
included, is ``exp[log[a] + log[b]]``, with no branch and no modulo.

The scalar product `mul` reads the tables as lists. The array kernels read
them as numpy arrays (`log_table`, `exp_table`), after the lookup-table ufuncs
of the `galois` library (https://github.com/mhostetter/galois): a product
of arrays is one gather, a sum of products that gather followed by an
XOR-reduce.
"""

from __future__ import annotations

import numpy as np


class FieldError(ValueError):
    pass


# conventional primitive polynomials, bitmask includes the x^m term
DEFAULT_POLYS = {
    4: 0x13,   # x^4 + x + 1
    8: 0x11D,  # x^8 + x^4 + x^3 + x^2 + 1
}


class GF:
    """Binary extension field GF(2^m).

    Parameters
    ----------
    m : int
        Extension degree (>= 1).
    primitive_poly : int, optional
        Bitmask of a primitive polynomial of degree m. Defaults to a
        conventional choice for m in {4, 8}.
    """

    def __init__(self, m: int, primitive_poly: int | None = None):
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        if primitive_poly is None:
            try:
                primitive_poly = DEFAULT_POLYS[m]
            except KeyError:
                raise FieldError(f"no default primitive polynomial for m={m}")
        if primitive_poly.bit_length() != m + 1:
            raise FieldError("primitive_poly must have degree exactly m")

        self.m = m
        self.q = 1 << m
        self.primitive_poly = primitive_poly

        order = self.q - 1
        antilog = [0] * order
        log = [0] * self.q
        x = 1
        for i in range(order):
            if x == 1 and i > 0:
                # generator cycle shorter than 2^m - 1
                raise FieldError("polynomial is not primitive")
            antilog[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= primitive_poly
        if x != 1:
            raise FieldError("polynomial is not irreducible/primitive")

        # zero-sentinel tables: the log of 0 is 2(q-1) and exp is zero from
        # 2(q-1) onward, so a log sum of two nonzero elements (at most
        # 2(q-2)) finds their product and one with a zero factor (from
        # 2(q-1) to 4(q-1)) finds 0
        self.zero_log = 2 * order
        log[0] = self.zero_log
        self.antilog = antilog
        self.log = log
        self.exp = antilog * 2 + [0] * (2 * order + 1)
        # the same tables as arrays, for the array kernels; read-only, as
        # every codec on the field shares them
        self.dtype = np.min_scalar_type(order)
        self.log_table = np.array(log, dtype=np.intp)
        self.exp_table = np.array(self.exp, dtype=self.dtype)
        self.log_table.setflags(write=False)
        self.exp_table.setflags(write=False)

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    # -- array kernels (element arrays of dtype self.dtype or any int) --

    def div_array(self, a, b) -> np.ndarray:
        """Elementwise a / b; every entry of b must be nonzero."""
        return self.exp_table[self.log_table[a] + (self.q - 1 - self.log_table[b])]

    def vecmat(self, v, log_matrix: np.ndarray) -> np.ndarray:
        """The vector-matrix product v·M, with M given by its logarithms
        (entries in [0, q-2], or the zero sentinel for a zero entry): the
        products v_i * M[i, j] in one gather, XOR-reduced over i. Rows of
        M beyond len(v) are ignored. A (rows, I) v gives the product of
        each row, with one M or, for an M of shape (rows, I, J), each with
        its own."""
        lv = self.log_table[v]
        if lv.ndim == 1:
            return np.bitwise_xor.reduce(self.exp_table[lv[:, None] + log_matrix[: len(lv)]], axis=0)
        terms = self.exp_table[lv[:, :, None] + log_matrix[..., : lv.shape[1], :]]
        return np.bitwise_xor.reduce(terms, axis=1)

    def linear_factors(self, exponents) -> np.ndarray:
        """Coefficients (ascending powers) of prod_e (1 + alpha^e x) over
        the given exponents, each in [0, q-2]: one vector update per factor."""
        buf = np.zeros(len(exponents) + 2, dtype=self.dtype)
        buf[1] = 1
        out, shifted = buf[1:], buf[:-1]
        for e in exponents:
            # exp_table[e:] maps the log of b to alpha^e * b, 0 included
            out ^= self.exp_table[e:][self.log_table[shifted]]
        return out

    # -- polynomial helpers (coefficient sequences, index = power of x) --

    def poly_mul(self, p, q, hi: int | None = None) -> np.ndarray:
        """Coefficients 0..hi-1 of p(x)·q(x), hi defaulting to the full
        length len(p) + len(q) - 1 (a smaller hi is the product mod x^hi).

        The logs of q, padded with zero sentinels, are read through a
        strided view whose column t holds the factors of q facing p's
        reversed coefficients in product coefficient t; one gather and
        an XOR-reduce over the rows give every coefficient.
        """
        lp = self.log_table[p]
        m = len(lp)
        if hi is None:
            hi = m + len(q) - 1
        padded = np.full(len(q) + 2 * (m - 1), self.zero_log, dtype=np.intp)
        padded[m - 1 : m - 1 + len(q)] = self.log_table[q]
        step = padded.itemsize
        cols = np.ndarray((m, hi), np.intp, padded, 0, (step, step))
        return np.bitwise_xor.reduce(self.exp_table[cols + lp[::-1, None]], axis=0)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from erasurelab.gf import GF, DEFAULT_POLYS, FieldError
from scalar_rs import alpha_pow, div, inv, mul_noLUT, poly_eval, scalar_poly_mul


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


@pytest.fixture(scope="module")
def gf4():
    return GF(4)


def test_default_polys():
    assert DEFAULT_POLYS[8] == 0x11D
    assert DEFAULT_POLYS[4] == 0x13


def test_table_sizes(gf8, gf4):
    assert gf8.q == 256
    assert gf4.q == 16
    assert sorted(gf8.antilog) == list(range(1, 256))


def test_non_primitive_polynomial_rejected():
    # x^8 + x^4 + x^3 + x + 1 (0x11B) is irreducible but not primitive
    with pytest.raises(FieldError):
        GF(8, primitive_poly=0x11B)


def test_mul_identity_and_zero(gf8):
    for a in range(256):
        assert gf8.mul(a, 1) == a
        assert gf8.mul(a, 0) == 0


def test_mul_matches_shift_reduce_exhaustive(gf4):
    for a in range(16):
        for b in range(16):
            assert gf4.mul(a, b) == mul_noLUT(gf4, a, b)


@given(st.integers(0, 255), st.integers(0, 255))
def test_mul_matches_shift_reduce_gf256(a, b):
    gf = GF(8)
    assert gf.mul(a, b) == mul_noLUT(gf, a, b)


@pytest.mark.parametrize("m", [4, 8])
def test_array_and_scalar_mul_match_shift_reduce_all_pairs(m):
    """Every pair, zero included, against the table-free multiply: `mul`,
    and the array tables as one gather exp[log a + log b], with which
    `div_array`'s quotients times their divisors give back the dividends."""
    gf = GF(m)
    elems = np.arange(gf.q)
    expected = [[mul_noLUT(gf, a, b) for b in range(gf.q)] for a in range(gf.q)]
    assert [[gf.mul(a, b) for b in range(gf.q)] for a in range(gf.q)] == expected
    log, exp = gf.log_table, gf.exp_table
    assert exp[log[elems[:, None]] + log[elems[None, :]]].tolist() == expected
    quotients = gf.div_array(elems[:, None], elems[None, 1:])
    assert (exp[log[quotients] + log[elems[None, 1:]]] == elems[:, None]).all()


def test_poly_kernels_match_scalar_products(gf8):
    """poly_mul (full and truncated mod x^hi), linear_factors and vecmat
    against list-based products and Horner evaluation."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.integers(0, 256, rng.integers(1, 12)).tolist()
        q = rng.integers(0, 256, rng.integers(1, 12)).tolist()
        full = scalar_poly_mul(gf8, p, q)
        assert gf8.poly_mul(p, q).tolist() == full
        hi = int(rng.integers(0, len(full) + 1))
        assert gf8.poly_mul(p, q, hi).tolist() == full[:hi]
        exponents = rng.integers(0, 255, rng.integers(0, 10)).tolist()
        expected = [1]
        for e in exponents:
            expected = scalar_poly_mul(gf8, expected, [1, alpha_pow(gf8, e)])
        assert gf8.linear_factors(exponents).tolist() == expected
        # vecmat against column j = powers of alpha^j: p reversed, at alpha^j
        col = np.outer(np.arange(len(p) - 1, -1, -1), np.arange(5)) % 255
        at = [poly_eval(gf8, p[::-1], alpha_pow(gf8, j)) for j in range(5)]
        assert gf8.vecmat(p, col).tolist() == at


def test_inverse_exhaustive(gf8):
    for a in range(1, 256):
        assert gf8.mul(a, inv(gf8, a)) == 1


def test_inv_zero_raises(gf8):
    with pytest.raises(ZeroDivisionError):
        inv(gf8, 0)
    with pytest.raises(ZeroDivisionError):
        div(gf8, 1, 0)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms(a, b, c):
    gf = GF(8)
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    # distributivity
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


def test_pow_and_alpha(gf8):
    assert alpha_pow(gf8, 0) == 1
    assert alpha_pow(gf8, 1) == 2
    assert alpha_pow(gf8, 255) == 1
    assert alpha_pow(gf8, -1) == inv(gf8, 2)
    assert alpha_pow(gf8, 8) == 0x1D  # alpha^8 = reduction tail of 0x11D


def test_poly_eval_horner(gf8):
    # p(x) = 3 + 5x + 7x^2 at x = 2 over GF(256), coefficients ascending
    expected = 3 ^ gf8.mul(5, 2) ^ gf8.mul(7, gf8.mul(2, 2))
    assert poly_eval(gf8, [3, 5, 7], 2) == expected


def test_poly_mul_degree_and_values(gf8):
    a = [1, 2, 3]
    b = [4, 5]
    prod = gf8.poly_mul(a, b)
    assert len(prod) == len(a) + len(b) - 1
    for x in (1, 2, 77, 201):
        assert poly_eval(gf8, prod, x) == gf8.mul(poly_eval(gf8, a, x), poly_eval(gf8, b, x))

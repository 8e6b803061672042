import math

import pytest

from erasurelab.dcf import NO_CAPABILITY, DecoderCapability, DecoderKind
from erasurelab.gf import GF
from erasurelab.rs import CodeParams


@pytest.fixture(scope="module")
def code255():
    return CodeParams(GF(8), 255, 144)


@pytest.fixture(scope="module")
def code15():
    return CodeParams(GF(4), 15, 7)


def caps(code, ells=(1, 2, 3)):
    yield DecoderCapability(DecoderKind.BMD, code)
    for ell in ells:
        yield DecoderCapability(DecoderKind.IRS, code, ell)
    yield DecoderCapability(DecoderKind.GS, code)


def test_spot_values_255_144(code255):
    assert DecoderCapability(DecoderKind.BMD, code255).epsilon0(0) == 55
    assert DecoderCapability(DecoderKind.GS, code255).epsilon0(0) == 64
    assert DecoderCapability(DecoderKind.BMD, code255).epsilon0(111) == 0
    assert DecoderCapability(DecoderKind.BMD, code255).epsilon0(112) == NO_CAPABILITY


def test_dcf_values(code255):
    bmd = DecoderCapability(DecoderKind.BMD, code255)
    assert bmd.dcf_value(10, 5) == 255 - 5 - 20
    irs = DecoderCapability(DecoderKind.IRS, code255, 2)
    assert irs.dcf_value(10, 5) == pytest.approx(255 - 5 - 15)
    gs = DecoderCapability(DecoderKind.GS, code255)
    assert gs.dcf_value(10, 5) == pytest.approx((255 - 5 - 10) ** 2 / 250)


def test_dcf_domain_errors(code255):
    bmd = DecoderCapability(DecoderKind.BMD, code255)
    with pytest.raises(ValueError):
        bmd.dcf_value(-1, 0)
    with pytest.raises(ValueError):
        bmd.dcf_value(0, 256)
    gs = DecoderCapability(DecoderKind.GS, code255)
    with pytest.raises(ValueError):
        gs.dcf_value(0, 255)
    with pytest.raises(ValueError):
        gs.epsilon0(255)
    with pytest.raises(ValueError):
        DecoderCapability("bmd", code255)


@pytest.mark.parametrize("kind, ell", [
    (DecoderKind.IRS, 1.5),
    (DecoderKind.IRS, 2.0),
    (DecoderKind.IRS, True),
    (DecoderKind.BMD, 1.0),
])
def test_ell_must_be_an_integer(code15, kind, ell):
    """A non-integer or bool ell fails when the capability is built, not
    with a table for a meaningless ell."""
    with pytest.raises(ValueError, match="ell must be an integer"):
        DecoderCapability(kind, code15, ell)


def test_epsilon0_maximality_exhaustive(code255, code15):
    """eps0 is the largest eps with f > k-1: f(eps0) > k-1 >= f(eps0+1)."""
    for code in (code255, code15):
        km1 = code.k - 1
        for cap in caps(code):
            for tau in range(0, code.n - (1 if cap.kind is DecoderKind.GS else 0)):
                e0 = cap.epsilon0(tau)
                if e0 == NO_CAPABILITY:
                    assert cap.dcf_value(0, tau) <= km1
                    continue
                assert cap.dcf_value(e0, tau) > km1
                if e0 + 1 <= code.n - tau:
                    assert cap.dcf_value(e0 + 1, tau) <= km1


def test_epsilon0_monotone_in_tau(code255):
    for cap in caps(code255):
        prev = cap.epsilon0(0)
        for tau in range(1, 254):
            cur = cap.epsilon0(tau)
            assert cur <= prev
            prev = cur


def test_gs_dominates_bmd(code255):
    bmd = DecoderCapability(DecoderKind.BMD, code255)
    gs = DecoderCapability(DecoderKind.GS, code255)
    for tau in range(0, 254):
        assert gs.epsilon0(tau) >= bmd.epsilon0(tau)


def test_irs_between_bmd_and_errors_free_limit(code15):
    """ell=1 IRS equals BMD; capability grows with ell."""
    bmd = DecoderCapability(DecoderKind.BMD, code15)
    irs1 = DecoderCapability(DecoderKind.IRS, code15, 1)
    for tau in range(0, code15.n + 1):
        assert irs1.epsilon0(tau) == bmd.epsilon0(tau)
    prev = irs1
    for ell in (2, 4, 8):
        cur = DecoderCapability(DecoderKind.IRS, code15, ell)
        for tau in range(0, code15.n + 1):
            assert cur.epsilon0(tau) >= prev.epsilon0(tau)
        prev = cur


def test_gs_integer_boundary_guard():
    """(n-tau)(k-1) a perfect square: eps at the boundary is NOT admissible."""
    code = CodeParams(GF(8), 100, 26)  # (100-0)*25 = 2500 = 50^2
    gs = DecoderCapability(DecoderKind.GS, code)
    e0 = gs.epsilon0(0)
    # f(eps) > k-1 requires (100 - eps)^2 > 2500, i.e. eps <= 49
    assert e0 == 49
    assert (100 - e0) ** 2 > 2500
    assert (100 - (e0 + 1)) ** 2 <= 2500


def test_epsilon0_table_matches_per_tau(code15, code255):
    """The table the tau choosers read is eps0(tau) for tau = 0..d_min-1,
    read-only and built once per capability value: an equal capability on
    another CodeParams object of the same code reads the same table."""
    for code in (code15, code255):
        twin = CodeParams(GF(code.gf.m), code.n, code.k)
        for cap, cap_twin in zip(caps(code, ells=(3,)), caps(twin, ells=(3,))):
            table = cap.epsilon0_table
            assert table.tolist() == [cap.epsilon0(tau) for tau in range(code.d_min)]
            assert cap.epsilon0_table is table
            assert cap_twin.epsilon0_table is table
            with pytest.raises(ValueError):
                table[0] = 0


def test_bmd_closed_form(code15):
    bmd = DecoderCapability(DecoderKind.BMD, code15)
    for tau in range(code15.n + 1):
        e0 = math.ceil((code15.n - code15.k + 1 - tau) / 2) - 1
        assert bmd.epsilon0(tau) == (e0 if e0 >= 0 else NO_CAPABILITY)


def float_epsilon0(kind, n, k, tau, ell=1):
    """eps0 from the closed forms in floating point, the GS one repaired
    by exact integer guard loops: the form the integer arithmetic of
    `DecoderCapability.epsilon0` replaced, kept as its test reference."""
    if kind is DecoderKind.BMD:
        e0 = math.ceil((n - k + 1 - tau) / 2) - 1
    elif kind is DecoderKind.IRS:
        e0 = math.ceil(ell * (n - k + 1 - tau) / (ell + 1)) - 1
    else:
        e0 = math.ceil(n - tau - math.sqrt((n - tau) * (k - 1))) - 1
        # guard against 1-ulp drift of sqrt at integer boundaries: eps is
        # admissible iff (n-tau-eps)^2 > (n-tau)(k-1), exact in integers
        while e0 + 1 <= n - tau and (n - tau - (e0 + 1)) ** 2 > (n - tau) * (k - 1):
            e0 += 1
        while e0 >= 0 and (n - tau - e0) ** 2 <= (n - tau) * (k - 1):
            e0 -= 1
    return e0 if e0 >= 0 else NO_CAPABILITY


@pytest.mark.parametrize("m, lengths", [(4, range(2, 16)), (8, (255, 100))], ids=["gf16", "gf256"])
def test_integer_epsilon0_matches_float_forms(m, lengths):
    """The integer eps0 equals the floating-point closed forms with guards
    for every k and tau: every code over GF(16), and n = 255 and n = 100
    over GF(256), where n = 100, k = 26 makes (n-tau)(k-1) a perfect
    square at tau = 0."""
    gf = GF(m)
    kinds = [(DecoderKind.BMD, 1), (DecoderKind.GS, 1)]
    kinds += [(DecoderKind.IRS, ell) for ell in (1, 2, 3, 8)]
    checked = 0
    for n in lengths:
        for k in range(1, n):
            code = CodeParams(gf, n, k)
            for kind, ell in kinds:
                cap = DecoderCapability(kind, code, ell)
                # GS is undefined at tau = n (test_dcf_domain_errors)
                for tau in range(n + (kind is not DecoderKind.GS)):
                    assert cap.epsilon0(tau) == float_epsilon0(kind, n, k, tau, ell), (kind, ell, n, k, tau)
                    checked += 1
    assert checked > (6000 if m == 4 else 400_000)

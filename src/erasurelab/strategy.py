"""Adaptive erasing strategies for single-trial error/erasure decoding.

The number of errors among the n - tau non-erased symbols is a
Poisson-binomial random variable; its distribution is the coefficient
sequence of the product of the per-symbol generating polynomials
1 - h_i + rho * h_i. The residual codeword error probability after erasing
the tau most unreliable symbols and decoding once is the tail mass beyond
the decoder's capability eps0(tau). Three choosers for tau are provided:
the exact minimizer, a Hoeffding-window approximation, and the
two-coefficient eps0 approximation.

Every distribution comes from one kernel, ``tail_coeffs``: a single
backward pass over the sorted vector, of cost O(n * width), yields the
first ``width`` coefficients for every tau at once, so each chooser costs
one pass however many tau it compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dcf import NO_CAPABILITY, DecoderCapability


class StrategyKind(Enum):
    EXACT = "exact"
    HOEFFDING = "hoeffding"
    EPS0 = "eps0"


@dataclass
class ErrorCountDistribution:
    """Pr(Y_tau = eps) for eps = 0..n-tau."""

    tau: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    def normalization_defect(self) -> float:
        return abs(float(self.coeffs.sum()) - 1.0)


@dataclass(frozen=True)
class StrategyResult:
    tau_chosen: int
    predicted_p: float
    strategy_kind: StrategyKind


def check_sorted_unreliability(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    # one pass; a NaN compares false, so it fails here
    if not np.all(h[:-1] >= h[1:]):
        raise ValueError("unreliability vector must be sorted non-increasing")
    # sorted, so the ends bound every entry
    if h.size and not (h[-1] >= 0 and h[0] < 1):
        raise ValueError("unreliabilities must lie in [0, 1)")
    return h


def tail_coeffs(h, width: int, tau_lo: int, tau_hi: int) -> np.ndarray:
    """First `width` coefficients of the distribution of Y_tau, the error
    count of the tail h[..., tau:], for every tau in [tau_lo, tau_hi].

    One backward pass, O((n - tau_lo) * width) per row: multiplying in the
    factor of h[i] turns the distribution of h[i+1:] into that of h[i:], so
    the state after column i is the one for tau = i. No coefficient feeds a
    lower one, so truncating to `width` leaves the kept ones exact, and
    those beyond n - tau stay exactly 0. `h` is one vector or a (rows, n)
    array; the result has shape (tau_hi - tau_lo + 1, width, *rows), with
    the rows last so that one vector's column is a scalar.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    if width < 1 or not 0 <= tau_lo <= tau_hi <= n:
        raise ValueError(f"need width >= 1 and 0 <= tau_lo <= tau_hi <= {n}, "
                         f"got {width}, {tau_lo}, {tau_hi}")
    # buf[0] stays 0, so one update covers coefficient 0 as well; buf[1:]
    # holds the coefficients
    buf = np.zeros((width + 1,) + h.shape[:-1])
    buf[1] = 1.0
    lower, upper = buf[:-1], buf[1:]
    out = np.empty((tau_hi - tau_lo + 1,) + upper.shape)
    if tau_hi == n:
        out[-1] = upper
    columns = h.T
    for i in range(n - 1, tau_lo - 1, -1):
        p = columns[i]
        carry = lower * p  # read before `upper`, which overlaps it, changes
        upper *= 1.0 - p
        upper += carry
        if i <= tau_hi:
            out[i - tau_lo] = upper
    return out


def pgf_distribution(h, tau: int) -> ErrorCountDistribution:
    """Error-count distribution of the non-erased tail h[tau:], O((n - tau)^2)."""
    h = check_sorted_unreliability(h)
    if not 0 <= tau <= len(h):
        raise ValueError(f"tau out of range: {tau}")
    coeffs = tail_coeffs(h, len(h) - tau + 1, tau, tau)[0]
    np.clip(coeffs, 0.0, None, out=coeffs)
    return ErrorCountDistribution(tau, coeffs)


def expectation(h, tau: int) -> float:
    """E{Y_tau} = sum of the non-erased unreliabilities."""
    h = check_sorted_unreliability(h)
    if not 0 <= tau <= len(h):
        raise ValueError(f"tau out of range: {tau}")
    return float(np.sum(h[tau:]))


def residual_error_prob(dist: ErrorCountDistribution, eps0: int) -> float:
    """1 - Pr(Y_tau <= eps0), clamped to [0, 1]; eps0 = -1 means no capability."""
    if eps0 < NO_CAPABILITY:
        raise ValueError(f"eps0 must be >= {NO_CAPABILITY}")
    if eps0 <= NO_CAPABILITY:
        return 1.0
    head = float(dist.coeffs[: eps0 + 1].sum())
    return min(1.0, max(0.0, 1.0 - head))


def _tau_sweep(h, cap: DecoderCapability):
    """eps0(tau) and the head coefficients of Y_tau for every tau in
    [0, d_min - 1], from one pass wide enough for every chooser (eps0 + 2)."""
    h = check_sorted_unreliability(h)
    eps0 = [cap.epsilon0(tau) for tau in range(cap.code.d_min)]
    return h, eps0, tail_coeffs(h, max(eps0) + 2, 0, len(eps0) - 1)


def _tail_means(h: np.ndarray, count: int) -> list[float]:
    """E{Y_tau} for tau < count by the running subtraction the Hoeffding
    window bounds were defined with."""
    means = [float(np.sum(h))]
    for tau in range(1, count):
        means.append(means[-1] - float(h[tau - 1]))
    return means


def _first_min(values, kind: StrategyKind) -> StrategyResult:
    """The smallest tau attaining the minimum (argmin returns the first)."""
    tau = int(np.argmin(values))
    return StrategyResult(tau, float(values[tau]), kind)


def p_profile(h, cap: DecoderCapability) -> np.ndarray:
    """Exact P(tau) for every tau in [0, d_min - 1]."""
    _, eps0, coeffs = _tau_sweep(h, cap)
    return np.array([
        residual_error_prob(ErrorCountDistribution(tau, c), e0)
        for tau, (c, e0) in enumerate(zip(coeffs, eps0))
    ])


def tau_star_exact(h, cap: DecoderCapability) -> StrategyResult:
    """Minimize the exact residual error probability over tau."""
    return _first_min(p_profile(h, cap), StrategyKind.EXACT)


def hoeffding_half_width(n: int) -> int:
    """Integer window half-width ceil(s) with s = sqrt(-ln(0.005) * 2n)."""
    return math.ceil(math.sqrt(-math.log(0.005) * 2.0 * n))


def tau_star_hoeffding(h, cap: DecoderCapability) -> StrategyResult:
    """Approximate each P(tau) by the window of Pr(Y_tau = eps) around E{Y_tau}."""
    h, eps0, coeffs = _tau_sweep(h, cap)
    n = len(h)
    w = hoeffding_half_width(n)
    p = np.ones(len(eps0))
    for tau, (c, e0, mean) in enumerate(zip(coeffs, eps0, _tail_means(h, len(eps0)))):
        lo = max(0, math.ceil(mean - w))
        hi = min(int(math.floor(mean + w)), e0, n - tau)  # hi < lo when e0 < 0
        if hi >= lo:
            p[tau] = min(1.0, max(0.0, 1.0 - float(c[lo : hi + 1].sum())))
    return _first_min(p, StrategyKind.HOEFFDING)


def tau_star_eps0(h, cap: DecoderCapability) -> StrategyResult:
    """Two-coefficient surrogate: 1 - Pr(Y=eps0) when E{Y} > eps0, else
    Pr(Y=eps0+1); only the first eps0+2 coefficients are ever read."""
    h, eps0, coeffs = _tau_sweep(h, cap)
    p = np.ones(len(eps0))
    for tau, (c, e0, mean) in enumerate(zip(coeffs, eps0, _tail_means(h, len(eps0)))):
        if e0 <= NO_CAPABILITY:
            continue
        if mean > e0:
            p[tau] = min(1.0, max(0.0, 1.0 - float(c[e0])))
        else:
            p[tau] = float(c[e0 + 1])
    return _first_min(p, StrategyKind.EPS0)


STRATEGIES = {
    StrategyKind.EXACT: tau_star_exact,
    StrategyKind.HOEFFDING: tau_star_hoeffding,
    StrategyKind.EPS0: tau_star_eps0,
}


def choose_tau(h, cap: DecoderCapability, kind: StrategyKind) -> StrategyResult:
    return STRATEGIES[kind](h, cap)

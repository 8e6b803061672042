"""Adaptive erasing strategies for single-trial error/erasure decoding.

The number of errors among the n - tau non-erased symbols is a
Poisson-binomial random variable Y_tau; its distribution is the coefficient
sequence of the product of the per-symbol generating polynomials
1 - h_i + rho * h_i. The residual codeword error probability after erasing
the tau most unreliable symbols and decoding once is the tail mass
P(tau) = Pr(Y_tau > eps0(tau)) beyond the decoder's capability. Three
choosers for tau are provided: the exact minimizer, a Hoeffding-window
approximation, and the two-coefficient eps0 approximation.

Every probability comes from one kernel, ``tail_coeffs``: a single backward
pass over the sorted vector, of cost O(n * width), yields the first
``width`` tail masses Pr(Y_tau >= e) for every tau at once, so each chooser
costs one pass however many tau it compares. P(tau) is one entry of it,
never 1 minus a head sum, so it keeps its relative precision far below
1e-16; a point probability is the difference of two neighbouring entries.

The choosers, `p_profile` and `pgf_distribution` take one sorted vector or
a (rows, n) block of them, one pass for the whole block; a block's result
holds per row what that row's own call gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dcf import NO_CAPABILITY, DecoderCapability
from .modem import UNRELIABILITY_CHUNK


class StrategyKind(Enum):
    EXACT = "exact"
    HOEFFDING = "hoeffding"
    EPS0 = "eps0"


@dataclass
class ErrorCountDistribution:
    """The tail masses Pr(Y_tau >= e) for e = 0..n-tau+1, the last one 0."""

    tau: int
    tails: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        """Pr(Y_tau = e) for e = 0..n-tau, the differences of neighbouring
        tail masses."""
        return self.tails[:-1] - self.tails[1:]


@dataclass(frozen=True)
class StrategyResult:
    """The chosen tau and its P(tau): an int and a float for one vector,
    one array entry per row for a (rows, n) block."""

    tau_chosen: int | np.ndarray
    predicted_p: float | np.ndarray
    strategy_kind: StrategyKind


def check_sorted_unreliability(h) -> np.ndarray:
    """`h` as a float array, one vector or a (rows, n) block, each checked
    along its last axis."""
    h = np.asarray(h, dtype=float)
    # one pass; a NaN compares false, so it fails here
    if not (h[..., :-1] >= h[..., 1:]).all():
        raise ValueError("unreliability vector must be sorted non-increasing")
    # sorted, so the ends bound every entry
    if h.size and not ((h[..., -1] >= 0) & (h[..., 0] < 1)).all():
        raise ValueError("unreliabilities must lie in [0, 1)")
    return h


def tail_coeffs(h, width: int, tau_lo: int, tau_hi: int) -> np.ndarray:
    """Tail masses Q_tau[e] = Pr(Y_tau >= e) for e = 0..width-1 of the error
    count Y_tau of the tail h[..., tau:], for every tau in [tau_lo, tau_hi].

    One backward pass, O((n - tau_lo) * width) per row: multiplying in the
    factor of h[i] turns the tail masses of h[i+1:] into those of h[i:],
    Q[e] <- Q[e] (1 - h_i) + Q[e - 1] h_i, so the state after column i is
    the one for tau = i. The update only adds products of numbers in
    [0, 1], so a tail of 1e-40 keeps its relative precision, Q[0] stays
    exactly 1 and Q stays non-increasing in e. No entry feeds a lower one,
    so truncating to `width` leaves the kept ones exact, and those beyond
    n - tau stay exactly 0. `h` is one vector or a (rows, n) array; the
    result has shape (tau_hi - tau_lo + 1, width, *rows), with the rows
    last so that one vector's column is a scalar. A single row runs as a
    vector: as the last axis it would give each array step an inner loop
    of length 1.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    if width < 1 or not 0 <= tau_lo <= tau_hi <= n:
        raise ValueError(f"need width >= 1 and 0 <= tau_lo <= tau_hi <= {n}, "
                         f"got {width}, {tau_lo}, {tau_hi}")
    rows = h.shape[:-1]
    if rows == (1,):
        h = h[0]
    # buf[0] = Pr(Y >= -1) = 1 is never written, so one update covers Q[0]
    # as well; buf[1:] holds Q, which starts as the empty tail's [1, 0, ...]
    buf = np.zeros((width + 1,) + h.shape[:-1])
    buf[:2] = 1.0
    lower, upper = buf[:-1], buf[1:]
    out = np.empty((tau_hi - tau_lo + 1,) + upper.shape)
    if tau_hi == n:
        out[-1] = upper
    # the columns are copied contiguous with their complements, a span of
    # about UNRELIABILITY_CHUNK values at a time, so that each product reads
    # them at unit stride while the copies stay chunk-sized
    carry = np.empty_like(lower)
    span = max(1, UNRELIABILITY_CHUNK // math.prod(h.shape[:-1]))
    for hi in range(n, tau_lo, -span):
        lo = max(hi - span, tau_lo)
        columns = np.ascontiguousarray(h[..., lo:hi].T)
        complements = 1.0 - columns
        for i in range(hi - 1, lo - 1, -1):
            np.multiply(lower, columns[i - lo], carry)  # before `upper`, which overlaps it, changes
            upper *= complements[i - lo]
            upper += carry
            if i <= tau_hi:
                out[i - tau_lo] = upper
    return out.reshape(out.shape[:2] + rows)


def pgf_distribution(h, tau: int) -> ErrorCountDistribution:
    """Error-count distribution of the non-erased tail h[tau:], O((n - tau)^2)
    per vector; for a (rows, n) block, the tail masses carry the rows last.

    Each Pr(Y = e) in `coeffs` is the difference Q[e] - Q[e + 1] of two
    tail masses, so it carries an absolute error of about 1e-16; the
    differences are never negative, since Q is non-increasing.
    """
    h = check_sorted_unreliability(h)
    n = h.shape[-1]
    if not 0 <= tau <= n:
        raise ValueError(f"tau out of range: {tau}")
    return ErrorCountDistribution(tau, tail_coeffs(h, n - tau + 2, tau, tau)[0])


def expectation(h, tau: int) -> float:
    """E{Y_tau} = sum of the non-erased unreliabilities."""
    h = check_sorted_unreliability(h)
    if not 0 <= tau <= len(h):
        raise ValueError(f"tau out of range: {tau}")
    return float(np.sum(h[tau:]))


def residual_error_prob(dist: ErrorCountDistribution, eps0: int) -> float | np.ndarray:
    """Pr(Y_tau > eps0), the tail mass Q[eps0 + 1], 0 past n - tau; eps0 = -1
    means no capability and reads Q[0] = 1. One P per row for a block."""
    if eps0 < NO_CAPABILITY:
        raise ValueError(f"eps0 must be >= {NO_CAPABILITY}")
    tails = dist.tails
    p = tails[min(eps0 + 1, len(tails) - 1)]
    return float(p) if tails.ndim == 1 else p


def _tau_sweep(h, cap: DecoderCapability):
    """eps0(tau), the tail masses Q_tau and E{Y_tau} for every tau in
    [0, d_min - 1], from one pass wide enough for every chooser (eps0 + 3).
    For a (rows, n) block, eps0 comes as a (d, 1) column and the means as
    (d, rows), so that both broadcast against the rows of the tails.

    The means are the running subtraction the Hoeffding window bounds were
    defined with, E{Y_tau} = E{Y_(tau-1)} - h[tau - 1], as one accumulate.
    """
    h = check_sorted_unreliability(h)
    eps0 = cap.epsilon0_table
    d = len(eps0)
    tails = tail_coeffs(h, int(eps0.max()) + 3, 0, d - 1)
    sums = h.sum(axis=-1)[None]
    means = np.subtract.accumulate(np.concatenate((sums, h[..., : d - 1].T)), axis=0)
    return h, eps0.reshape((d,) + (1,) * (h.ndim - 1)), tails, means


def _read(tails, e) -> np.ndarray:
    """Q_tau[e_tau] for each tau (and row): e broadcasts against the
    (d, *rows) shape of the means."""
    if tails.ndim == 2:
        return tails[np.arange(len(tails)), e]
    d, _, rows = tails.shape
    return tails[np.arange(d)[:, None], e, np.arange(rows)]


def _first_min(values, kind: StrategyKind) -> StrategyResult:
    """Per column, the smallest tau attaining the minimum (argmin returns
    the first)."""
    tau = values.argmin(axis=0)
    if values.ndim == 1:
        return StrategyResult(int(tau), float(values[tau]), kind)
    return StrategyResult(tau, values[tau, np.arange(values.shape[1])], kind)


def p_profile(h, cap: DecoderCapability) -> np.ndarray:
    """Exact P(tau) = Pr(Y_tau > eps0(tau)) = Q_tau[eps0 + 1] for every tau
    in [0, d_min - 1] (and row); no capability (eps0 = -1) reads
    Q_tau[0] = 1."""
    _, eps0, tails, _ = _tau_sweep(h, cap)
    return _read(tails, eps0 + 1)


def tau_star_exact(h, cap: DecoderCapability) -> StrategyResult:
    """Minimize the exact residual error probability over tau."""
    return _first_min(p_profile(h, cap), StrategyKind.EXACT)


def hoeffding_half_width(n: int) -> int:
    """Integer window half-width ceil(s) with s = sqrt(-ln(0.005) * 2n)."""
    return math.ceil(math.sqrt(-math.log(0.005) * 2.0 * n))


def tau_star_hoeffding(h, cap: DecoderCapability) -> StrategyResult:
    """Approximate each P(tau) by 1 minus the mass Q[lo] - Q[hi + 1] of the
    window [lo, hi] around E{Y_tau}, cut off at eps0: (1 - Q[lo]) + Q[hi + 1],
    exact whenever lo = 0, and 1 for an empty window."""
    h, eps0, tails, means = _tau_sweep(h, cap)
    n = h.shape[-1]
    w = hoeffding_half_width(n)
    taus = np.arange(len(eps0)).reshape(eps0.shape)
    lo = np.maximum(0, np.ceil(means - w)).astype(int)
    hi = np.minimum(np.minimum(np.floor(means + w).astype(int), eps0), n - taus)
    inside = hi >= lo  # hi < lo when eps0 < 0
    mass_from = _read(tails, np.where(inside, lo, 0))
    p = np.where(inside, (1.0 - mass_from) + _read(tails, hi + 1), 1.0)
    return _first_min(p, StrategyKind.HOEFFDING)


def tau_star_eps0(h, cap: DecoderCapability) -> StrategyResult:
    """Two-coefficient surrogate: 1 - Pr(Y=eps0) = (1 - Q[eps0]) + Q[eps0+1]
    when E{Y} > eps0, else Pr(Y=eps0+1) = Q[eps0+1] - Q[eps0+2]."""
    _, eps0, tails, means = _tau_sweep(h, cap)
    # eps0 = -1 reads `at` from the last column; the mask below discards it
    at, above, beyond = (_read(tails, eps0 + j) for j in range(3))
    p = np.where(means > eps0, (1.0 - at) + above, above - beyond)
    return _first_min(np.where(eps0 > NO_CAPABILITY, p, 1.0), StrategyKind.EPS0)


STRATEGIES = {
    StrategyKind.EXACT: tau_star_exact,
    StrategyKind.HOEFFDING: tau_star_hoeffding,
    StrategyKind.EPS0: tau_star_eps0,
}


def choose_tau(h, cap: DecoderCapability, kind: StrategyKind) -> StrategyResult:
    return STRATEGIES[kind](h, cap)

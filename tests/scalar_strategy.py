"""Reference choosers for the differential tests of `erasurelab.strategy`.

These are the per-tau loops that the array expressions over tau replaced,
kept verbatim apart from their names. They read the head coefficients
Pr(Y_tau = e) of `head_coeffs`, the kernel that `tail_coeffs` was before it
carried tail masses, and form each P(tau) as 1 minus a head sum, clamped
to [0, 1]:

* `loop_p_profile` / `loop_tau_star_exact` - the exact P(tau) profile and
  its first minimum;
* `loop_tau_star_hoeffding` - 1 minus the window mass around E{Y_tau};
* `loop_tau_star_eps0` - the two-coefficient surrogate;
* `loop_tail_means` - E{Y_tau} by the running subtraction that the
  Hoeffding window bounds were defined with.
"""

from __future__ import annotations

import math

import numpy as np

from erasurelab.dcf import NO_CAPABILITY
from erasurelab.strategy import (
    StrategyKind,
    StrategyResult,
    check_sorted_unreliability,
    hoeffding_half_width,
)


def head_coeffs(h, width: int, tau_lo: int, tau_hi: int) -> np.ndarray:
    """First `width` coefficients Pr(Y_tau = e) for every tau in
    [tau_lo, tau_hi]; shape (tau_hi - tau_lo + 1, width, *rows)."""
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
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


def _head_residual(coeffs, eps0: int) -> float:
    if eps0 <= NO_CAPABILITY:
        return 1.0
    head = float(coeffs[: eps0 + 1].sum())
    return min(1.0, max(0.0, 1.0 - head))


def _tau_sweep(h, cap):
    h = check_sorted_unreliability(h)
    eps0 = [cap.epsilon0(tau) for tau in range(cap.code.d_min)]
    return h, eps0, head_coeffs(h, max(eps0) + 2, 0, len(eps0) - 1)


def loop_tail_means(h: np.ndarray, count: int) -> list[float]:
    means = [float(np.sum(h))]
    for tau in range(1, count):
        means.append(means[-1] - float(h[tau - 1]))
    return means


def _first_min(values, kind: StrategyKind) -> StrategyResult:
    tau = int(np.argmin(values))
    return StrategyResult(tau, float(values[tau]), kind)


def loop_p_profile(h, cap) -> np.ndarray:
    _, eps0, coeffs = _tau_sweep(h, cap)
    return np.array([_head_residual(c, e0) for c, e0 in zip(coeffs, eps0)])


def loop_tau_star_exact(h, cap) -> StrategyResult:
    return _first_min(loop_p_profile(h, cap), StrategyKind.EXACT)


def loop_tau_star_hoeffding(h, cap) -> StrategyResult:
    h, eps0, coeffs = _tau_sweep(h, cap)
    n = len(h)
    w = hoeffding_half_width(n)
    p = np.ones(len(eps0))
    for tau, (c, e0, mean) in enumerate(zip(coeffs, eps0, loop_tail_means(h, len(eps0)))):
        lo = max(0, math.ceil(mean - w))
        hi = min(int(math.floor(mean + w)), e0, n - tau)  # hi < lo when e0 < 0
        if hi >= lo:
            p[tau] = min(1.0, max(0.0, 1.0 - float(c[lo : hi + 1].sum())))
    return _first_min(p, StrategyKind.HOEFFDING)


def loop_tau_star_eps0(h, cap) -> StrategyResult:
    h, eps0, coeffs = _tau_sweep(h, cap)
    p = np.ones(len(eps0))
    for tau, (c, e0, mean) in enumerate(zip(coeffs, eps0, loop_tail_means(h, len(eps0)))):
        if e0 <= NO_CAPABILITY:
            continue
        if mean > e0:
            p[tau] = min(1.0, max(0.0, 1.0 - float(c[e0])))
        else:
            p[tau] = float(c[e0 + 1])
    return _first_min(p, StrategyKind.EPS0)


LOOP_STRATEGIES = {
    StrategyKind.EXACT: loop_tau_star_exact,
    StrategyKind.HOEFFDING: loop_tau_star_hoeffding,
    StrategyKind.EPS0: loop_tau_star_eps0,
}

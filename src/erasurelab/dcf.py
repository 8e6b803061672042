"""Decoder capability functions and maximal correctable error counts.

A decoder corrects eps errors and tau erasures iff f(n, eps, tau) > k - 1.
Three decoders are modeled: classical bounded-minimum-distance (BMD),
the interleaved-RS based decoder for l-punctured codes (IRS), and the
Guruswami-Sudan list decoder in the infinite-multiplicity limit (GS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .rs import CodeParams

#: sentinel for "no correction capability at this tau" (distinct from eps0 = 0)
NO_CAPABILITY = -1


class DecoderKind(Enum):
    BMD = "bmd"
    IRS = "irs"
    GS = "gs"


@dataclass(frozen=True)
class DecoderCapability:
    kind: DecoderKind
    code: CodeParams
    ell: int = 1  # IRS interleaving parameter, >= 1

    def __post_init__(self):
        if not isinstance(self.kind, DecoderKind):
            raise ValueError(f"kind must be a DecoderKind, got {self.kind!r}")
        if self.kind is DecoderKind.IRS and self.ell < 1:
            raise ValueError("IRS parameter ell must be >= 1")

    def dcf_value(self, eps: int, tau: int) -> float:
        return dcf_value(self, eps, tau)

    def epsilon0(self, tau: int) -> int:
        return epsilon0(self, tau)

    @cached_property
    def epsilon0_table(self) -> np.ndarray:
        """eps0(tau) for tau = 0..d_min-1, built on first use and read-only."""
        table = np.array([epsilon0(self, tau) for tau in range(self.code.d_min)])
        table.setflags(write=False)
        return table


def dcf_value(cap: DecoderCapability, eps: int, tau: int) -> float:
    """f(n, eps, tau) for the capability's decoder kind."""
    n = cap.code.n
    if not (0 <= tau <= n and 0 <= eps <= n - tau):
        raise ValueError(f"need 0 <= tau <= n and 0 <= eps <= n - tau, got eps={eps} tau={tau}")
    if cap.kind is DecoderKind.BMD:
        return float(n - tau - 2 * eps)
    if cap.kind is DecoderKind.IRS:
        return n - tau - (cap.ell + 1) / cap.ell * eps
    if tau == n:
        raise ValueError("GS capability undefined at tau = n")
    return (n - tau - eps) ** 2 / (n - tau)


def epsilon0(cap: DecoderCapability, tau: int) -> int:
    """Maximal eps with f(n, eps, tau) > k - 1, or NO_CAPABILITY if none.

    Closed forms: BMD ceil((n-k+1-tau)/2)-1, IRS ceil(l(n-k+1-tau)/(l+1))-1,
    GS ceil(n-tau-sqrt((n-tau)(k-1)))-1.
    """
    n, k = cap.code.n, cap.code.k
    if not (0 <= tau <= n):
        raise ValueError(f"tau out of range: {tau}")
    if cap.kind is DecoderKind.BMD:
        e0 = math.ceil((n - k + 1 - tau) / 2) - 1
    elif cap.kind is DecoderKind.IRS:
        e0 = math.ceil(cap.ell * (n - k + 1 - tau) / (cap.ell + 1)) - 1
    else:
        if tau == n:
            raise ValueError("GS capability undefined at tau = n")
        e0 = math.ceil(n - tau - math.sqrt((n - tau) * (k - 1))) - 1
        # guard against 1-ulp drift of sqrt at integer boundaries: eps is
        # admissible iff (n-tau-eps)^2 > (n-tau)(k-1), exact in integers
        while e0 + 1 <= n - tau and (n - tau - (e0 + 1)) ** 2 > (n - tau) * (k - 1):
            e0 += 1
        while e0 >= 0 and (n - tau - e0) ** 2 <= (n - tau) * (k - 1):
            e0 -= 1
    return e0 if e0 >= 0 else NO_CAPABILITY

"""Decoder capability functions and maximal correctable error counts.

A decoder corrects eps errors and tau erasures iff f(n, eps, tau) > k - 1.
Three decoders are modeled: classical bounded-minimum-distance (BMD),
the interleaved-RS based decoder for l-punctured codes (IRS), and the
Guruswami-Sudan list decoder in the infinite-multiplicity limit (GS).
`DecoderCapability` carries f and the maximal correctable error count
eps0(tau), which it computes in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .rs import CodeParams, require_integer

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
        require_integer("ell", self.ell)
        if self.kind is DecoderKind.IRS and self.ell < 1:
            raise ValueError("IRS parameter ell must be >= 1")

    def dcf_value(self, eps: int, tau: int) -> float:
        """f(n, eps, tau) for the capability's decoder kind."""
        n = self.code.n
        if not (0 <= tau <= n and 0 <= eps <= n - tau):
            raise ValueError(f"need 0 <= tau <= n and 0 <= eps <= n - tau, got eps={eps} tau={tau}")
        if self.kind is DecoderKind.BMD:
            return float(n - tau - 2 * eps)
        if self.kind is DecoderKind.IRS:
            return n - tau - (self.ell + 1) / self.ell * eps
        if tau == n:
            raise ValueError("GS capability undefined at tau = n")
        return (n - tau - eps) ** 2 / (n - tau)

    def epsilon0(self, tau: int) -> int:
        """Maximal eps with f(n, eps, tau) > k - 1, or NO_CAPABILITY if none.

        Closed forms, exact in integers: BMD (n-k-tau)//2, IRS
        (l(n-k+1-tau)-1)//(l+1), GS n-tau-isqrt((n-tau)(k-1))-1, as
        (n-tau-eps)^2 > (n-tau)(k-1) iff n-tau-eps > isqrt((n-tau)(k-1)).
        """
        n, k = self.code.n, self.code.k
        if not (0 <= tau <= n):
            raise ValueError(f"tau out of range: {tau}")
        if self.kind is DecoderKind.BMD:
            e0 = (n - k - tau) // 2
        elif self.kind is DecoderKind.IRS:
            e0 = (self.ell * (n - k + 1 - tau) - 1) // (self.ell + 1)
        elif tau == n:
            raise ValueError("GS capability undefined at tau = n")
        else:
            e0 = n - tau - math.isqrt((n - tau) * (k - 1)) - 1
        return e0 if e0 >= 0 else NO_CAPABILITY

    @cached_property
    def epsilon0_table(self) -> np.ndarray:
        """eps0(tau) for tau = 0..d_min-1, built on first use and read-only."""
        table = np.array([self.epsilon0(tau) for tau in range(self.code.d_min)])
        table.setflags(write=False)
        return table

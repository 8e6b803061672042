"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports erasurelab: the checks compare the lab's outputs with
values worked out from first principles, so a shared bug cannot hide.

* GF(2^m) by carry-less multiplication and reduction (no log tables).
* Square-QAM posterior unreliability in the separable per-axis form.
* Poisson-binomial residual error probability by direct convolution.
* Exact binomial tails for the Monte-Carlo error-count checks.
"""

from __future__ import annotations

import math

import numpy as np

#: primitive polynomials of the fields the workloads use (bit m included)
PRIMITIVE_POLYS = {4: 0x13, 8: 0x11D}


class RefField:
    """GF(2^m) with shift-and-add multiplication."""

    def __init__(self, m: int):
        self.m = m
        self.q = 1 << m
        self.poly = PRIMITIVE_POLYS[m]

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.poly
        return r

    def syndromes(self, word: list[int], count: int) -> list[int]:
        """R(alpha^j), j = 1..count; position 0 carries the highest power."""
        out = []
        x = 1
        for _ in range(count):
            x = self.mul(x, 2)
            acc = 0
            for c in word:
                acc = self.mul(acc, x) ^ c
            out.append(acc)
        return out


def qam_levels(M: int) -> np.ndarray:
    """Per-axis levels of square M-QAM at unit average symbol energy."""
    L = math.isqrt(M)
    return (2.0 * np.arange(L) - (L - 1)) * math.sqrt(3.0 / (2.0 * (M - 1)))


def noise_sigma(ebn0_db: float, M: int, n: int, k: int) -> float:
    """Per-dimension noise std: Es = 1, Eb = Es / (log2(M) * k / n)."""
    eb = n / (k * math.log2(M))
    return math.sqrt(eb * 10.0 ** (-ebn0_db / 10.0) / 2.0)


def posterior_unreliability(y: np.ndarray, levels: np.ndarray, sigma: float) -> np.ndarray:
    """Pr(hard decision wrong | y) for received points y of shape (N, 2).

    The likelihood of point (a, b) factors into one term per axis, so the
    posterior mass off the decision is 1 - 1/(Sx * Sy), where S is the
    per-axis sum of likelihoods relative to the nearest level.
    """
    denom = np.ones(len(y))
    for axis in (0, 1):
        d2 = (y[:, axis, None] - levels[None, :]) ** 2
        rel = (d2 - d2.min(axis=1, keepdims=True)) / (2.0 * sigma * sigma)
        denom *= np.exp(-rel).sum(axis=1)
    return (denom - 1.0) / denom


def sample_sorted_unreliability(
    rng: np.random.Generator, count: int, n: int, M: int, sigma: float, chunk: int = 1 << 16
) -> np.ndarray:
    """count channel uses of n uniform symbols; rows sorted non-increasing."""
    levels = qam_levels(M)
    L = len(levels)
    h = np.empty(count * n)
    for lo in range(0, count * n, chunk):
        size = min(chunk, count * n - lo)
        sent = levels[rng.integers(0, L, size=(size, 2))]
        y = sent + rng.normal(0.0, sigma, size=(size, 2))
        h[lo : lo + size] = posterior_unreliability(y, levels, sigma)
    h = -np.sort(-h.reshape(count, n), axis=1)
    return h


def bmd_eps0(d_min: int, tau: int) -> int:
    """Largest error count a BMD decoder corrects next to tau erasures."""
    return (d_min - 1 - tau) // 2


def residual_prob(h_sorted: np.ndarray, tau: int, eps0: int) -> np.ndarray:
    """Pr(more than eps0 errors among h[tau:]) for one vector or each row.

    Convolves the Bernoulli factors from the most reliable symbol upwards
    and keeps only the head coefficients 0..eps0.
    """
    h = np.atleast_2d(h_sorted)
    head = np.zeros((len(h), eps0 + 1))
    head[:, 0] = 1.0
    for i in range(h.shape[1] - 1, tau - 1, -1):
        p = h[:, i : i + 1]
        head[:, 1:] = head[:, 1:] * (1.0 - p) + head[:, :-1] * p
        head[:, 0] *= 1.0 - p[:, 0]
    out = np.clip(1.0 - head.sum(axis=1), 0.0, 1.0)
    return out if np.ndim(h_sorted) == 2 else out[0]


def residual_profile(h_sorted: np.ndarray, d_min: int) -> np.ndarray:
    """P(tau) for tau = 0..d_min-1 under BMD decoding."""
    return np.array([residual_prob(h_sorted, t, bmd_eps0(d_min, t)) for t in range(d_min)])


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(Pr(X <= k), Pr(X >= k)) for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 1.0, (1.0 if k == 0 else 0.0)
    if p >= 1.0:
        return (1.0 if k == n else 0.0), 1.0
    pmf = [math.exp(_log_binom_pmf(j, n, p)) for j in range(n + 1)]
    return min(1.0, sum(pmf[: k + 1])), min(1.0, sum(pmf[k:]))

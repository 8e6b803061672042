"""Square-QAM modem: Gray mapping, AWGN, hard decision, symbol unreliabilities.

The unreliability of a received point is the posterior probability that its
hard decision is wrong. It is computed either exactly (sum over the whole
constellation) or with the nearest-neighbor approximation (sum over the
hard decision and its axis-adjacent neighbors), both in the log-likelihood
domain with max-shift normalization. The nearest-neighbor values can be
tabulated in a small symmetry-reduced lookup table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ModemError(ValueError):
    pass


def sigma_from_ebn0(ebn0_db: float, alphabet_size: int, n: int, k: int) -> float:
    """Per-dimension AWGN standard deviation for Eb/N0 given in dB."""
    if alphabet_size < 2 or alphabet_size & (alphabet_size - 1):
        raise ModemError("alphabet_size must be a power of two >= 2")
    if not (n >= k >= 1):
        raise ModemError("need n >= k >= 1")
    return math.sqrt(
        1.0 / math.log2(alphabet_size) * (n / k) * 10.0 ** (-ebn0_db / 10.0) / 2.0
    )


class SquareQam:
    """Square 2^(2b)-QAM with per-axis reflected-binary Gray labels.

    Points live on the grid {±1, ±3, ...}^2 scaled to unit average energy.
    The symbol label concatenates the I-axis Gray code (high bits) with the
    Q-axis Gray code (low bits).
    """

    def __init__(self, M: int):
        L = math.isqrt(M)
        if L * L != M or L < 2 or (L & (L - 1)):
            raise ModemError(f"M={M} is not a square QAM size 2^(2b)")
        self.M = M
        self.L = L
        self.bits_per_axis = L.bit_length() - 1
        # unit average energy: E = 2 * scale^2 * (L^2 - 1) / 3 = 1
        self.scale = math.sqrt(3.0 / (2.0 * (L * L - 1)))
        self.levels = (2.0 * np.arange(L) - (L - 1)) * self.scale

        gray = np.arange(L) ^ (np.arange(L) >> 1)
        # symbol -> (I level index, Q level index)
        self.symbol_ix = np.empty(M, dtype=np.int64)
        self.symbol_iy = np.empty(M, dtype=np.int64)
        for ix in range(L):
            for iy in range(L):
                sym = (int(gray[ix]) << self.bits_per_axis) | int(gray[iy])
                self.symbol_ix[sym] = ix
                self.symbol_iy[sym] = iy
        # (label index) -> point
        self.points = np.stack(
            [self.levels[self.symbol_ix], self.levels[self.symbol_iy]], axis=-1
        )
        # (ix, iy) -> symbol
        self.index_symbol = np.empty((L, L), dtype=np.int64)
        self.index_symbol[self.symbol_ix, self.symbol_iy] = np.arange(M)

    # -- mapping / channel --

    def modulate(self, symbols) -> np.ndarray:
        return self.points[np.asarray(symbols, dtype=np.int64)]

    def hard_decision_indices(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis nearest level indices (ties resolved toward the lower index)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        t = (y - self.levels[0]) / (2.0 * self.scale)
        idx = np.ceil(t - 0.5).astype(np.int64)
        np.clip(idx, 0, self.L - 1, out=idx)
        return idx[:, 0], idx[:, 1]

    def hard_decision(self, y: np.ndarray) -> np.ndarray:
        """Demap received points to field symbols."""
        ix, iy = self.hard_decision_indices(y)
        return self.index_symbol[ix, iy]


def awgn(points: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise with per-dimension std sigma."""
    points = np.asarray(points, dtype=float)
    return points + rng.normal(0.0, sigma, size=points.shape)


def unreliability_exact(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Exact unreliability: posterior over the full constellation."""
    if sigma <= 0:
        raise ModemError("sigma must be > 0")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    # separable Gaussian: per-axis squared distances to the L levels
    dx = (y[:, 0:1] - qam.levels[None, :]) ** 2
    dy = (y[:, 1:2] - qam.levels[None, :]) ** 2
    d = dx[:, :, None] + dy[:, None, :]  # (N, L, L)
    e = -d / (2.0 * sigma * sigma)
    m = e.max(axis=(1, 2), keepdims=True)
    denom = np.exp(e - m).sum(axis=(1, 2))
    # the hard decision achieves the max exponent, so its shifted likelihood is 1
    return 1.0 - 1.0 / denom


def unreliability_nn(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Approximate unreliability: denominator over the hard decision and
    its axis-adjacent neighbors only."""
    if sigma <= 0:
        raise ModemError("sigma must be > 0")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ix, iy = qam.hard_decision_indices(y)
    lx = qam.levels[ix]
    ly = qam.levels[iy]
    d0 = (y[:, 0] - lx) ** 2 + (y[:, 1] - ly) ** 2
    s = np.zeros(len(y))
    step = 2.0 * qam.scale
    for dxi, dyi in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nx = ix + dxi
        ny = iy + dyi
        ok = (nx >= 0) & (nx < qam.L) & (ny >= 0) & (ny < qam.L)
        dn = (y[:, 0] - (lx + dxi * step)) ** 2 + (y[:, 1] - (ly + dyi * step)) ** 2
        s += np.where(ok, np.exp(-(dn - d0) / (2.0 * sigma * sigma)), 0.0)
    return 1.0 - 1.0 / (1.0 + s)


# region classes of the lookup table
INTERIOR = "interior"
EDGE = "edge"
CORNER = "corner"


@dataclass
class UnreliabilityLut:
    """Symmetry-reduced table of nearest-neighbor unreliabilities.

    The plane is quantized with 2^bits uniform cells per axis, giving every
    decision region the same cells_per_region x cells_per_region sub-grid
    (unbounded outer regions are clipped to the width of inner regions).
    Under the nearest-neighbor approximation, all regions of one class
    (interior / edge / corner) carry identical values up to rotation and
    reflection, so one representative sub-grid per class is stored, further
    folded by the class's own symmetry:

    * interior: mirror-symmetric in both axes -> one quadrant kept,
    * edge: mirror-symmetric along the boundary axis -> one half kept,
    * corner: symmetric about the diagonal through the point -> half kept.

    The diagonal fold of the corner leaves the cells on the diagonal itself
    unpaired; to keep the canonical entry budget of cells^2/2 per the
    64+128+128 accounting, diagonal cells are stored at half resolution
    (each even diagonal cell reads its outward odd neighbor's entry).
    """

    M: int
    bits_per_axis: int
    sigma: float
    cells_per_region: int
    entries: dict  # (class, i, j) -> h value

    @classmethod
    def build(cls, qam: SquareQam, sigma: float, bits_per_axis: int) -> "UnreliabilityLut":
        if bits_per_axis < 2:
            raise ModemError("bits_per_axis must be >= 2")
        if sigma <= 0:
            raise ModemError("sigma must be > 0")
        cells = (1 << bits_per_axis) // qam.L
        if cells < 2 or cells * qam.L != (1 << bits_per_axis):
            raise ModemError(
                f"{bits_per_axis}-bit quantization cannot resolve {qam.L} decision "
                "regions per axis"
            )
        step = 2.0 * qam.scale           # distance between adjacent points
        w = step / cells                 # cell width
        two_s2 = 2.0 * sigma * sigma

        def h_nn(u: float, v: float, nbrs: list[tuple[float, float]]) -> float:
            d0 = u * u + v * v
            acc = 0.0
            for ax, ay in nbrs:
                dn = (u - ax) ** 2 + (v - ay) ** 2
                acc += math.exp(-(dn - d0) / two_s2)
            return 1.0 - 1.0 / (1.0 + acc)

        def center(i: int) -> float:
            # offset of cell i's center from the modulation point
            return (i - (cells / 2.0 - 0.5)) * w

        interior_nbrs = [(-step, 0.0), (step, 0.0), (0.0, -step), (0.0, step)]
        edge_nbrs = [(-step, 0.0), (step, 0.0), (0.0, -step)]     # outward = +v
        corner_nbrs = [(-step, 0.0), (0.0, -step)]                # outward = +u, +v

        entries: dict = {}
        if qam.L > 2:
            for i in range(cells // 2, cells):
                for j in range(cells // 2, cells):
                    entries[(INTERIOR, i, j)] = h_nn(center(i), center(j), interior_nbrs)
            for i in range(cells // 2, cells):
                for j in range(cells):
                    entries[(EDGE, i, j)] = h_nn(center(i), center(j), edge_nbrs)
        for i in range(cells):
            for j in range(cells):
                if i > j or (i == j and i % 2 == 1):
                    entries[(CORNER, i, j)] = h_nn(center(i), center(j), corner_nbrs)
        return cls(qam.M, bits_per_axis, sigma, cells, entries)

    # -- canonicalization --

    def _fold(self, o: int) -> int:
        c = self.cells_per_region
        return o if o >= c // 2 else c - 1 - o

    def canonical_key(self, rx: int, ry: int, ox: int, oy: int, L: int):
        """Map a (region, cell offset) pair to its stored entry key."""
        c = self.cells_per_region
        x_border = rx == 0 or rx == L - 1
        y_border = ry == 0 or ry == L - 1
        if x_border and y_border:
            # rotate onto the top-right corner: outward = increasing offsets
            p = ox if rx == L - 1 else c - 1 - ox
            q = oy if ry == L - 1 else c - 1 - oy
            if p < q:
                p, q = q, p
            if p == q and p % 2 == 0:
                p = q = p + 1
            return (CORNER, p, q)
        if x_border or y_border:
            # rotate onto the top edge: a = along-edge axis, t = outward axis
            if y_border:
                a = ox
                t = oy if ry == L - 1 else c - 1 - oy
            else:
                a = oy
                t = ox if rx == L - 1 else c - 1 - ox
            return (EDGE, self._fold(a), t)
        return (INTERIOR, self._fold(ox), self._fold(oy))

    def lookup(self, y: np.ndarray, qam: SquareQam) -> np.ndarray:
        """Quantize received points and fetch the tabulated unreliability."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        c = self.cells_per_region
        w = 2.0 * qam.scale / c
        half_span = qam.L * qam.scale
        gi = np.floor((y + half_span) / w).astype(np.int64)
        np.clip(gi, 0, qam.L * c - 1, out=gi)
        out = np.empty(len(y))
        for row in range(len(y)):
            gx, gy = int(gi[row, 0]), int(gi[row, 1])
            key = self.canonical_key(gx // c, gy // c, gx % c, gy % c, qam.L)
            out[row] = self.entries[key]
        return out

    # -- flat text export / import --

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.M} {self.bits_per_axis} {self.sigma!r}\n")
            for (cls_name, i, j) in sorted(self.entries, key=lambda k: (k[0], k[1], k[2])):
                fh.write(f"{cls_name} {i} {j} {self.entries[(cls_name, i, j)]:.17g}\n")

    @classmethod
    def load(cls, path) -> "UnreliabilityLut":
        with open(path) as fh:
            header = fh.readline().split()
            M, bits = int(header[0]), int(header[1])
            sigma = float(header[2])
            entries = {}
            for line in fh:
                name, i, j, h = line.split()
                entries[(name, int(i), int(j))] = float(h)
        cells = (1 << bits) // math.isqrt(M)
        return cls(M, bits, sigma, cells, entries)

"""Reference unreliability code for the differential tests of `erasurelab.modem`.

These are the implementations that the separable posterior, the array
lookup table, its per-geometry fold maps, the one-compare nearest-neighbor
masks and the chunked sampler replaced, kept verbatim apart from their
names:

* `tensor_unreliability_exact` - the exact posterior over an (N, L, L)
  tensor of squared distances, normalized by its maximum exponent;
* `sorted_unreliability_exact` - the separable exact posterior that sorts
  each (point, axis) row of squared distances and sums its exponentials
  along that row, which the sort-free levels-major kernel reproduces bit
  for bit;
* `scalar_h_nn` - the scalar nearest-neighbor posterior of one cell centre,
  with the three neighbor lists of the interior, edge and corner regions;
* `scalar_lut_entries` - the table that `UnreliabilityLut.build` filled
  from `scalar_h_nn`;
* `canonical_key` - the per-point fold of a (region, cell offset) pair
  onto its stored entry key;
* `loop_label_maps` - the L x L loop that filled `SquareQam`'s label maps
  from the per-axis Gray codes;
* `masked_unreliability_nn` - the nearest-neighbor posterior with both
  axes' squared offsets recomputed for each neighbor and its mask made of
  four compares;
* `fold_lookup` - `UnreliabilityLut.lookup` folding each point's cells onto
  the table's key with array passes, then one three-array gather;
* `one_shot_unreliability_vectors` - the sampler that drew, modulated and
  scored all count x n points in one go.
"""

from __future__ import annotations

import math

import numpy as np

from erasurelab.modem import (CORNER, EDGE, INTERIOR, ModemError, SquareQam, UnreliabilityLut, _posterior, awgn,
                              check_sigma)
from erasurelab.sim import LUT_BITS, unreliability


def tensor_unreliability_exact(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Exact unreliability: posterior over the full constellation."""
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


def sorted_unreliability_exact(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Exact unreliability: posterior over the full constellation.

    The Gaussian likelihood factors per axis, so the total mass relative to
    the nearest point is (1 + Sx)(1 + Sy), where S sums an axis's other
    levels: O(L) per symbol and no hard decision needed.
    """
    if sigma <= 0:
        raise ModemError("sigma must be > 0")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d = np.sort((y[:, :, None] - qam.levels) ** 2, axis=-1)  # (N, 2, L)
    s_axis = np.exp((d[:, :, :1] - d[:, :, 1:]) / (2.0 * sigma * sigma)).sum(axis=-1)
    sx, sy = s_axis[:, 0], s_axis[:, 1]
    return _posterior(sx + sy + sx * sy)


def scalar_h_nn(u: float, v: float, nbrs: list[tuple[float, float]], two_s2: float) -> float:
    d0 = u * u + v * v
    acc = 0.0
    for ax, ay in nbrs:
        dn = (u - ax) ** 2 + (v - ay) ** 2
        acc += math.exp(-(dn - d0) / two_s2)
    return 1.0 - 1.0 / (1.0 + acc)


def scalar_lut_entries(qam: SquareQam, sigma: float, cells: int) -> dict:
    """(class, i, j) -> h, as the table build filled it cell by cell."""
    step = 2.0 * qam.scale           # distance between adjacent points
    w = step / cells                 # cell width
    two_s2 = 2.0 * sigma * sigma

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
                entries[(INTERIOR, i, j)] = scalar_h_nn(center(i), center(j), interior_nbrs, two_s2)
        for i in range(cells // 2, cells):
            for j in range(cells):
                entries[(EDGE, i, j)] = scalar_h_nn(center(i), center(j), edge_nbrs, two_s2)
    for i in range(cells):
        for j in range(cells):
            if i > j or (i == j and i % 2 == 1):
                entries[(CORNER, i, j)] = scalar_h_nn(center(i), center(j), corner_nbrs, two_s2)
    return entries


def _fold(o: int, c: int) -> int:
    return o if o >= c // 2 else c - 1 - o


def canonical_key(rx: int, ry: int, ox: int, oy: int, L: int, c: int):
    """Map a (region, cell offset) pair to its stored entry key."""
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
        return (EDGE, _fold(a, c), t)
    return (INTERIOR, _fold(ox, c), _fold(oy, c))


def loop_label_maps(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(symbol_ix, symbol_iy, index_symbol) of an L x L square QAM."""
    bits_per_axis = L.bit_length() - 1
    gray = np.arange(L) ^ (np.arange(L) >> 1)
    symbol_ix = np.empty(L * L, dtype=np.int64)
    symbol_iy = np.empty(L * L, dtype=np.int64)
    for ix in range(L):
        for iy in range(L):
            sym = (int(gray[ix]) << bits_per_axis) | int(gray[iy])
            symbol_ix[sym] = ix
            symbol_iy[sym] = iy
    index_symbol = np.empty((L, L), dtype=np.int64)
    index_symbol[symbol_ix, symbol_iy] = np.arange(L * L)
    return symbol_ix, symbol_iy, index_symbol


def masked_unreliability_nn(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Approximate unreliability: denominator over the hard decision and
    its axis-adjacent neighbors only."""
    check_sigma(sigma)
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
    return _posterior(s)


def fold_lookup(lut: UnreliabilityLut, y: np.ndarray, qam: SquareQam) -> np.ndarray:
    """Quantize received points and fetch the tabulated unreliability."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    c = lut.cells_per_region
    L = qam.L
    w = 2.0 * qam.scale / c
    gi = np.floor((y + L * qam.scale) / w).astype(np.int64)
    np.clip(gi, 0, L * c - 1, out=gi)
    # mirror each axis onto its lower half: region 0 is then the border
    r, o = np.divmod(np.minimum(gi, L * c - 1 - gi), c)
    border = r == 0
    u = np.where(border, c - 1 - o, np.maximum(o, c - 1 - o))
    ux, uy = u[:, 0], u[:, 1]
    bx, by = border[:, 0], border[:, 1]
    cls_ix = bx.astype(np.int64) + by
    swap = bx & (~by | (ux < uy))
    i = np.where(swap, uy, ux)
    j = np.where(swap, ux, uy)
    diag = (cls_ix == 2) & (i == j) & (i % 2 == 0)
    return lut.table[cls_ix, i + diag, j + diag]


def one_shot_unreliability_vectors(
    sigma: float,
    qam: SquareQam,
    n: int,
    count: int,
    rng: np.random.Generator,
    method: str = "nn",
) -> np.ndarray:
    """Sorted (non-increasing) unreliability vectors of random transmissions;
    a ModemError, before anything is drawn, for a sigma that no kernel takes."""
    check_sigma(sigma)
    sym = rng.integers(0, qam.M, size=count * n)
    y = awgn(qam.modulate(sym), sigma, rng)
    lut = UnreliabilityLut.build(qam, sigma, LUT_BITS) if method == "lut" else None
    h = unreliability(y, qam, sigma, method, lut).reshape(count, n)
    h.sort(axis=1)
    return h[:, ::-1]

"""Square-QAM modem: Gray mapping, AWGN, hard decision, symbol unreliabilities.

The unreliability of a received point is the posterior probability that its
hard decision is wrong. It is computed either exactly (sum over the whole
constellation, one sum per axis since the Gaussian likelihood factors) or
with the nearest-neighbor approximation (sum over the hard decision and its
axis-adjacent neighbors). Both sum the off-decision likelihoods s relative
to the hard decision's and return s / (1 + s), so tiny unreliabilities keep
their precision. The nearest-neighbor values can be tabulated in a small
symmetry-reduced lookup table.

The exact kernel sorts no array. Its squared distances are levels-major,
one row per level and one column per received coordinate, and each column
falls and then rises along the levels (V-shaped), so a bitonic merger of
log2 L min/max layers sorts it. Its off-decision likelihoods are then added
row by row in the order numpy's add.reduce uses along a contiguous axis, so
every h equals, bit for bit, the sort-and-sum form it replaced. Before the
exp, exponents below FAR are raised to FAR where the term cannot change
its sum (`unreliability_exact` gives the argument), which keeps subnormal
results off exp's slow path without changing h. Both rest on numpy: a numpy
that changes its reduction order or its exp loops fails the differential
test against that form (tests/scalar_modem.py), not silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np


class ModemError(ValueError):
    pass


# received points per call of an unreliability kernel: few enough that each
# call's temporaries stay under glibc's mmap threshold, so they are reused
# from the heap instead of mapped and page-faulted afresh (the chunking also
# bounds a table build's peak); the semi-simulative sampler modulates, adds
# noise to and scores this many points at a time, and `strategy.tail_coeffs`
# copies the unreliabilities it reads about this many at a time
UNRELIABILITY_CHUNK = 1 << 14
# squared distances (levels x coordinates) per block of the exact kernel:
# its two (L, C) blocks of distance rows take 128 kB each and stay in the
# core's cache through the merge layers; at a whole chunk they would take
# 4 MB each at 256-QAM and stream through memory on every layer
EXACT_BLOCK = 1 << 14
#: the exact kernel raises exponents below FAR to FAR (exp(FAR) < 2^-1009 is
#: still a normal double, so its exp stays on numpy's vector loop), but only
#: in blocks whose nearest off-level exponents are all at least LEAD
#: (exp(LEAD) > 2^-866); `unreliability_exact` says why h cannot change
FAR, LEAD = -700.0, -600.0
#: the noise levels the channel keeps finite, with a factor 1000 to spare
#: (about -245 to +2990 dB): above SIGMA_MAX a hard decision's index
#: overflows int64, below SIGMA_MIN a squared distance over 2 sigma^2
SIGMA_MIN, SIGMA_MAX = 1e-150, 1e12


def check_sigma(sigma: float) -> None:
    """A ModemError unless the noise level lies in [SIGMA_MIN, SIGMA_MAX]
    (NaN fails too); every unreliability kernel and table build calls it."""
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ModemError(f"sigma must lie in [{SIGMA_MIN:g}, {SIGMA_MAX:g}], got {sigma}")


def sigma_from_ebn0(ebn0_db: float, alphabet_size: int, n: int, k: int) -> float:
    """Per-dimension AWGN standard deviation for Eb/N0 given in dB; a
    ModemError unless it lies in [SIGMA_MIN, SIGMA_MAX]."""
    if alphabet_size < 2 or alphabet_size & (alphabet_size - 1):
        raise ModemError("alphabet_size must be a power of two >= 2")
    if not (n >= k >= 1):
        raise ModemError("need n >= k >= 1")
    try:
        sigma = math.sqrt(1.0 / math.log2(alphabet_size) * (n / k) * 10.0 ** (-ebn0_db / 10.0) / 2.0)
    except OverflowError:
        sigma = math.inf
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ModemError(f"Eb/N0 {ebn0_db} dB gives noise level {sigma}; "
                         f"it must lie in [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")
    return sigma


class SquareQam:
    """Square 2^(2b)-QAM with per-axis reflected-binary Gray labels.

    Points live on the grid {±1, ±3, ...}^2 scaled to unit average energy.
    The symbol label concatenates the I-axis Gray code (high bits) with the
    Q-axis Gray code (low bits).
    """

    def __init__(self, M: int):
        L = math.isqrt(max(M, 0))
        if L * L != M or L < 2 or (L & (L - 1)):
            raise ModemError(f"M={M} is not a square QAM size 2^(2b)")
        self.M = M
        self.L = L
        self.bits_per_axis = L.bit_length() - 1
        # unit average energy: E = 2 * scale^2 * (L^2 - 1) / 3 = 1
        self.scale = math.sqrt(3.0 / (2.0 * (L * L - 1)))
        self.levels = (2.0 * np.arange(L) - (L - 1)) * self.scale

        gray = np.arange(L) ^ (np.arange(L) >> 1)
        # (ix, iy) -> symbol
        self.index_symbol = (gray[:, None] << self.bits_per_axis) | gray
        # symbol -> (I level index, Q level index): the inverse Gray code of
        # the symbol's high and low bits
        level = np.argsort(gray)
        sym = np.arange(M)
        self.symbol_ix = level[sym >> self.bits_per_axis]
        self.symbol_iy = level[sym & (L - 1)]
        # (label index) -> point
        self.points = np.stack(
            [self.levels[self.symbol_ix], self.levels[self.symbol_iy]], axis=-1
        )
        # read-only, so that one instance per M can be shared
        for a in (self.levels, self.index_symbol, self.symbol_ix, self.symbol_iy, self.points):
            a.setflags(write=False)

    # -- mapping / channel --

    def modulate(self, symbols) -> np.ndarray:
        """The (..., 2) points of an array of symbols: one 1-D gather of
        the points viewed as complex numbers, each an (I, Q) pair."""
        sym = np.asarray(symbols, dtype=np.int64)
        z = self.points.view(np.complex128).reshape(-1).take(sym.reshape(-1))
        return z.view(np.float64).reshape(sym.shape + (2,))

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


def _posterior(s: np.ndarray) -> np.ndarray:
    """h = s / (1 + s) from the off-decision likelihood mass s (relative to
    the hard decision's); keeps h ~ s where 1 - 1/(1 + s) would round to 0."""
    return s / (1.0 + s)


def unreliability_exact(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Exact unreliability: posterior over the full constellation.

    The Gaussian likelihood factors per axis, so the total mass relative to
    the nearest point is (1 + Sx)(1 + Sy), where S sums an axis's other
    levels: O(L) per symbol and no hard decision needed.

    The squared distances form (L, C) blocks, a row per level and a column
    per received coordinate (x and y of each point in turn), EXACT_BLOCK
    entries each. fl(v - l_j) is monotone in j and fl(x^2) monotone in |x|,
    so every column is V-shaped and `_merge_levels` sorts it without a sort.
    The likelihoods of rows 1 .. L-1 relative to row 0 are added in numpy's
    reduction order (`_add_rows`), so h is bit-identical to sorting each
    (point, axis) row of distances and summing its likelihoods along it.

    An exp whose result is subnormal costs about 100 times a normal one
    (it leaves numpy's vector loop), so exponents below FAR are raised to
    FAR first wherever that cannot change h. The likelihood rows from
    `_lone_rows` on are added one at a time onto a running sum that
    already holds the nearest off-level likelihood, row 0 of the
    exponents. In a block where that exponent is at least LEAD in every
    column, each such sum is at least exp(LEAD) > 2^-866, so half its
    last-place unit is at least 2^-919. A term whose exponent lies below
    FAR and the floored term exp(FAR) are both below 2^-1009, so either
    leaves the sum as it is, and h is unchanged bit for bit. A block that
    fails the check is left as it is. The floor is skipped for the whole
    call when no exponent can reach FAR: each is at least
    -(max |v| + the outer level)^2 / 2 sigma^2, a bound of the input, with
    a margin for rounding. The skip saves the pass and can change nothing
    either way, since the floor only moves exponents below FAR.
    """
    check_sigma(sigma)
    v = np.asarray(y, dtype=float).reshape(-1)
    s = np.empty(len(v))
    levels = qam.levels[:, None]
    two_s2 = 2.0 * sigma * sigma
    step = EXACT_BLOCK // qam.L
    lone = _lone_rows(qam.L - 1)
    if len(v):
        # every exponent is at least -(|v| + the outer level)^2 / 2 sigma^2
        reach = max(float(v.max()), -float(v.min())) + float(qam.levels[-1])
        if reach * reach < 0.99 * -FAR * two_s2:
            lone = qam.L - 1  # no exponent reaches FAR: no floor pass
    for lo in range(0, len(v), step):
        d = v[lo : lo + step] - levels
        np.square(d, out=d)
        d = _merge_levels(d)
        e = d[1:]
        np.subtract(d[0], e, out=e)
        np.divide(e, two_s2, out=e)
        if lone < len(e) and e[0].min() >= LEAD:
            np.maximum(e[lone:], FAR, out=e[lone:])
        np.exp(e, out=e)
        _add_rows(e, out=s[lo : lo + step])
    sx, sy = s[0::2], s[1::2]
    return _posterior(sx + sy + sx * sy)


def _merge_levels(d: np.ndarray) -> np.ndarray:
    """The columns of the (L, C) array d sorted ascending, each column being
    bitonic (here V-shaped): Batcher's bitonic merger in Stone's
    perfect-shuffle form. Every layer compares row p with row p + L/2 and
    writes the min to row 2p and the max to row 2p + 1 of the other of two
    blocks, so a layer is one np.minimum and one np.maximum on slices; after
    log2 L layers the rows are back in order. Overwrites d."""
    half = len(d) // 2
    other = np.empty_like(d)
    for _ in range(half.bit_length()):
        np.minimum(d[:half], d[half:], out=other[0::2])
        np.maximum(d[:half], d[half:], out=other[1::2])
        d, other = other, d
    return d


def _lone_rows(n: int) -> int:
    """The first of the rows that `_add_rows` adds to n rows one at a time,
    at the end, onto a running sum that already holds row 0: all rows past
    row 0 below 8 rows, the n % 8 rows past the last multiple of 8 up to
    128 rows, and none above (n, an empty range)."""
    if n < 8:
        return 1
    return n - n % 8 if n <= 128 else n


def _add_rows(e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The column sums of the n rows of e, added as numpy's pairwise sum adds
    n contiguous terms: in turn below 8 terms (a reduce along axis 0 adds
    the rows one by one); up to 128, 8 running sums of every eighth term,
    joined pairwise, then the rest in turn; above 128, the sums of two parts
    split at a multiple of 8 near the middle. Overwrites the rows."""
    n = len(e)
    if n < 8:
        return np.add.reduce(e, axis=0, out=out)
    if n <= 128:
        r = e[:8]
        top = n - n % 8
        for i in range(8, top, 8):
            np.add(r, e[i : i + 8], out=r)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), into row top - 1
        np.add(r[0::2], r[1::2], out=r[1::2])
        np.add(r[1::4], r[3::4], out=r[3::4])
        np.add(r[3], r[7], out=e[top - 1])
        return np.add.reduce(e[top - 1 :], axis=0, out=out)
    half = n // 2 - n // 2 % 8
    return np.add(_add_rows(e[:half]), _add_rows(e[half:]), out=out)


def unreliability_nn(y: np.ndarray, qam: SquareQam, sigma: float) -> np.ndarray:
    """Approximate unreliability: denominator over the hard decision and
    its axis-adjacent neighbors only.

    A neighbor differs from the decision on one axis, and l + 0 * step = l
    exactly, so the squared offset on the other axis is the decision's own,
    computed once. A neighbor lies in the constellation exactly when the
    decision's index on the moved axis is not at that end: one compare."""
    check_sigma(sigma)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ix, iy = qam.hard_decision_indices(y)
    lx = qam.levels[ix]
    ly = qam.levels[iy]
    step = 2.0 * qam.scale
    two_s2 = 2.0 * sigma * sigma
    dx = y[:, 0] - lx
    np.square(dx, out=dx)
    dy = y[:, 1] - ly
    np.square(dy, out=dy)
    d0 = dx + dy
    s = np.zeros(len(y))
    e = np.empty(len(y))
    # (moved coordinate, its decision level, moved axis's index, the other
    # axis's squared offset, shift), in the order the terms are added
    for v, lv, iv, rest, shift in ((y[:, 0], lx, ix, dy, -step), (y[:, 0], lx, ix, dy, step),
                                   (y[:, 1], ly, iy, dx, -step), (y[:, 1], ly, iy, dx, step)):
        ok = iv > 0 if shift < 0 else iv < qam.L - 1
        np.add(lv, shift, out=e)
        np.subtract(v, e, out=e)
        np.square(e, out=e)
        e += rest
        # d0 - dn is -(dn - d0) exactly: rounding is symmetric in sign
        np.subtract(d0, e, out=e)
        e /= two_s2
        # the decision is the nearest level, so the exponent is at most 0
        # but for rounding, which at tiny sigma would overflow exp; clamped,
        # it cannot overflow for a neighbor outside the constellation
        # either, which can be nearer, and whose term is then zeroed (an
        # exponent of -inf instead takes exp off numpy's vector loop)
        np.minimum(e, 0.0, out=e)
        np.exp(e, out=e)
        np.multiply(e, ok, out=e)
        s += e
    return _posterior(s)


# region classes of the lookup table; the index of each is its number of
# border axes and its slice of the dense table
INTERIOR = "interior"
EDGE = "edge"
CORNER = "corner"
CLASSES = (INTERIOR, EDGE, CORNER)
#: the finest quantisation a table may have: its (3, c, c) doubles stay
#: under 7 MB at every square QAM size (c = 2^bits / L, largest at 4-QAM)
MAX_LUT_BITS = 10


@dataclass(eq=False)
class UnreliabilityLut:
    """Symmetry-reduced table of nearest-neighbor unreliabilities.

    The plane is quantized with 2^bits uniform cells per axis, giving every
    decision region the same cells_per_region x cells_per_region sub-grid
    (unbounded outer regions are clipped to the width of inner regions).
    Under the nearest-neighbor approximation, all regions of one class
    (interior / edge / corner) carry identical values up to rotation and
    reflection, so one representative sub-grid per class is stored: region
    (1, 1), the top edge region (1, L-1) and the top-right corner region
    (L-1, L-1), further folded by the class's own symmetry:

    * interior: mirror-symmetric in both axes -> one quadrant kept,
    * edge: mirror-symmetric along the boundary axis -> one half kept,
    * corner: symmetric about the diagonal through the point -> half kept.

    The diagonal fold of the corner leaves the cells on the diagonal itself
    unpaired; to keep the canonical entry budget of cells^2/2 per the
    64+128+128 accounting, diagonal cells are stored at half resolution
    (each even diagonal cell reads its outward odd neighbor's entry).

    ``lookup`` folds a cell with offset o in region r per axis: a border
    axis (r = 0 or L-1) takes the outward offset (o in region L-1, c-1-o in
    region 0), any other axis the folded offset max(o, c-1-o). The class is
    the number of border axes. An edge cell keys (along-edge, outward), so
    the offsets swap when the border axis is x; a corner cell keys
    (max, min) of its two outward offsets, and an even diagonal corner cell
    moves to its odd neighbor (p+1, p+1). That fold depends only on the
    geometry (L, c), so it is tabulated once per geometry in two small
    integer maps (`_lut_maps`): axis cell -> (border, folded offset) key,
    and key pair -> flat index into the dense (3, c, c) ``table``, the only
    store of the values. A lookup quantizes, then makes three gathers.
    """

    M: int
    bits_per_axis: int
    sigma: float
    cells_per_region: int
    # (class index, i, j) -> h of the stored cells, NaN elsewhere; read-only,
    # so the cached ``entries`` stay its view
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.table.setflags(write=False)

    @cached_property
    def entries(self) -> dict:
        """(class, i, j) -> h of every stored cell, built on first use."""
        keys = np.argwhere(~np.isnan(self.table))
        values = self.table[tuple(keys.T)].tolist()
        return {(CLASSES[k], i, j): h for (k, i, j), h in zip(keys.tolist(), values)}

    @classmethod
    def build(cls, qam: SquareQam, sigma: float, bits_per_axis: int) -> "UnreliabilityLut":
        check_sigma(sigma)
        L = qam.L
        cells = _cells_per_region(L, bits_per_axis)
        centre = (np.arange(cells) + 0.5) * (2.0 * qam.scale / cells) - qam.scale
        # cell (k, i, j) of the table is the centre (x[k, i], y[k, j]) in the
        # interior, top edge or top-right corner region by class k; each
        # chunk of whole (k, i) rows forms its centres from these 3 c values
        x = (qam.levels[[1, 1, L - 1], None] + centre).reshape(-1)
        y = qam.levels[[1, L - 1, L - 1], None] + centre
        h = np.empty((len(x), cells))
        step = max(1, UNRELIABILITY_CHUNK // cells)
        for lo in range(0, len(x), step):
            rows = np.arange(lo, min(lo + step, len(x)))
            chunk = np.stack([np.repeat(x[rows], cells), y[rows // cells].reshape(-1)], axis=-1)
            h[rows] = unreliability_nn(chunk, qam, sigma).reshape(len(rows), cells)
        h = h.reshape(len(CLASSES), cells, cells)

        # NaN at the cells each class does not store, in place
        half = cells // 2
        interior, edge, corner = h
        interior[:half] = np.nan
        interior[:, :half] = np.nan
        edge[:half] = np.nan
        corner[np.arange(cells)[:, None] < np.arange(cells)] = np.nan  # above the diagonal
        corner.reshape(-1)[:: 2 * (cells + 1)] = np.nan  # the even diagonal cells
        if L == 2:  # 4-QAM: every region is a corner
            h[: CLASSES.index(CORNER)] = np.nan
        return cls(qam.M, bits_per_axis, sigma, cells, h)

    def lookup(self, y: np.ndarray, qam: SquareQam) -> np.ndarray:
        """Quantize received points and fetch the tabulated unreliability."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        c = self.cells_per_region
        L = qam.L
        w = 2.0 * qam.scale / c
        t = y + L * qam.scale
        t /= w
        np.floor(t, out=t)
        gi = t.astype(np.int64)
        np.clip(gi, 0, L * c - 1, out=gi)
        x_key, y_key, pair_index = _lut_maps(L, c)
        k = x_key.take(gi[:, 0])
        k += y_key.take(gi[:, 1])
        return self.table.reshape(-1).take(pair_index.take(k))

    # -- flat text export / import --

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.M} {self.bits_per_axis} {self.sigma!r}\n")
            for (cls_name, i, j), h in sorted(self.entries.items()):
                fh.write(f"{cls_name} {i} {j} {h:.17g}\n")

    @classmethod
    def load(cls, path) -> "UnreliabilityLut":
        """The table that `save` wrote to `path`. A header that `build`
        would reject, or an entry line with a wrong field count, an
        unknown class, a cell index outside [0, cells_per_region) or an h
        outside [0, 1), is a ModemError naming its line."""
        with open(path) as fh:
            M, bits, sigma = _read_fields(path, 1, fh.readline(), (int, int, float))
            try:
                cells = _cells_per_region(SquareQam(M).L, bits)
                check_sigma(sigma)
            except ModemError as exc:
                raise ModemError(f"{path}, line 1: {exc}") from None
            table = np.full((len(CLASSES), cells, cells), np.nan)
            for lineno, line in enumerate(fh, 2):
                name, i, j, h = _read_fields(path, lineno, line, (str, int, int, float))
                if name not in CLASSES:
                    raise ModemError(f"{path}, line {lineno}: unknown class {name!r}")
                if not (0 <= i < cells and 0 <= j < cells):
                    raise ModemError(f"{path}, line {lineno}: cell ({i}, {j}) outside [0, {cells})")
                if not 0 <= h < 1:  # NaN fails too
                    raise ModemError(f"{path}, line {lineno}: h must lie in [0, 1), got {h}")
                table[CLASSES.index(name), i, j] = h
        return cls(M, bits, sigma, cells, table)


@cache
def _lut_maps(L: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fold of `UnreliabilityLut.lookup` for L regions of c cells per
    axis, as two small maps built on first use: axis cell -> key, a key
    being a (border, folded offset) pair, given as (x_key, y_key) = (K key,
    key) for K keys; and key pair x_key + y_key -> flat index into the
    (3, c, c) table. Only keys that occur are numbered, so at 4-QAM with 10
    bits the pair map holds 512^2 entries. The maps are read-only, since
    every lookup of the geometry shares them."""
    g = np.arange(L * c)
    # mirror each axis onto its lower half: region 0 is then the border
    r, o = np.divmod(np.minimum(g, L * c - 1 - g), c)
    border = r == 0
    u = np.where(border, c - 1 - o, np.maximum(o, c - 1 - o))
    keys, key = np.unique(border * c + u, return_inverse=True)
    # the (K, K) key-pair arrays in int32 keep the build's peak near the
    # finished map's size
    b, u = np.divmod(keys.astype(np.int32), c)
    bx, by = b[:, None] == 1, b == 1
    ux, uy = u[:, None], u
    cls_ix = b[:, None] + b
    swap = bx & (~by | (ux < uy))
    i = np.where(swap, uy, ux)
    j = np.where(swap, ux, uy)
    diag = (cls_ix == 2) & (i == j) & (i % 2 == 0)
    i += diag
    j += diag
    cls_ix *= c
    cls_ix += i
    cls_ix *= c
    cls_ix += j
    maps = key * len(keys), key, cls_ix.reshape(-1).astype(np.intp)
    for m in maps:
        m.setflags(write=False)
    return maps


def _cells_per_region(L: int, bits_per_axis: int) -> int:
    """Cells per axis of each of the L decision regions per axis when the
    axis is cut into 2^bits_per_axis uniform cells; a ModemError unless
    that is a whole number of at least 2 and bits_per_axis is at most
    MAX_LUT_BITS."""
    if bits_per_axis < 2:
        raise ModemError("bits_per_axis must be >= 2")
    if bits_per_axis > MAX_LUT_BITS:
        raise ModemError(f"bits_per_axis must be <= {MAX_LUT_BITS}, got {bits_per_axis}")
    cells = (1 << bits_per_axis) // L
    if cells < 2 or cells * L != (1 << bits_per_axis):
        raise ModemError(f"{bits_per_axis}-bit quantization cannot resolve {L} decision regions per axis")
    return cells


def _read_fields(path, lineno: int, line: str, types: tuple) -> list:
    """The whitespace-separated fields of one line of a table file, each
    read by its type; a ModemError naming the line otherwise."""
    fields = line.split()
    if len(fields) != len(types):
        raise ModemError(f"{path}, line {lineno}: expected {len(types)} fields, got {len(fields)}")
    try:
        return [read(f) for read, f in zip(types, fields)]
    except ValueError:
        raise ModemError(f"{path}, line {lineno}: cannot read {line.strip()!r}") from None

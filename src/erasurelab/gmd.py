"""Forney-style multi-trial GMD decoding.

Decodes the received word under one erasure count per trial of a fixed
schedule, one trial per distinct BMD capability level, about d_min/2
trials (G. D. Forney, "Generalized minimum distance decoding", IEEE
Trans. IT 12(2), 1966), erasing the most unreliable positions each time;
collects the distinct codeword candidates, and returns the one with the
largest reliability-weighted agreement with the hard-decision word. The
erasure sets are nested prefixes of the positions from the most to the
least unreliable, in one stable order (`rs.erase_most_unreliable`), so
each trial erases the previous trial's positions plus the next ones in
that order.

Most trials return a candidate that another trial also returns, and
which trials do is known without decoding them. The error/erasure
decoder is a BMD decoder: the trial with erased set X returns the
codeword c exactly when 2 |{i not in X : y_i != c_i}| + |X| <= n - k,
the radius within which c is the unique codeword. So once c is known,
every trial whose radius holds c is settled, and its smallest schedule
index, read off the erasure ranks of the positions where y and c differ,
is the trial that finds c first. Per word, GMD decodes the middle trial
first (its key equation is half as long, and where GMD succeeds it
usually finds the transmitted word), then, in schedule order, each trial
that no candidate found by then settles. No trial whose result could
differ from a known candidate is skipped, so the output is that of
decoding every trial.

`gmd_decode` runs the (rows, n) hard symbols and unreliabilities of a
frame block of `sim` through these steps as arrays, in chunks of frames
whose trial buffers stay within TRIAL_ENTRIES: one stable argsort, the
S(y) and Gamma/T of every trial from one `RSCodec.erasure_trial_rows`
pass, the probes in one `RSCodec.decode_ee` call, the locators of the
unsettled trials in one `RSCodec.locator_rows` call, then a pass per
schedule index with a trial left, one `decode_ee` call on that trial of
each word that has it unsettled; each call gets an `ErasedBlock` of its
trials with their S(y), Gamma/T and locators. The passes run in schedule
order and a word's own candidates settle its trials, so it decodes and
scores the trials it would alone, and the block gives each word's result.
"""

from __future__ import annotations

import numpy as np

from .rs import CodeError, ErasedBlock, RSCodec, received_block

#: Gamma/T entries of the trials of one chunk of frames, which bounds its
#: buffers and temporaries: RS(256;255,144) decodes 41 frames a chunk, and
#: a 256-frame block at 16.5 dB peaks at 10 MB traced (5 MB in chunks half
#: as large, 1.2x slower; 19 MB in chunks twice as large, as fast);
#: RS(16;15,7) decodes a 256-frame block in one chunk
TRIAL_ENTRIES = 1 << 19


def default_schedule(d_min: int) -> list[int]:
    """One trial per distinct BMD capability level: tau stepping by 2 from
    (d_min - 1) mod 2 up to d_min - 1, about d_min / 2 trials."""
    start = (d_min - 1) % 2
    return list(range(start, d_min, 2))


def gmd_decode(symbols, codec: RSCodec, unreliability) -> list:
    """Multi-trial error/erasure decoding with candidate selection, one
    trial per tau of `default_schedule`: each row's codeword or None for
    (rows, n) hard symbols and `unreliability` (`rs.received_block`).

    Candidates are scored by the sum of (1 - h_i) over positions where the
    candidate matches the hard decision; ties go to the candidate produced
    by the smaller erasure count.
    """
    p = codec.params
    y, h = received_block(symbols, unreliability, p.gf)
    if y.shape[1] != p.n:
        raise CodeError("received word length mismatch")
    step = max(1, TRIAL_ENTRIES // (len(default_schedule(p.d_min)) * (2 * (p.n - p.k) + 4)))
    return [c for lo in range(0, len(y), step) for c in _decode_chunk(y[lo : lo + step], h[lo : lo + step], codec)]


def _decode_chunk(y: np.ndarray, h: np.ndarray, codec: RSCodec) -> list:
    """`gmd_decode` of a block of words that is one chunk: the probe, one
    `locator_rows` call, then a `decode_ee` call per schedule index with a
    trial left. The trial at tau of `default_schedule` erases the first
    tau positions of its word's stable order from the most to the least
    unreliable."""
    n, nsyn = codec.params.n, codec.params.n - codec.params.k
    rows = len(y)
    positions = np.argsort(-h, axis=1, kind="stable")
    sizes = np.repeat(np.array(default_schedule(codec.params.d_min))[None], rows, axis=0)
    synd, polys = codec.erasure_trial_rows(y, positions, sizes)
    count = sizes.shape[1]
    mid = count // 2
    # trial-major views: [j, r] is trial j of word r, so that a pass on
    # trial j reads rows of [j]
    sizes_by_trial, polys_by_trial = sizes.T, polys.transpose(1, 0, 2)
    # the trials not settled, nor decoded before the current pass
    pending = np.ones((count, rows), dtype=bool)
    pending[mid] = False
    out, best = [None] * rows, {}  # per word: its codeword, and (score, -first trial)

    def pick(a: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Rows `at` of a, ascending: a itself for all."""
        return a if len(at) == rows else a[at]

    def decode(at: np.ndarray, j: int, lam=None, L=None) -> None:
        """Decode trial j of each word of `at`; keep each word's best
        candidate and settle the word's trials whose radius holds one."""
        got = codec.decode_ee(ErasedBlock(pick(y, at), pick(positions, at), pick(sizes_by_trial[j], at),
                                          pick(synd, at), pick(polys_by_trial[j], at), lam, L))
        hit = [i for i, c in enumerate(got) if c is not None]
        if not hit:
            return
        at = at[hit]
        match = np.array([got[i] for i in hit]) == pick(y, at)
        lines = np.arange(len(at))[:, None]
        # inside[i, s]: the word's wrong positions among the first s of its
        # erasure sequence, those that the trials erasing s positions erase
        inside = np.zeros((len(at), n + 1), dtype=np.intp)
        np.cumsum(~match[lines, pick(positions, at)], axis=1, out=inside[:, 1:])
        size = pick(sizes, at)
        holds = 2 * (inside[:, -1:] - inside[lines, size]) + size <= nsyn
        pending[:, at] &= ~holds.T
        # the score, 1 - h_i summed left to right where the candidate
        # matches the word's symbols; ties go to the trial that finds the
        # candidate first, the smaller erasure count
        score = np.cumsum(np.where(match, 1.0 - pick(h, at), 0.0), axis=1)[:, -1]
        for r, first, s, i in zip(at.tolist(), holds.argmax(axis=1).tolist(), score.tolist(), hit):
            if (s, -first) > best.get(r, (-1.0, 0)):
                best[r], out[r] = (s, -first), got[i]

    decode(np.arange(rows), mid)
    # the locators of the trials left unsettled, solved in order of erasure
    # count, and kept by trial
    left = np.nonzero(pending)
    left = tuple(i[np.argsort(sizes_by_trial[left], kind="stable")] for i in left)
    lam, L = codec.locator_rows(polys_by_trial[left], sizes_by_trial[left])
    lams, Ls = np.zeros((count, rows, lam.shape[1]), dtype=lam.dtype), np.zeros((count, rows), dtype=np.intp)
    lams[left], Ls[left] = lam, L
    # one pass per schedule index with a trial left: trial j of each word
    # that has it pending, so every word decodes its trials in schedule
    # order and settles them by its own candidates alone
    for j in np.flatnonzero(pending.any(axis=1)).tolist():
        at = np.flatnonzero(pending[j])
        if len(at):
            decode(at, j, pick(lams[j], at), pick(Ls[j], at))
    return out

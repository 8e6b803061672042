"""Forney-style multi-trial GMD decoding.

Decodes the received word under one erasure count per trial of a fixed
schedule, one trial per distinct BMD capability level, about d_min/2
trials (G. D. Forney, "Generalized minimum distance decoding", IEEE
Trans. IT 12(2), 1966), erasing the most unreliable positions each time;
collects the distinct codeword candidates, and returns the one with the
largest reliability-weighted agreement with the hard-decision word. The
erasure sets are nested prefixes of `rs.erasure_order`, so each trial
erases the previous trial's positions plus the next ones in that order.
A position erased in the input may recur in the prefix; erasing it again
changes nothing.

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
unsettled trials in one `RSCodec.locator_rows` call, then rounds, each
one `decode_ee` call on every word's next unsettled trial. A (words,
trials) mask holds the unsettled trials, and each call gets an
`ErasedBlock` of its trials with their S(y), Gamma/T and locators. A word
decodes and scores the trials it would alone, so the block gives each
word's result.
"""

from __future__ import annotations

import numpy as np

from .rs import ErasedBlock, RSCodec, ReceivedWord, received_arrays, received_block

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


def gmd_decode(words, codec: RSCodec, unreliability=None):
    """Multi-trial error/erasure decoding with candidate selection, one
    trial per tau of `default_schedule`: each row's codeword or None for
    (rows, n) hard symbols and `unreliability` (`rs.received_block`), and
    likewise for a sequence of `ReceivedWord`s, whose input erasures
    (None) every trial erases; for one `ReceivedWord` its codeword or None.

    Candidates are scored by the sum of (1 - h_i) over positions where the
    candidate matches the hard decision; ties go to the candidate produced
    by the smaller erasure count.
    """
    p = codec.params
    inputs = None
    if unreliability is None:
        if isinstance(words, ReceivedWord):
            return gmd_decode([words], codec)[0]
        words = list(words)
        if not words:
            return []
        y, inputs = received_arrays(words, p.n)
        words, unreliability = y, np.array([w.unreliability for w in words])
    y, h = received_block(words, unreliability, p.gf)
    step = max(1, TRIAL_ENTRIES // (len(default_schedule(p.d_min)) * (2 * (p.n - p.k) + 4)))
    return [c for lo in range(0, len(y), step)
            for c in _decode_chunk(y[lo : lo + step], h[lo : lo + step],
                                   None if inputs is None else inputs[lo : lo + step], codec)]


def trial_sequences(y: np.ndarray, h: np.ndarray, inputs, d_min: int):
    """What GMD reads of (rows, n) hard words `y`, input erasures read as
    0, with unreliabilities `h` and `inputs`, None or the input erasures'
    mask: y with -1 at the input erasures, which no codeword symbol
    matches; each word's erasure sequence, its input erasures in position
    order, then the others from the most to the least unreliable; and how
    many of its first positions each trial erases: the trial at tau of
    `default_schedule` erases the input erasures and the first tau of
    `rs.erasure_order`, as `erase_most_unreliable` does, each once."""
    rows, n = y.shape
    order = np.argsort(-h, axis=1, kind="stable")
    schedule = np.array(default_schedule(d_min))
    if inputs is None or not inputs.any():
        return y, order, np.repeat(schedule[None], rows, axis=0)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    sequences = np.argsort(np.where(inputs, np.arange(n) - n, rank), axis=1)
    # the input erasures among order[:tau]
    recur = np.zeros((rows, n + 1), dtype=np.intp)
    np.cumsum(np.take_along_axis(inputs, order, axis=1), axis=1, out=recur[:, 1:])
    return np.where(inputs, -1, y), sequences, inputs.sum(axis=1)[:, None] + schedule - recur[:, schedule]


def _decode_chunk(y: np.ndarray, h: np.ndarray, inputs, codec: RSCodec) -> list:
    """`gmd_decode` of a block of words that is one chunk."""
    n, nsyn = codec.params.n, codec.params.n - codec.params.k
    rows = len(y)
    known, positions, sizes = trial_sequences(y, h, inputs, codec.params.d_min)
    synd, polys = codec.erasure_trial_rows(y, positions, sizes)
    count = sizes.shape[1]
    mid = count // 2
    # the trials not decoded and not settled; trial j of word r is entry
    # r * count + j of the flat views
    pending = np.ones((rows, count), dtype=bool)
    pending[:, mid] = False
    flat_pending, flat_sizes, flat_polys = pending.reshape(-1), sizes.reshape(-1), polys.reshape(rows * count, -1)
    out, best = [None] * rows, {}  # per word: its codeword, and (score, -first trial)

    def pick(a: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Rows `at` of a, ascending: a itself for all."""
        return a if len(at) == rows else a[at]

    def decode(at: np.ndarray, trials, lam=None, L=None) -> None:
        """Decode the trials, flat indices or a slice, one of each word of
        `at`; keep each word's best candidate and settle the word's trials
        whose radius holds one."""
        got = codec.decode_ee(ErasedBlock(pick(y, at), pick(positions, at), flat_sizes[trials], pick(synd, at),
                                          flat_polys[trials], lam, L))
        hit = [i for i, c in enumerate(got) if c is not None]
        if not hit:
            return
        at = at[hit]
        match = np.array([got[i] for i in hit]) == pick(known, at)
        lines = np.arange(len(at))[:, None]
        # inside[i, s]: the word's wrong positions among the first s of its
        # erasure sequence, those that the trials erasing s positions erase
        inside = np.zeros((len(at), n + 1), dtype=np.intp)
        np.cumsum(~match[lines, pick(positions, at)], axis=1, out=inside[:, 1:])
        size = pick(sizes, at)
        holds = 2 * (inside[:, -1:] - inside[lines, size]) + size <= nsyn
        pending[at] &= ~holds
        # the score, 1 - h_i summed left to right where the candidate
        # matches the word's symbols; ties go to the trial that finds the
        # candidate first, the smaller erasure count
        score = np.cumsum(np.where(match, 1.0 - pick(h, at), 0.0), axis=1)[:, -1]
        for r, j, s, i in zip(at.tolist(), holds.argmax(axis=1).tolist(), score.tolist(), hit):
            if (s, -j) > best.get(r, (-1.0, 0)):
                best[r], out[r] = (s, -j), got[i]

    decode(np.arange(rows), np.arange(mid, rows * count, count))
    # the locators of the trials left unsettled, solved in order of erasure
    # count, and kept by trial
    left = np.flatnonzero(flat_pending)
    left = left[np.argsort(flat_sizes[left], kind="stable")]
    lam, L = codec.locator_rows(flat_polys[left], flat_sizes[left])
    lams, Ls = np.zeros((rows * count, lam.shape[1]), dtype=lam.dtype), np.zeros(rows * count, dtype=np.intp)
    lams[left], Ls[left] = lam, L
    # rounds: each word's next unsettled trial, in schedule order
    live = np.flatnonzero(pending.any(axis=1))
    while len(live) > 1:
        trials = live * count + pick(pending, live).argmax(axis=1)
        flat_pending[trials] = False
        decode(live, trials, lams[trials], Ls[trials])
        live = live[pick(pending, live).any(axis=1)]
    # the last live word's rounds, if any, its trials read as views
    for r in live.tolist():
        while pending[r].any():
            j = r * count + int(pending[r].argmax())
            flat_pending[j] = False
            decode(live, slice(j, j + 1), lams[j : j + 1], Ls[j : j + 1])

    return out

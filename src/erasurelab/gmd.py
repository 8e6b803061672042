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

`gmd_decode` runs a block of words (a frame block of `sim`) through
these steps together, in chunks of frames whose trial buffers stay
within TRIAL_ENTRIES: one stable argsort of the unreliabilities, every
trial of every word from one `RSCodec.erasure_trial_rows` pass, the
probes of all words in one `RSCodec.decode_ee` call, the locators of
all unsettled trials in one `RSCodec.solve_locators` call, and then
rounds, each one `decode_ee` call on every word's next unsettled trial.
A word decodes the trials it would decode alone, and its candidates are
scored as alone, so the block gives each word's result.
"""

from __future__ import annotations

import numpy as np

from .rs import CodeError, RSCodec, ReceivedWord

#: Gamma/T entries of the trials of one chunk of frames: `gmd_decode` takes
#: a block in chunks of as many frames as hold this many, which bounds the
#: chunk's trial buffers and decoding temporaries. RS(256;255,144) decodes
#: 41 frames a chunk, and a 256-frame block at 16.5 dB peaks at 10 MB
#: traced (5 MB in chunks of half as many frames, which decode about 1.2x
#: slower; 19 MB in chunks of twice as many, about as fast); RS(16;15,7)
#: decodes a 256-frame block in one chunk
TRIAL_ENTRIES = 1 << 19


def default_schedule(d_min: int) -> list[int]:
    """One trial per distinct BMD capability level: tau stepping by 2 from
    (d_min - 1) mod 2 up to d_min - 1, about d_min / 2 trials."""
    start = (d_min - 1) % 2
    return list(range(start, d_min, 2))


def gmd_decode(words, codec: RSCodec):
    """Multi-trial error/erasure decoding with candidate selection, one
    trial per tau of `default_schedule`: the codeword or None of a
    `ReceivedWord`, and the list of them of any other sequence of words
    (a block), decoded together.

    Candidates are scored by the sum of (1 - h_i) over positions where the
    candidate matches the hard decision; ties go to the candidate produced
    by the smaller erasure count.
    """
    if isinstance(words, ReceivedWord):
        return _decode_chunk([words], codec)[0]
    words = list(words)
    nsyn = codec.params.n - codec.params.k
    step = max(1, TRIAL_ENTRIES // (len(default_schedule(codec.params.d_min)) * (2 * nsyn + 4)))
    return [c for lo in range(0, len(words), step) for c in _decode_chunk(words[lo : lo + step], codec)]


def trial_sequences(words: list, codec: RSCodec):
    """The arrays of a block of received words that GMD reads: the hard
    words y, their input erasures (None) read as 0; the same with -1 at
    the input erasures, which no codeword symbol matches; each word's
    erasure sequence, a (rows, n) permutation of the positions: its input
    erasures in position order, then the other positions from the most to
    the least unreliable (`rs.erasure_order`); and the number of positions
    that each trial of `default_schedule` erases, a prefix of the
    sequence. Trial tau erases the input erasures and the other positions
    of erasure_order[:tau], as `RSCodec.erasure_trials` does."""
    n = codec.params.n
    if any(len(w.symbols) != n for w in words):
        raise CodeError("received word length mismatch")
    rows = len(words)
    order = np.argsort(-np.array([w.unreliability for w in words]).reshape(rows, n), axis=1, kind="stable")
    schedule = np.array(default_schedule(codec.params.d_min))
    y = np.array([w.symbols for w in words]).reshape(rows, n)
    if y.dtype != object:
        return y, y, order, np.repeat(schedule[None], rows, axis=0)
    inputs = np.equal(y, None)
    y[inputs] = 0
    y = np.array(y.tolist()).reshape(rows, n)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    sequences = np.argsort(np.where(inputs, np.arange(n) - n, rank), axis=1)
    # the input erasures among order[:tau]
    recur = np.zeros((rows, n + 1), dtype=np.intp)
    np.cumsum(np.take_along_axis(inputs, order, axis=1), axis=1, out=recur[:, 1:])
    return y, np.where(inputs, -1, y), sequences, inputs.sum(axis=1)[:, None] + schedule - recur[:, schedule]


def _decode_chunk(words: list, codec: RSCodec) -> list:
    """`gmd_decode` of a block of words that is one chunk."""
    n, nsyn = codec.params.n, codec.params.n - codec.params.k
    rows = len(words)
    if not rows:
        return []
    y, known, positions, sizes = trial_sequences(words, codec)
    trial = codec.erasure_trial_rows(y, positions, sizes)
    count = sizes.shape[1]
    mid = count // 2
    found = [[] for _ in range(rows)]  # per word: (the first trial that returns it, candidate, as an array)
    # per word: the trials no candidate settles yet, the last in schedule order first
    pending = [[j for j in range(count - 1, -1, -1) if j != mid] for _ in range(rows)]

    def decode(at: list, batch: list) -> None:
        """Decode one trial per word of `at`, record each candidate found
        and settle the word's trials whose radius holds it."""
        hits = [(r, c) for r, c in zip(at, codec.decode_ee(batch)) if c is not None]
        if not hits:
            return
        at = np.array([r for r, _ in hits])
        cands = np.array([c for _, c in hits], dtype=np.intp)
        lines = np.arange(len(at))[:, None]
        # inside[i, s]: the word's wrong positions among the first s of its
        # erasure sequence, those that the trials erasing s positions erase
        inside = np.zeros((len(at), n + 1), dtype=np.intp)
        np.cumsum((cands != known[at])[lines, positions[at]], axis=1, out=inside[:, 1:])
        size = sizes[at]
        holds = (2 * (inside[:, -1:] - inside[lines, size]) + size <= nsyn).tolist()
        for (r, c), a, holds_r in zip(hits, cands, holds):
            found[r].append((holds_r.index(True), c, a))
            pending[r] = [j for j in pending[r] if not holds_r[j]]

    decode(range(rows), [trial(r, mid) for r in range(rows)])
    # the locators of the trials left unsettled, in order of erasure count
    counts = sizes.tolist()
    left = sorted(((r, j) for r in range(rows) for j in reversed(pending[r])),
                  key=lambda rj: counts[rj[0]][rj[1]])
    solved = [[None] * count for _ in range(rows)]
    for (r, j), t in zip(left, codec.solve_locators([trial(r, j) for r, j in left])):
        solved[r][j] = t
    # rounds: each word's next unsettled trial, in schedule order
    live = [r for r in range(rows) if pending[r]]
    while live:
        decode(live, [solved[r][pending[r].pop()] for r in live])
        live = [r for r in live if pending[r]]

    # a word with several candidates scores each by the sum of 1 - h_i
    # where it matches the word's symbols, added left to right
    out = [c[0][1] if len(c) == 1 else None for c in found]
    many = [r for r, c in enumerate(found) if len(c) > 1]
    if many:
        ranked = [sorted(found[r], key=lambda f: f[0]) for r in many]
        at = [r for r, cands in zip(many, ranked) for _ in cands]
        match = known[at] == np.array([a for cands in ranked for _, _, a in cands])
        h = np.array([words[r].unreliability for r in at])
        scores = iter(np.cumsum(np.where(match, 1.0 - h, 0.0), axis=1)[:, -1].tolist())
        for r, cands in zip(many, ranked):
            best = -1.0
            for (_, cand, _), score in zip(cands, scores):
                # strict inequality keeps the earlier (smaller tau) candidate on ties
                if score > best:
                    best, out[r] = score, cand
    return out

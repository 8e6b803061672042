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
index, read off the sorted erasure ranks of the positions where y and c
differ, is the trial that finds c first. `gmd_decode` builds every
trial in one `RSCodec.erasure_trials` call, decodes the middle trial
first (its key equation is half as long, and where GMD succeeds it
usually finds the transmitted word), solves the locators of the trials
left unsettled in one `RSCodec.solve_locators` call, and runs
`RSCodec.decode_ee` on each of them, in schedule order, that no
candidate found by then settles. No trial whose result could differ
from a known candidate is skipped, so the output is that of decoding
every trial.
"""

from __future__ import annotations

import numpy as np

from .rs import RSCodec, ReceivedWord, erasure_order


def default_schedule(d_min: int) -> list[int]:
    """One trial per distinct BMD capability level: tau stepping by 2 from
    (d_min - 1) mod 2 up to d_min - 1, about d_min / 2 trials."""
    start = (d_min - 1) % 2
    return list(range(start, d_min, 2))


def gmd_decode(word: ReceivedWord, codec: RSCodec) -> list[int] | None:
    """Multi-trial error/erasure decoding with candidate selection, one
    trial per tau of `default_schedule`.

    Candidates are scored by the sum of (1 - h_i) over positions where the
    candidate matches the hard decision; ties go to the candidate produced
    by the smaller erasure count.
    """
    h = word.unreliability
    symbols = word.symbols
    n, nsyn = codec.params.n, codec.params.n - codec.params.k
    trials = codec.erasure_trials(symbols, erasure_order(h), default_schedule(codec.params.d_min))
    y = trials[0].y
    sizes = np.array([len(t.erased) for t in trials])
    # rank[i]: the number of positions erased before position i, n for a
    # position that no trial erases; trial j erases the ranks below sizes[j]
    rank = np.full(n, n)
    rank[trials[-1].erased] = np.arange(sizes[-1])
    settled = np.zeros(len(trials), dtype=bool)
    found = []  # (the first trial that returns the candidate, candidate)

    def add(cand: list[int]) -> None:
        wrong = np.sort(rank[y != cand])
        holds = 2 * (len(wrong) - np.searchsorted(wrong, sizes)) + sizes <= nsyn
        settled[holds] = True
        found.append((int(np.argmax(holds)), cand))

    mid = len(trials) // 2
    probe = codec.decode_ee(trials[mid])
    if probe is not None:
        add(probe)
    settled[mid] = True
    rest = np.flatnonzero(~settled).tolist()
    for j, trial in zip(rest, codec.solve_locators([trials[j] for j in rest])):
        if not settled[j]:
            cand = codec.decode_ee(trial)
            if cand is not None:
                add(cand)

    best = None
    best_score = -1.0
    h_list = h.tolist()
    for _, cand in sorted(found):
        score = sum(1.0 - hi for hi, si, ci in zip(h_list, symbols, cand) if si == ci)
        # strict inequality keeps the earlier (smaller tau) candidate on ties
        if score > best_score:
            best_score = score
            best = cand
    return best

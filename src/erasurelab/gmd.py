"""Forney-style multi-trial GMD decoding.

Runs the error/erasure decoder once per erasure count of a fixed
schedule, one trial per distinct BMD capability level, about d_min/2
trials (G. D. Forney, "Generalized minimum distance decoding", IEEE
Trans. IT 12(2), 1966), erasing the most unreliable positions each time;
collects the distinct codeword candidates, and returns the one with the
largest reliability-weighted agreement with the hard-decision word. The
erasure sets are nested prefixes of `rs.erasure_order`, so each trial
erases the previous trial's positions plus the next ones in that order.
One call of `RSCodec.erasure_trials` per frame builds every trial,
computing the syndromes once and growing the erasure locator and Forney
syndromes by each trial's new positions, and one `RSCodec.decode_ee`
call per trial, in schedule order, finishes each. A position erased in
the input may recur in the prefix; erasing it again changes nothing.
Other trial sets are one `erasure_trials` call with their own erasure
counts."""

from __future__ import annotations

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
    h_list = h.tolist()
    symbols = word.symbols
    taus = default_schedule(codec.params.d_min)
    best = None
    best_score = -1.0
    seen = set()
    for trial in codec.erasure_trials(symbols, erasure_order(h), taus):
        cand = codec.decode_ee(trial)
        if cand is None:
            continue
        key = tuple(cand)
        if key in seen:
            continue
        seen.add(key)
        score = sum(1.0 - hi for hi, si, ci in zip(h_list, symbols, cand) if si == ci)
        # strict inequality keeps the earlier (smaller tau) candidate on ties
        if score > best_score:
            best_score = score
            best = cand
    return best

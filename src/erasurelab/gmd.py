"""Forney-style multi-trial GMD decoding.

Runs the error/erasure decoder once per scheduled erasure count, erasing
the most unreliable positions each time, collects the distinct codeword
candidates, and returns the one with the largest reliability-weighted
agreement with the hard-decision word. The erasure sets are nested
prefixes of `rs.erasure_order`, so each trial erases the previous
trial's positions plus the next ones in that order. One call of
`RSCodec.erasure_trials` per frame builds every trial, computing the
syndromes once and growing the erasure locator and Forney syndromes by
each trial's new positions, and one `RSCodec.decode_ee` call per trial, in
schedule order, finishes each. A position erased in the input may recur
in the prefix; erasing it again changes nothing."""

from __future__ import annotations

from dataclasses import dataclass

from .rs import CodeParams, RSCodec, ReceivedWord, erasure_order


def default_schedule(d_min: int) -> list[int]:
    """One trial per distinct BMD capability level: tau stepping by 2 from
    (d_min - 1) mod 2 up to d_min - 1, about d_min / 2 trials."""
    start = (d_min - 1) % 2
    return list(range(start, d_min, 2))


@dataclass
class GmdConfig:
    erasure_schedule: list[int]

    def __post_init__(self):
        sched = list(self.erasure_schedule)
        if sched != sorted(set(sched)):
            raise ValueError("erasure schedule must be strictly increasing")
        if sched and sched[0] < 0:
            raise ValueError("erasure counts must be non-negative")
        self.erasure_schedule = sched

    @property
    def z(self) -> int:
        return len(self.erasure_schedule)

    @classmethod
    def for_code(cls, params: CodeParams) -> "GmdConfig":
        return cls(default_schedule(params.d_min))


def gmd_decode(word: ReceivedWord, codec: RSCodec, cfg: GmdConfig) -> list[int] | None:
    """Multi-trial error/erasure decoding with candidate selection.

    Candidates are scored by the sum of (1 - h_i) over positions where the
    candidate matches the hard decision; ties go to the candidate produced
    by the smaller erasure count.
    """
    h = word.unreliability
    h_list = h.tolist()
    symbols = word.symbols
    taus = [tau for tau in cfg.erasure_schedule if tau <= codec.params.d_min - 1]
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

"""In-memory span tracer that wraps the lab's public functions from outside.

``Tracer.install`` replaces each traced function (and every module-level
alias of it inside erasurelab, since modules import names directly) with a
wrapper that records (name, start, end, parent, note); ``uninstall`` puts
the originals back, so untraced and traced passes alternate in one
process. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

#: (module, attribute path, span name); the layer is the span name's prefix
TARGETS = (
    ("sim", "run_campaign", "sim.run_campaign"),
    ("sim", "_run_point_mc", "sim.run_point_mc"),
    ("sim", "_run_point_semi", "sim.run_point_semi"),
    ("sim", "_FrameRunner.run_frame", "sim.run_frame"),
    ("sim", "_frame_rng", "sim.frame_rng"),
    ("sim", "sample_unreliability_vectors", "sim.sample_unreliability_vectors"),
    ("sim", "batch_residual_probs", "sim.batch_residual_probs"),
    ("sim", "tau_bar", "sim.tau_bar"),
    ("gf", "GF.__init__", "gf.init"),
    ("rs", "RSCodec.__init__", "rs.codec_init"),
    ("rs", "RSCodec.encode", "rs.encode"),
    ("rs", "RSCodec.decode_ee", "rs.decode_ee"),
    ("rs", "erase_most_unreliable", "rs.erase"),
    ("modem", "SquareQam.__init__", "modem.qam_init"),
    ("modem", "SquareQam.modulate", "modem.modulate"),
    ("modem", "SquareQam.hard_decision", "modem.hard_decision"),
    ("modem", "awgn", "modem.awgn"),
    ("modem", "unreliability_exact", "modem.unreliability_exact"),
    ("modem", "unreliability_nn", "modem.unreliability_nn"),
    ("modem", "UnreliabilityLut.build", "modem.lut_build"),
    ("modem", "UnreliabilityLut.lookup", "modem.lut_lookup"),
    ("strategy", "choose_tau", "strategy.choose_tau"),
    ("strategy", "tau_star_exact", "strategy.tau_star_exact"),
    ("strategy", "tau_star_hoeffding", "strategy.tau_star_hoeffding"),
    ("strategy", "tau_star_eps0", "strategy.tau_star_eps0"),
    ("strategy", "pgf_distribution", "strategy.pgf_distribution"),
    ("gmd", "gmd_decode", "gmd.decode"),
)

#: spans whose note records a property of the call
NOTES = {
    # a decode trial is useful when it returns a codeword
    "rs.decode_ee": lambda result: result is not None,
}

#: calls of unreliability_exact under this parent also record their peak
#: traced allocation in MB (tracemalloc sees numpy's buffers)
ALLOC_PARENT = "sim.sample_unreliability_vectors"


PACKAGE = "erasurelab"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name_id, start_ns, end_ns, parent_index, note]
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording --

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        note_fn = NOTES.get(name)
        alloc = name == "modem.unreliability_exact"
        alloc_parent = self._name_id(ALLOC_PARENT)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name_id, 0, 0, parent, None]
            spans.append(span)
            stack.append(index)
            measure = alloc and parent >= 0 and spans[parent][0] == alloc_parent
            if measure:
                tracemalloc.start()
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if measure:
                    span[4] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if note_fn is not None:
                span[4] = note_fn(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around the block."""
        rec = [self._name_id(name), time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- patching --

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        strategy = importlib.import_module(f"{PACKAGE}.strategy")
        for mod_name, path, span_name in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    wrapped = self._wrap(raw, span_name)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, span_name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)
            # choose_tau dispatches through this table, not the module names
            for kind, fn in list(strategy.STRATEGIES.items()):
                if fn is orig:
                    self._patches.append((strategy.STRATEGIES, kind, orig))
                    strategy.STRATEGIES[kind] = wrapped

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- analysis --

    def segments(self) -> list[tuple[str, int, int]]:
        """(name, first, end) of each top-level span and the spans beneath it."""
        tops = [i for i, s in enumerate(self.spans) if s[3] == -1] + [len(self.spans)]
        return [(self.names[self.spans[a][0]], a, b) for a, b in zip(tops, tops[1:])]

    def self_ns(self, first: int, end: int) -> list[int]:
        """Self time of spans[first:end]: duration minus direct children."""
        own = [s[2] - s[1] for s in self.spans[first:end]]
        for s in self.spans[first + 1 : end]:
            own[s[3] - first] -= s[2] - s[1]
        return own

    def by_segment(self) -> dict:
        """Per top-level span name: how many such spans, and per span name
        beneath them the durations and self times (ns) and the notes."""
        agg: dict = {}
        for seg, first, end in self.segments():
            entry = agg.setdefault(seg, {"segments": 0, "spans": {}})
            entry["segments"] += 1
            for s, own in zip(self.spans[first:end], self.self_ns(first, end)):
                row = entry["spans"].setdefault(self.names[s[0]], {"dur": [], "self": [], "note": []})
                row["dur"].append(s[2] - s[1])
                row["self"].append(own)
                row["note"].append(s[4])
        return agg

    def summary(self) -> dict:
        """Per top-level span name: calls, total and self ms by span name."""
        return {
            seg: {name: {"calls": len(r["dur"]), "total_ms": sum(r["dur"]) / 1e6,
                         "self_ms": sum(r["self"]) / 1e6}
                  for name, r in entry["spans"].items()}
            for seg, entry in self.by_segment().items()
        }

    def write(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "summary": self.summary(),
                    "names": self.names,
                    "spans": [[s[0], (s[1] - t0) / 1e3, (s[2] - s[1]) / 1e3, s[3], s[4]]
                              for s in self.spans],
                },
                fh,
            )

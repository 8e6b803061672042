"""Workload table and the timed operations built from it.

Every workload runs the same six campaign passes per round, each through
``erasurelab.run_campaign`` with ``threads=1``: Monte-Carlo points in
modes errors_only / adaptive / gmd, and semi-simulative points with
exact / lut / nn unreliabilities. The workloads differ in code, Eb/N0
and pass sizes, which moves the time to different layers (see README).
Pass sizes are fixed, and max_errors exceeds max_frames, so early
stopping never changes the work done. Each round draws fresh frames and
vectors, so a run's median averages over inputs as well as over time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import erasurelab as el

MC_MODES = ("errors_only", "adaptive", "gmd")
SEMI_METHODS = ("exact", "lut", "nn")


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n: int
    k: int
    ebn0_db: float
    frames: dict  # Monte-Carlo frames per pass, by mode
    vectors: dict  # semi-simulative vectors per pass, by method; lut and nn
                   # equal, so both read the same channel draws
    check_cases: int  # fixed seeded frames per check kind

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_short", 4, 15, 7, 9.0,
            frames={"errors_only": 512, "adaptive": 256, "gmd": 256},
            vectors={"exact": 8192, "lut": 8192, "nn": 8192},
            check_cases=16,
        ),
        Workload(
            "mc_long", 8, 255, 144, 17.0,
            frames={"errors_only": 4, "adaptive": 1, "gmd": 1},
            vectors={"exact": 16, "lut": 32, "nn": 32},
            check_cases=3,
        ),
        Workload(
            "semi_long", 8, 255, 144, 16.5,
            frames={"errors_only": 4, "adaptive": 1, "gmd": 1},
            vectors={"exact": 128, "lut": 512, "nn": 512},
            check_cases=3,
        ),
    )
}


def build_code(w: Workload) -> el.CodeParams:
    return el.CodeParams(el.GF(w.m), w.n, w.k)


@dataclass(frozen=True)
class Op:
    """One kind of campaign pass."""

    name: str  # errors_only, adaptive, gmd, exact, lut, nn
    metric: str  # end-to-end metric fed by this pass
    size: int  # frames or vectors per pass
    cfg: el.CampaignConfig

    def __call__(self, round_index: int) -> el.FerPoint:
        """The pass of one round: the campaign seed is (run seed, round), so
        every op of a round reads the same frames or channel draws."""
        cfg = replace(self.cfg, seed=(self.cfg.seed << 20) + round_index)
        (point,) = el.run_campaign(cfg, threads=1)
        return point


def build_ops(w: Workload, code: el.CodeParams, seed: int) -> list[Op]:
    """The passes of one round, errors_only first."""
    ops = []
    for mode in MC_MODES:
        frames = w.frames[mode]
        cfg = el.CampaignConfig(
            code, ebn0_grid=(w.ebn0_db,), mode=mode, strategy=el.StrategyKind.EXACT,
            max_frames=frames, max_errors=frames + 1, seed=seed, unreliability="exact",
        )
        ops.append(Op(mode, f"frames_per_s.{mode}", frames, cfg))
    for method in SEMI_METHODS:
        vectors = w.vectors[method]
        cfg = el.CampaignConfig(
            code, ebn0_grid=(w.ebn0_db,), mode="semi_simulative",
            strategy=el.StrategyKind.EXACT, samples=vectors, seed=seed, unreliability=method,
        )
        ops.append(Op(method, f"vectors_per_s.{method}", vectors, cfg))
    return ops

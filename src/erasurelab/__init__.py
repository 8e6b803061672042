"""Reed-Solomon error/erasure decoding laboratory.

Finite-field arithmetic, an algebraic error/erasure decoder, decoding
capability functions for several decoder families, a square-QAM AWGN
channel with symbol unreliability computation, adaptive single-trial
erasing strategies, a multi-trial GMD reference decoder and a simulation
campaign driver.
"""

__version__ = "0.1.0"

from .dcf import NO_CAPABILITY, DecoderCapability, DecoderKind
from .gf import GF, FieldError
from .gmd import gmd_decode
from .modem import SquareQam, UnreliabilityLut, awgn, sigma_from_ebn0
from .rs import CodeParams, ReceivedWord, RSCodec, erase_most_unreliable
from .sim import CampaignConfig, FerPoint, run_campaign
from .strategy import (
    StrategyKind,
    StrategyResult,
    choose_tau,
    pgf_distribution,
    residual_error_prob,
)

__all__ = [
    "GF",
    "FieldError",
    "CodeParams",
    "ReceivedWord",
    "RSCodec",
    "erase_most_unreliable",
    "NO_CAPABILITY",
    "DecoderCapability",
    "DecoderKind",
    "SquareQam",
    "UnreliabilityLut",
    "awgn",
    "sigma_from_ebn0",
    "StrategyKind",
    "StrategyResult",
    "choose_tau",
    "pgf_distribution",
    "residual_error_prob",
    "gmd_decode",
    "CampaignConfig",
    "FerPoint",
    "run_campaign",
    "__version__",
]

"""Output checks of the benchmark, each worked out apart from the lab's code.

Every check returns a list of problems; an empty list means the output
passed. The statistical checks use two-sided limits at 4.5 standard
deviations (tail probability 3.4e-6 per side), so a correct program fails
one of them about once in 10^5 runs.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

Z_LIMIT = 4.5
TAIL_LIMIT = 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0))  # 3.4e-6

#: lut and nn mean P(tau_bar) on the same channel draws may differ by this
#: share of the nn value (see README, "Quantization tolerance")
LUT_NN_TOLERANCE = 0.15

#: absolute and relative slack when comparing two computations of P(tau)
P_ABS_TOL = 1e-13
P_REL_TOL = 1e-9


def _p_close(a: float, b: float) -> bool:
    return abs(a - b) <= P_ABS_TOL + P_REL_TOL * max(abs(a), abs(b))


# -- fixed seeded frames ----------------------------------------------------


def check_encode(field: ref.RefField, codec, info: list[int]) -> list[str]:
    """Systematic codeword with all n-k syndromes zero."""
    p = codec.params
    cw = codec.encode(info)
    problems = []
    if len(cw) != p.n or cw[: p.k] != list(info):
        problems.append("encode: output is not systematic of length n")
    elif any(field.syndromes(cw, p.n - p.k)):
        problems.append("encode: nonzero syndrome under carry-less arithmetic")
    return problems


def check_decode(codec, word_cls, sent: list[int], rng: np.random.Generator) -> list[str]:
    """decode_ee returns the sent codeword when 2*eps + tau <= d_min - 1."""
    p = codec.params
    d = p.d_min
    tau = int(rng.integers(0, d))
    eps = int(rng.integers(0, (d - 1 - tau) // 2 + 1))
    pos = rng.permutation(p.n)
    received: list = list(sent)
    for i in pos[:eps]:
        received[i] ^= int(rng.integers(1, p.q))
    for i in pos[eps : eps + tau]:
        received[i] = None
    out = codec.decode_ee(word_cls(received, np.zeros(p.n)))
    if out != sent:
        return [f"decode_ee: wrong output with eps={eps} tau={tau} d_min={d}"]
    return []


def check_choose_tau(result, h_sorted: np.ndarray, d_min: int) -> list[str]:
    """Exact strategy picks the first minimum of an independent P(tau)."""
    prof = ref.residual_profile(h_sorted, d_min)
    tau = result.tau_chosen
    best = float(prof.min())
    problems = []
    if not 0 <= tau < d_min:
        return [f"choose_tau: tau={tau} outside [0, {d_min - 1}]"]
    if not _p_close(float(prof[tau]), best):
        problems.append(f"choose_tau: P({tau})={prof[tau]:.6g} but the minimum is {best:.6g}")
    earlier = [t for t in range(tau) if prof[t] < prof[tau] and not _p_close(prof[t], prof[tau])]
    if earlier:
        problems.append(f"choose_tau: tau={earlier[0]} has a lower P than the chosen {tau}")
    if not _p_close(result.predicted_p, float(prof[tau])):
        problems.append(
            f"choose_tau: predicted_p={result.predicted_p:.6g} != reference {prof[tau]:.6g}"
        )
    return problems


# -- Monte-Carlo campaign points -------------------------------------------


def check_mc_point(pt, frames: int) -> list[str]:
    if pt.frames != frames or not 0 <= pt.frame_errors <= frames:
        return [f"{pt.mode}: {pt.frame_errors} errors in {pt.frames} frames, asked {frames}"]
    if not math.isclose(pt.fer, pt.frame_errors / frames):
        return [f"{pt.mode}: fer {pt.fer} != errors / frames"]
    return []


def check_prediction(pt) -> list[str]:
    """Frame errors agree with the sum of exact per-frame predictions.

    With exact posteriors the per-frame P(tau) is the true conditional
    error probability, so the count is Poisson-binomial with mean
    frames * predicted_p. Binomial tails with the mean rate bound its tails
    (Hoeffding 1956), which keeps the test exact at small counts.
    """
    if not 0.0 <= pt.predicted_p <= 1.0:
        return [f"{pt.mode}: predicted_p={pt.predicted_p} outside [0, 1]"]
    low, high = ref.binomial_tails(pt.frame_errors, pt.frames, pt.predicted_p)
    if min(low, high) < TAIL_LIMIT:
        return [
            f"{pt.mode}: {pt.frame_errors} errors in {pt.frames} frames against "
            f"{pt.frames * pt.predicted_p:.3f} predicted (tail {min(low, high):.2g})"
        ]
    return []


def check_not_worse(pt, errors_only) -> list[str]:
    """Same frames: no more errors than errors-only decoding, within a paired margin."""
    margin = Z_LIMIT * math.sqrt(pt.frame_errors + errors_only.frame_errors)
    if pt.frame_errors > errors_only.frame_errors + margin:
        return [
            f"{pt.mode}: {pt.frame_errors} errors against {errors_only.frame_errors} "
            "for errors-only on the same frames"
        ]
    return []


# -- semi-simulative points ------------------------------------------------


def check_semi_point(pt, vectors: int, d_min: int) -> list[str]:
    if pt.frames != vectors or not 0 <= pt.tau < d_min or not 0.0 <= pt.fer <= 1.0:
        return [f"semi point with {vectors} vectors: bad output {pt}"]
    return []


def reference_semi_estimate(
    rng: np.random.Generator, vectors: int, code: tuple[int, int, int], ebn0_db: float, tau: int
) -> tuple[float, float]:
    """Mean and standard deviation of P(tau) over independently drawn vectors."""
    m, n, k = code
    M = 1 << m
    d_min = n - k + 1
    sigma = ref.noise_sigma(ebn0_db, M, n, k)
    probs = []
    for lo in range(0, vectors, 256):
        h = ref.sample_sorted_unreliability(rng, min(256, vectors - lo), n, M, sigma)
        probs.append(ref.residual_prob(h, tau, ref.bmd_eps0(d_min, tau)))
    p = np.concatenate(probs)
    return float(p.mean()), float(p.std(ddof=1))


def check_semi_exact(pt, ref_vectors: int, ref_mean: float, ref_std: float) -> list[str]:
    """The lab's mean P(tau_bar) matches the reference estimate within
    Z_LIMIT combined standard errors."""
    se = ref_std * math.sqrt(1.0 / pt.frames + 1.0 / ref_vectors)
    if abs(pt.fer - ref_mean) > Z_LIMIT * se + P_ABS_TOL:
        return [
            f"semi exact: mean P({pt.tau})={pt.fer:.6g}, reference "
            f"{ref_mean:.6g} +- {se:.2g}"
        ]
    return []


def check_lut_against_nn(lut_pt, nn_pt) -> list[str]:
    if abs(lut_pt.fer - nn_pt.fer) > LUT_NN_TOLERANCE * nn_pt.fer + P_ABS_TOL:
        return [f"semi lut: mean P={lut_pt.fer:.6g} against nn {nn_pt.fer:.6g}"]
    return []

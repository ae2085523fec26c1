"""Finite-statistics simulation of the measurement protocol.

Shot sampling uses counter-based (Philox) streams keyed by
(seed, basis index, input index), so per-cell sampling is reproducible and
independent of execution order. Confidence intervals come from a
column-wise percentile bootstrap of the counts.
"""

import warnings

import numpy as np
from dataclasses import dataclass

from .qcore import KrausChannel, conditional_probs
from .detect import DetectionConfig, solve_stack

# a bootstrap peaks near 100 bytes per replicate per d^2 cell, so this caps
# one request's replicates at about 0.5 GB
_MAX_BOOTSTRAP_CELLS = 5_000_000


def _stream(seed: int, basis_index: int, input_index: int, kind: int = 0) -> "np.random.Generator":
    """Independent keyed stream for one (basis, input) sampling cell."""
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    # the key packs both indices into 24-bit fields; a wider one would
    # collide with another cell's stream
    for name, index in (("basis_index", basis_index), ("input_index", input_index)):
        if not 0 <= index < 2**24:
            raise ValueError(f"{name} = {index} outside [0, 2^24)")
    sub = np.uint64((kind << 48) | (basis_index << 24) | input_index)
    return np.random.Generator(np.random.Philox(key=np.array([seed, sub], dtype=np.uint64)))


def _counts(t, shots: int, seed: int, basis_index: int, kind: int = 0, size=None) -> np.ndarray:
    """Multinomial counts of ``shots`` draws from each column of ``t``, one
    keyed stream per input: (outputs, inputs), or (size, outputs, inputs)."""
    return np.stack([_stream(seed, basis_index, n, kind).multinomial(shots, t[:, n], size)
                     for n in range(t.shape[1])], axis=-1)


def sample_transition(transition, shots_per_input: int, seed: int, *, basis_index: int = 0):
    """Draw multinomial counts from each column of a transition matrix.

    Returns the counts and the plug-in estimate counts/shots, whose columns
    sum to one by construction.
    """
    t = np.asarray(transition, dtype=float)
    if shots_per_input < 1:
        raise ValueError("need at least one shot per input")
    # each column over its own 1-D sum; t.sum(axis=0) adds in another order
    # from 8 outputs on, and would move the draws
    counts = _counts(t / [col.sum() for col in t.T], shots_per_input, seed, basis_index)
    return counts, counts / float(shots_per_input)


@dataclass(frozen=True)
class EstimatedDetection:
    point_estimate_bits: float
    ci_low_bits: float
    ci_high_bits: float
    bootstrap_resamples: int
    shots_per_input: int
    seed: int
    argmax_basis: str

    def as_dict(self) -> dict:
        return {
            "point_estimate_bits": self.point_estimate_bits,
            "ci_low_bits": self.ci_low_bits,
            "ci_high_bits": self.ci_high_bits,
            "bootstrap_resamples": self.bootstrap_resamples,
            "shots_per_input": self.shots_per_input,
            "seed": self.seed,
            "argmax_basis": self.argmax_basis,
        }


def detect_from_samples(
    channel: KrausChannel,
    config: DetectionConfig,
    shots_per_input: int,
    seed: int,
    resamples: int = 1000,
) -> EstimatedDetection:
    """Estimate the detected capacity from finite sampling statistics.

    Each distinct basis is sampled once (the weyl family's d + 1 classes,
    under their first labels), and its plug-in estimate is solved with its
    column-resampled bootstrap replicates in one :func:`solve_stack` call,
    the route every ``bound`` solve takes too. The point estimate is the best
    basis's value (the lowest index among exact ties); the 95% percentile
    interval of the replicates' best values, widened to contain it, is the
    confidence interval. Identical (seed, config) inputs reproduce identical
    results. One RuntimeWarning reports every unconverged solve, and
    ``resamples * d * d`` may not exceed ``_MAX_BOOTSTRAP_CELLS``.
    """
    if resamples < 100:
        raise ValueError("use at least 100 bootstrap resamples")
    d = channel.dim
    if resamples * d * d > _MAX_BOOTSTRAP_CELLS:
        raise ValueError(f"resamples x d^2 = {resamples} x {d}^2 exceeds the limit of "
                         f"{_MAX_BOOTSTRAP_CELLS:,} bootstrap cells")
    bases, _ = config.resolve_bases(d)
    caps, gaps = [], []  # per basis: the point estimate, then the replicates
    for i, b in enumerate(bases):
        counts, estimate = sample_transition(conditional_probs(channel, b), shots_per_input, seed,
                                             basis_index=i)
        boot = _counts(estimate, shots_per_input, seed, i, kind=1, size=resamples)
        _, c, _, _, g = solve_stack(np.concatenate([counts[None], boot]) / float(shots_per_input), config)
        caps.append(c)
        gaps.append(g)
    caps, gaps = np.array(caps), np.array(gaps)
    tol = config.ba_tolerance_bits
    wide = gaps > tol
    notes = []
    if wide[:, 0].any():
        unconverged = ", ".join(b.label for b, w in zip(bases, wide[:, 0]) if w)
        notes.append(f"point estimate: {unconverged} did not converge to {tol:g} bits; "
                     f"worst gap {gaps[wide[:, 0], 0].max():.3e} bits")
    for b, w, g in zip(bases, wide[:, 1:], gaps[:, 1:]):
        if w.any():
            notes.append(f"bootstrap replicates: {int(w.sum())} of {resamples} Blahut-Arimoto solves "
                         f"of {b.label} did not converge to {tol:g} bits; worst gap {g.max():.3e} bits")
    if notes:
        warnings.warn("\n".join(notes), RuntimeWarning, stacklevel=2)
    best = int(np.argmax(caps[:, 0]))  # the lowest index among exact ties
    point = float(caps[best, 0])
    lo, hi = np.percentile(caps[:, 1:].max(axis=0), [2.5, 97.5])
    return EstimatedDetection(point, min(float(lo), point), max(float(hi), point), resamples,
                              shots_per_input, seed, bases[best].label)

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
from .detect import DetectionConfig, detect_from_transitions, solve_stack


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


def sample_transition(
    transition,
    shots_per_input: int,
    seed: int,
    *,
    basis_index: int = 0,
):
    """Draw multinomial counts from each column of a transition matrix.

    Returns the counts and the plug-in estimate counts/shots, whose columns
    sum to one by construction.
    """
    t = np.asarray(transition, dtype=float)
    if shots_per_input < 1:
        raise ValueError("need at least one shot per input")
    n_out, n_in = t.shape
    counts = np.empty((n_out, n_in), dtype=np.int64)
    for n in range(n_in):
        col = t[:, n] / t[:, n].sum()
        rng = _stream(seed, basis_index, n)
        counts[:, n] = rng.multinomial(shots_per_input, col)
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

    Transition matrices are estimated basis by basis, each distinct basis
    once (the weyl family's d + 1 classes, under their first labels), the
    detection pipeline runs on the estimates, and a 95% percentile
    bootstrap over column-resampled counts gives the confidence interval.
    Identical (seed, config) inputs reproduce identical results. One
    RuntimeWarning reports the point estimate's and replicates' unconverged solves.
    """
    if resamples < 100:
        raise ValueError("use at least 100 bootstrap resamples")
    bases, _ = config.resolve_bases(channel.dim)
    labels = [b.label for b in bases]
    estimates = []
    for i, b in enumerate(bases):
        t = conditional_probs(channel, b)
        estimates.append(sample_transition(t, shots_per_input, seed, basis_index=i)[1])
    point = detect_from_transitions(estimates, labels, config)

    d = channel.dim
    # one multinomial block per (basis, input) cell keeps streams independent
    boot_counts = [
        np.stack(
            [
                _stream(seed, i, n, kind=1).multinomial(
                    shots_per_input, estimates[i][:, n], size=resamples
                )
                for n in range(d)
            ],
            axis=2,
        )
        for i in range(len(bases))
    ]  # each (resamples, n_out, n_in)
    tol = config.ba_tolerance_bits
    unconverged = [r for r in point.per_basis if not r.converged]
    notes = []
    if unconverged:
        notes.append(f"point estimate: {', '.join(r.label for r in unconverged)} did not converge "
                     f"to {tol:g} bits; worst gap {max(r.gap_bits for r in unconverged):.3e} bits")
    per_basis_caps = []
    for label, bc in zip(labels, boot_counts):
        _, caps, _, _, gaps = solve_stack(bc / float(shots_per_input), config)
        per_basis_caps.append(caps)
        wide = gaps > tol
        if wide.any():
            notes.append(f"bootstrap replicates: {int(wide.sum())} of {gaps.size} Blahut-Arimoto solves "
                         f"of {label} did not converge to {tol:g} bits; worst gap {gaps.max():.3e} bits")
    if notes:
        warnings.warn("\n".join(notes), RuntimeWarning, stacklevel=2)
    values = np.max(per_basis_caps, axis=0)
    lo, hi = np.percentile(values, [2.5, 97.5])
    lo = min(float(lo), point.c_det_bits)
    hi = max(float(hi), point.c_det_bits)
    return EstimatedDetection(
        point.c_det_bits, lo, hi, resamples, shots_per_input, seed, point.argmax_basis
    )

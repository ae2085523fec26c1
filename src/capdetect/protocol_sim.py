"""Finite-statistics simulation of the measurement protocol.

Shot sampling uses counter-based (Philox) streams keyed by
(seed, kind, basis index, input index), so per-cell sampling is
reproducible and independent of execution order. Confidence intervals come
from a column-wise percentile bootstrap of the counts: the 2.5th and 97.5th
percentiles of the replicates' best values, from one sort with numpy's
``linear`` interpolation (Hyndman & Fan's method 7), bit for bit what
``np.percentile`` gives.
"""

import math
import threading
import warnings

import numpy as np
from dataclasses import dataclass

from .qcore import KrausChannel, conditional_probs
from .channels import check_numbers
from .detect import DetectionConfig, solve_stack
from .infotheory import check_integer, check_interval, check_transition_matrix

# a bootstrap peaks near 100 bytes per replicate per d^2 cell, so this caps
# one request's replicates at about 0.5 GB
_MAX_BOOTSTRAP_CELLS = 5_000_000
# consecutive bases whose point-plus-replicate stacks fit in this many cells
# (128 KB of float64) are drawn and solved in one solve_stack call, which
# saves numpy's fixed cost per call. On a 2-vCPU VM, a qubit request's three
# 1,001-row closed-form calls took 0.50 ms and one call 0.21-0.28 ms, and
# Blahut-Arimoto on a 200-resample qutrit request's four stacks went from
# 2.47 to 1.72 ms. Fusing 1,001-row qutrit stacks was no faster (30.8 vs
# 30.3 ms over 20 stacks), so a larger basis is solved alone, and a request
# peaks at the memory of its largest basis, as with one call per basis.
_GROUP_CELLS = 2**14
RESAMPLES = 1000  # the default bootstrap replicate count
_local = threading.local()  # each thread's generator, made on first use


def _stream(seed: int, basis_index: int, input_index: int, kind: int = 0) -> "np.random.Generator":
    """Independent keyed stream for one (kind, basis, input) sampling cell:
    this thread's generator re-keyed to counter 0 and an empty buffer, so it
    draws what a fresh Generator(Philox(key)) draws, until its next call."""
    check_integer("seed", seed, 0, 64)
    # the key packs both indices into 24-bit fields; a wider one would
    # collide with another cell's stream
    check_integer("basis_index", basis_index, 0, 24)
    check_integer("input_index", input_index, 0, 24)
    state = {"counter": (0,) * 4, "key": (seed, (kind << 48) | (basis_index << 24) | input_index)}
    if not hasattr(_local, "gen"):
        _local.gen = np.random.Generator(np.random.Philox())
    _local.gen.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": (0,) * 4,
                                      "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _local.gen


def _check_shots(shots) -> None:
    """Require an integer 1 <= shots < 2^63, the draws numpy's multinomial takes."""
    check_integer("shots per input", shots, 1, 63)


def _sample(t: np.ndarray, shots: int, seed: int, basis_index: int) -> np.ndarray:
    """Multinomial counts of ``shots`` draws from each column of a checked
    transition, one keyed stream (seed, 0, basis_index, input) per input,
    each column divided by its own 1-D sum: t.sum(axis=0) adds in another
    order from 8 outputs on, which would move the draws."""
    t = t / [col.sum() for col in t.T]
    return np.stack([_stream(seed, basis_index, n).multinomial(shots, t[:, n]) for n in range(t.shape[1])],
                    axis=-1)


def sample_transition(transition, shots_per_input: int, seed: int, *, basis_index: int = 0):
    """Draw multinomial counts from each column of a column-stochastic matrix.

    Returns the counts and the plug-in estimate counts/shots, whose columns
    sum to one by construction.
    """
    _check_shots(shots_per_input)
    counts = _sample(check_transition_matrix(transition), shots_per_input, seed, basis_index)
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
        return dict(vars(self))  # asdict's field order; every field is a number or a string


def _check_resamples(resamples: int, d: int) -> None:
    check_integer("resamples", resamples, 100)
    if resamples * d * d > _MAX_BOOTSTRAP_CELLS:
        raise ValueError(f"resamples x d^2 = {resamples} x {d}^2 exceeds the limit of "
                         f"{_MAX_BOOTSTRAP_CELLS:,} bootstrap cells")


def sample_counts(channel: KrausChannel, bases, shots: int, seed: int) -> np.ndarray:
    """(k, outputs, inputs) :func:`sample_transition` counts of ``shots`` draws per
    input of the k bases, from one transition pass; basis i's keys are (seed, 0, i, input)."""
    _check_shots(shots)
    return np.stack([_sample(t, shots, seed, i) for i, t in enumerate(conditional_probs(channel, bases))])


def detect_from_counts(counts, shots: int, labels, config: DetectionConfig, seed: int,
                       resamples: int = RESAMPLES) -> EstimatedDetection:
    """Estimate the detected capacity from ``counts[i]``, basis i's (outputs,
    inputs) table of ``shots`` draws per input, labelled ``labels[i]``;
    shots that are not an integer in [1, 2^63), as for :func:`sample_transition`,
    counts :func:`channels.check_numbers` rejects, tables of another shape
    or whose columns do not sum exactly to shots, and negative or
    non-integer counts fail, each saying which.

    Each plug-in estimate counts/shots is solved with its column-resampled
    bootstrap replicates, keyed (seed, 1, i, input), by :func:`solve_stack`,
    the route every ``bound`` solve takes too; consecutive bases whose
    stacks fit ``_GROUP_CELLS`` together share one call, a larger basis has
    one of its own, and either way every value is the same. The point
    estimate is the best basis's value (the lowest index among exact ties);
    the 95% percentile interval of the replicates' best values, widened to
    contain it, is the confidence interval. Its ends are the 2.5th and
    97.5th percentiles, interpolated between two order statistics as
    ``np.percentile``'s ``linear`` method does, to the bit (see
    :func:`_percentile_interval`). One RuntimeWarning, at the caller's line,
    reports every unconverged solve, and ``resamples * d * d`` may not
    exceed ``_MAX_BOOTSTRAP_CELLS``."""
    _check_shots(shots)
    malformed = f"need one square count table per label, columns summing to shots = {shots}"
    tables = check_numbers(counts, "counts")
    d = tables.shape[-1] if tables.ndim == 3 else 0
    if tables.shape != (len(labels), d, d) or not tables.size:
        raise ValueError(malformed)
    _check_resamples(resamples, d)
    check_interval("counts", tables, 0.0, np.inf)  # negatives fail
    fractional = tables[tables != np.floor(tables)]
    if fractional.size:
        raise ValueError(f"counts must be integers, got {fractional[0]} "
                         f"({fractional.size} of {tables.size} entries)")
    # the whole, non-negative cells as given, not as float64 rounds them past 2^53, summed exactly as Python ints
    if (np.frompyfunc(int, 1, 1)(np.array(counts, dtype=object)).sum(axis=1) != shots).any():
        raise ValueError(malformed)
    return _estimate(tables, shots, labels, config, seed, resamples)


def _estimate(counts: np.ndarray, shots: int, labels, config: DetectionConfig, seed: int, resamples: int):
    """The estimate of :func:`detect_from_counts` from a (k, d, d) array of
    counts that meets its checks; its warning points at the line that called
    the public function, two frames up."""
    d = counts.shape[-1]
    rows = resamples + 1
    per_call = max(1, _GROUP_CELLS // (rows * d * d))
    caps, gaps = [], []  # per call: (bases, rows), the point estimate, then the replicates
    for first in range(0, len(counts), per_call):
        group = range(first, min(first + per_call, len(counts)))
        # each basis's counts, then its replicates, one keyed stream per input
        stack = np.empty((len(group), rows, d, d))
        for j, i in enumerate(group):
            stack[j, 0] = counts[i]
            t = counts[i] / float(shots)
            for n in range(d):
                stack[j, 1:, :, n] = _stream(seed, i, n, 1).multinomial(shots, t[:, n], resamples)
        stack /= float(shots)
        _, cap, _, _, g = solve_stack(stack.reshape(-1, d, d), config)
        caps.append(cap.reshape(-1, rows))
        gaps.append(g.reshape(-1, rows))
    caps, gaps = np.concatenate(caps), np.concatenate(gaps)
    tol = config.ba_tolerance_bits
    wide = ~(gaps <= tol)  # a NaN gap is not converged
    notes = []
    if wide[:, 0].any():
        unconverged = ", ".join(label for label, w in zip(labels, wide[:, 0]) if w)
        notes.append(f"point estimate: {unconverged} did not converge to {tol:g} bits; "
                     f"worst gap {gaps[wide[:, 0], 0].max():.3e} bits")
    for label, w, g in zip(labels, wide[:, 1:], gaps[:, 1:]):
        if w.any():
            notes.append(f"bootstrap replicates: {int(w.sum())} of {resamples} Blahut-Arimoto solves "
                         f"of {label} did not converge to {tol:g} bits; worst gap {g.max():.3e} bits")
    if notes:
        warnings.warn("\n".join(notes), RuntimeWarning, stacklevel=3)
    best = int(np.argmax(caps[:, 0]))  # the lowest index among exact ties
    point = float(caps[best, 0])
    lo, hi = _percentile_interval(caps[:, 1:].max(axis=0))
    return EstimatedDetection(point, min(lo, point), max(hi, point), resamples, shots, seed, labels[best])


def _percentile_interval(values: np.ndarray) -> tuple:
    """The 2.5th and 97.5th percentiles of a 1-D float array of n >= 2
    entries, as floats, bit for bit what ``np.percentile(values, [2.5,
    97.5])`` gives (Hyndman & Fan's method 7, numpy's ``linear``), from one
    sort: at x = (n - 1) q, g = x - floor(x), between the order statistics a
    and b at floor(x) and floor(x) + 1, ``b - (b - a)(1 - g)`` if g >= 0.5,
    else ``a + (b - a)g``. Both are NaN, the sorted array's last entry, if
    it holds a NaN. Where +0.0 and -0.0 tie, the sort may order them
    otherwise than numpy's partition does, so a zero end may differ in
    sign; replicate capacities are never -0.0."""
    v = np.sort(values)
    if np.isnan(v[-1]):
        return float(v[-1]), float(v[-1])
    ends = []
    for q in (2.5, 97.5):
        x = (len(v) - 1) * (q / 100)
        i = math.floor(x)
        g, a, b = x - i, float(v[i]), float(v[i + 1])
        ends.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(ends)


def detect_from_samples(channel: KrausChannel, config: DetectionConfig, shots_per_input: int, seed: int,
                        resamples: int = RESAMPLES) -> EstimatedDetection:
    """:func:`detect_from_counts` on the :func:`sample_counts` of each distinct
    basis (the weyl family's d + 1 classes, under their first labels)."""
    _check_resamples(resamples, channel.dim)
    bases = config.resolve_bases(channel.dim)
    counts = sample_counts(channel, bases, shots_per_input, seed)
    return _estimate(counts, shots_per_input, [b.label for b in bases], config, seed, resamples)

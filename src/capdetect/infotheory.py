"""Classical information theory: entropies, mutual information, the
Blahut-Arimoto capacity solver, and closed forms for binary and weakly
symmetric channels.

Everything is in bits (base-2 logarithms). Transition matrices are
column-stochastic: entry (m, n) is the probability of output m given
input n.
"""

import warnings

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple


def check_prob_vector(p, tol: float = 1e-10) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if p.min() < -tol:
        raise ValueError(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > max(tol, 1e-12 * p.size):
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
    return np.clip(p, 0.0, 1.0)


def check_transition_matrix(t, tol: float = 1e-9) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError("transition matrix must be two-dimensional")
    return check_transition_stack(t[None], tol)[0]


def check_transition_stack(t, tol: float = 1e-9) -> np.ndarray:
    """Validate a stack (g, outputs, inputs) of column-stochastic matrices
    and return it clipped to [0, 1]."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("expected a stack of transition matrices")
    # written so that NaN entries fail the checks
    if not (t.min() >= -tol and t.max() <= 1.0 + tol):
        raise ValueError("transition probabilities must lie in [0, 1]")
    worst = np.max(np.abs(t.sum(axis=1) - 1.0))
    if not worst <= tol:
        raise ValueError(f"columns must sum to 1; worst deviation {worst:.3e}")
    return np.clip(t, 0.0, 1.0)


def check_unit_interval(name: str, values, slack: float = 0.0) -> np.ndarray:
    """``values`` as a float array, after checking that every entry lies in
    [-slack, 1 + slack]. The error names the first entry outside (NaN
    included) and, for arrays, how many entries are outside."""
    v = np.asarray(values, dtype=float)
    bad = ~((v >= -slack) & (v <= 1.0 + slack))
    if bad.any():
        count = f" ({int(bad.sum())} of {v.size} entries)" if v.ndim else ""
        raise ValueError(f"{name} = {v[bad][0]} outside [0, 1]{count}")
    return v


def binary_entropy(x):
    """H(x) = -x log2 x - (1-x) log2(1-x), elementwise, with 0 log 0 = 0."""
    x = check_unit_interval("binary entropy argument", x, slack=1e-9)
    out = _h(np.clip(x, 0.0, 1.0))
    if np.ndim(out) == 0:
        return float(out)
    return out


def _h(x: np.ndarray) -> np.ndarray:
    """Binary entropy of an array already inside [0, 1]."""
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = check_prob_vector(p)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(prior, transition) -> float:
    """I(X;Y) in bits for input prior p_x and column-stochastic p(y|x)."""
    p = check_prob_vector(prior)
    t = check_transition_matrix(transition)
    if t.shape[1] != p.size:
        raise ValueError(f"prior has {p.size} entries but transition has {t.shape[1]} inputs")
    q = t @ p
    logt = np.zeros_like(t)
    np.log2(t, out=logt, where=t > 0.0)
    logq = np.zeros_like(q)
    np.log2(q, out=logq, where=q > 0.0)
    per_input = (t * (logt - logq[:, None])).sum(axis=0)
    return max(float(p @ per_input), 0.0)


@dataclass
class BAResult:
    capacity_bits: float
    optimal_prior: np.ndarray
    iterations: int
    gap_bits: float
    converged: bool


def blahut_arimoto(transition, tol_bits: float = 1e-9, max_iter: int = 100_000) -> BAResult:
    """Channel capacity of a discrete memoryless channel by alternating
    maximization, from the uniform prior; the one-matrix call of
    :func:`blahut_arimoto_batch`, whose docstring gives the recursion.

    Blahut-Arimoto takes a squared-extrapolation (SQUAREM) step after every
    two BA-map evaluations, and one iteration is one BA-map evaluation. The
    returned ``capacity_bits`` is the best lower bound seen, with the BA-map
    prior that attains it, and ``gap_bits`` is the smallest upper bound seen
    minus it; iteration stops once the gap reaches ``tol_bits``. If
    ``max_iter`` evaluations run out first the best-so-far result is
    returned with ``converged=False``.
    """
    t = check_transition_matrix(transition)
    caps, priors, iterations, gaps = blahut_arimoto_batch(t[None], tol_bits, max_iter)
    gap = float(gaps[0])
    return BAResult(float(caps[0]), priors[0], int(iterations[0]), gap, gap <= tol_bits)


def blahut_arimoto_batch(transitions, tol_bits: float = 1e-9, max_iter: int = 100_000):
    """Blahut-Arimoto over a stack of transition matrices (g, outputs, inputs),
    each started from the uniform prior, with squared extrapolation
    (SQUAREM; Varadhan & Roland, Scand. J. Stat. 35(2), 2008).

    One iteration is one evaluation of the BA map F at a prior p: against
    q = T p it computes c_n = 2^D(p(.|n) || q) and F(p)_n = p_n c_n / sum_k
    p_k c_k. Each evaluation also brackets the capacity, for every prior,
    between log2(sum_n p_n c_n) and log2(max_n c_n), and the lower end is
    attained by F(p): I(F(p), T) >= log2(sum_n p_n c_n). The iterates run in
    cycles from p0: p1 = F(p0), p2 = F(p1), r = p1 - p0, v = p2 - 2 p1 + p0
    and alpha = min(-|r|/|v|, -1); the next cycle starts from
    p0 - 2 alpha r + alpha^2 v, renormalised. While that point has a
    negative entry, alpha is moved halfway to -1, at most 5 times, and if it
    is still infeasible the cycle starts from p2 (which alpha = -1 gives).
    Step lengths, backtracking and fallback are per matrix, so a batched
    call equals the one-matrix calls.

    Returns arrays (capacities, priors, iterations, gaps): the best lower
    bound seen with the BA-map prior that attains it, the evaluations made,
    and the smallest upper bound seen minus that lower bound. A matrix stops
    once its gap reaches ``tol_bits``, or after ``max_iter`` evaluations.
    """
    t = check_transition_stack(transitions)
    if tol_bits <= 0.0:
        raise ValueError("tol_bits must be positive")
    g, _, n_in = t.shape
    mask = t > 0.0
    t_log_t = np.zeros_like(t)
    t_log_t[mask] = t[mask] * np.log2(t[mask])
    kl_const = t_log_t.sum(axis=1)  # (g, n_in)

    priors = np.full((g, n_in), 1.0 / n_in)
    capacities = np.zeros(g)
    uppers = np.full(g, np.inf)
    iterations = np.zeros(g, dtype=int)
    # the still-iterating matrices, compacted only on rounds where one of
    # them converges; outputs that never occur (q = 0) contribute nothing.
    # lo, hi and best hold the running bracket and the prior attaining lo
    active, ta, ka, pa = np.arange(g), t, kl_const, priors.copy()
    lo, hi, best = np.full(g, -np.inf), uppers.copy(), priors.copy()
    for it in range(1, max_iter + 1):
        q = np.einsum("gmn,gn->gm", ta, pa)
        logq = np.zeros_like(q)
        np.log2(q, out=logq, where=q > 0.0)
        kl = ka - np.einsum("gmn,gm->gn", ta, logq)  # log2 c_n = D(p(.|n) || q)
        weighted = pa * np.exp2(kl)
        total = weighted.sum(axis=1)
        mapped = weighted / total[:, None]
        lower = np.log2(total)
        raised = lower > lo
        lo = np.where(raised, lower, lo)
        best = np.where(raised[:, None], mapped, best)
        hi = np.minimum(hi, kl.max(axis=1))
        if it % 2:
            p0, pa = pa, mapped
        else:
            pa = _squarem_step(p0, pa, mapped)
        done = hi - lo <= tol_bits
        if done.any() or it == max_iter:
            capacities[active] = lo
            uppers[active] = hi
            iterations[active] = it
            priors[active] = best
            keep = ~done
            active, ta, ka, pa = active[keep], ta[keep], ka[keep], pa[keep]
            lo, hi, best = lo[keep], hi[keep], best[keep]
            if it % 2:
                p0 = p0[keep]
            if active.size == 0:
                break
    return capacities, priors, iterations, uppers - capacities


def warn_unconverged(gaps, tol_bits: float, what: str) -> None:
    """Warn, naming ``what``, when brackets returned by
    :func:`blahut_arimoto_batch` are wider than ``tol_bits``: their
    capacities are still lower bounds, but not within ``tol_bits`` of C."""
    wide = gaps > tol_bits
    if wide.any():
        warnings.warn(
            f"{what}: {int(wide.sum())} of {gaps.size} Blahut-Arimoto solves did not "
            f"converge to {tol_bits:g} bits; worst gap {gaps.max():.3e} bits",
            RuntimeWarning,
            stacklevel=3,
        )


def _squarem_step(p0, p1, p2):
    """The extrapolated prior of one SQUAREM cycle, row by row."""
    r = p1 - p0
    v = p2 - 2.0 * p1 + p0
    nr = np.linalg.norm(r, axis=1)
    nv = np.linalg.norm(v, axis=1)
    alpha = -np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0.0)
    alpha = np.minimum(alpha, -1.0)[:, None]
    step = p0 - 2.0 * alpha * r + alpha * alpha * v
    for _ in range(5):
        bad = (step < 0.0).any(axis=1, keepdims=True)
        if not bad.any():
            break
        alpha = np.where(bad, (alpha - 1.0) / 2.0, alpha)
        step = p0 - 2.0 * alpha * r + alpha * alpha * v
    bad = (step < 0.0).any(axis=1, keepdims=True)
    return np.where(bad, p2, step / step.sum(axis=1, keepdims=True))


class BinaryCapacity(NamedTuple):
    capacity_bits: float
    optimal_p0: float


def binary_capacity(eps0, eps1) -> BinaryCapacity:
    """Capacity and optimal prior of the binary asymmetric channel with
    error probabilities eps0 (input 0 received as 1) and eps1 (input 1
    received as 0), elementwise over arrays; scalar inputs give floats.

    Labels are first canonicalized (flip outputs if eps0 + eps1 > 1, swap
    inputs if eps0 > eps1); the returned prior refers to the original
    input 0. The optimal prior has a closed form (Silverman 1955), and the
    reported capacity is the mutual information at that prior, which stays
    accurate where the closed-form capacity expression cancels, near the
    degenerate line eps0 + eps1 = 1. That line carries no information.
    """
    e0 = check_unit_interval("eps0", eps0)
    e1 = check_unit_interval("eps1", eps1)
    flip = e0 + e1 > 1.0
    e0, e1 = np.where(flip, 1.0 - e0, e0), np.where(flip, 1.0 - e1, e1)
    swapped = e0 > e1
    e0, e1 = np.where(swapped, e1, e0), np.where(swapped, e0, e1)
    span = 1.0 - e0 - e1
    live = span >= 1e-12
    span = np.where(live, span, 1.0)
    h0 = _h(e0)
    h1 = _h(e1)
    z1 = 1.0 + np.exp2((h0 - h1) / span)
    p0 = np.clip((1.0 - e1 * z1) / (span * z1), 0.0, 1.0)
    cap = _h(p0 * (1.0 - e0) + (1.0 - p0) * e1) - p0 * h0 - (1.0 - p0) * h1
    cap = np.where(live, np.maximum(cap, 0.0), 0.0)
    p0 = np.where(live, np.where(swapped, 1.0 - p0, p0), 0.5)
    if cap.ndim == 0:
        return BinaryCapacity(float(cap), float(p0))
    return BinaryCapacity(cap, p0)


class WeaklySymmetric(NamedTuple):
    capacity_bits: float
    note: str


def weakly_symmetric_capacity(transition, tol: float = 1e-10) -> WeaklySymmetric | None:
    """Closed-form capacity when every column is a permutation of every
    other and all row sums are equal: log2(outputs) - H(column), achieved
    by the uniform prior. Returns None when the structure is absent."""
    t = check_transition_matrix(transition)
    sorted_cols = np.sort(t, axis=0)
    if np.max(np.abs(sorted_cols - sorted_cols[:, [0]])) > tol:
        return None
    row_sums = t.sum(axis=1)
    if row_sums.max() - row_sums.min() > tol:
        return None
    cap = float(np.log2(t.shape[0]) - shannon_entropy(t[:, 0]))
    return WeaklySymmetric(max(cap, 0.0), "weakly symmetric: uniform prior is optimal")

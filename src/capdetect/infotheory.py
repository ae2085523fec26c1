"""Classical information theory: entropies, mutual information, the
Blahut-Arimoto capacity solver, and the closed form for binary channels.

Everything is in bits (base-2 logarithms). Transition matrices are
column-stochastic: entry (m, n) is the probability of output m given
input n.
"""

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

# A Blahut-Arimoto round reduces (rows, inputs) arrays across their inputs.
# numpy's axis=1 reductions pay a fixed cost per row; on a stack at least
# this tall, with fewer than 8 inputs, the round reduces column by column
# instead. Per call on 1,001 rows (2 vCPU, numpy 2.4), numpy -> columns:
# sum 19.9 -> 3.9 us and max 48.4 -> 3.3 us at 3 inputs, sum 24.0 -> 9.3 us
# and max 64.7 -> 12.4 us at 7. The column sums break even near 64 rows at
# 3 inputs and 128-256 rows at 5-7, the maxima from 32-64 rows; below that
# the columns lose (4 rows, 5 inputs: sum 1.8 vs 3.2 us).
_TALL_ROWS = 128
BA_TOL_BITS = 1e-9  # Blahut-Arimoto's default certified gap, in bits,
BA_MAX_ITER = 100_000  # and its default limit of BA-map evaluations
TRANSITION_TOL = 1e-9  # how far a transition's entries may leave [0, 1], and its column sums 1


def check_prob_vector(p) -> np.ndarray:
    """Validate a non-empty one-dimensional probability vector and return
    it clipped to [0, 1]. The comparisons are written so that NaN fails."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"probability vector must be one-dimensional and non-empty, got shape {p.shape}")
    if not p.min() >= -1e-10:
        raise ValueError(f"probabilities must be >= 0, got {p.min()}")
    if not abs(p.sum() - 1.0) <= max(1e-10, 1e-12 * p.size):
        raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
    return np.clip(p, 0.0, 1.0)


def check_transition_matrix(t, name: str = "transition") -> np.ndarray:
    """One matrix's :func:`check_transition_stack`, whose errors call it ``name``."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError(f"transition matrix must be two-dimensional, got shape {t.shape}")
    return check_transition_stack(t[None], name)[0]


def check_transition_stack(t, name: str = "transition") -> np.ndarray:
    """Validate a stack (g, outputs, inputs) of column-stochastic matrices,
    entries and column sums within TRANSITION_TOL, and return it clipped to
    [0, 1]. The error names the first fault, by ``name`` (numbered from 1 in
    a stack of several), row and cell, or ``name`` and column."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("expected a stack of transition matrices")
    if not t.size:
        raise ValueError(f"{name} must be non-empty, got shape {t.shape[1:] if len(t) == 1 else t.shape}")
    # |each column's sum - 1|: the sums of t.sum(axis=1), several times faster
    # on wide stacks; the checks are written so that NaN entries fail them
    deviations = np.abs(np.einsum("gmn->gn", t) - 1.0)
    if not (t.min() >= -TRANSITION_TOL and t.max() <= 1.0 + TRANSITION_TOL and deviations.max() <= TRANSITION_TOL):
        of = (lambda k: name) if len(t) == 1 else (lambda k: f"{name} {k + 1}")
        outside = np.argwhere(~((t >= -TRANSITION_TOL) & (t <= 1.0 + TRANSITION_TOL)))
        if len(outside):
            k, r, c = outside[0]
            raise ValueError(f"row {r + 1} of {of(k)}: cell {c + 1} must lie in [0, 1], got {float(t[k, r, c])}")
        k, c = np.argwhere(~(deviations <= TRANSITION_TOL))[0]
        raise ValueError(f"column {c + 1} of {of(k)} must sum to 1, got {t[k, :, c].sum():.12g} "
                         f"(deviation {deviations[k, c]:.3e})")
    return np.clip(t, 0.0, 1.0)


def check_interval(name: str, values, lo: float = 0.0, hi: float = 1.0, slack: float = 0.0) -> np.ndarray:
    """``values`` as a float array, after checking that every entry lies in
    [lo - slack, hi + slack]. The error names the first entry outside (NaN
    included) and, for arrays, how many entries are outside."""
    v = np.asarray(values, dtype=float)
    # the comparisons are written so that NaN fails them
    bad = ~((v >= lo - slack) & (v <= hi + slack))
    if bad.any():
        count = f" ({int(bad.sum())} of {v.size} entries)" if v.ndim else ""
        raise ValueError(f"{name} = {v[bad][0]} outside [{lo:g}, {hi:g}]{count}")
    return v


def check_integer(name: str, value, lo: int, bits: int | None = None) -> None:
    """Require an int or numpy integer, not a bool, that is >= lo and, given
    ``bits``, below 2^bits; the error names ``name`` and the range."""
    if type(value) is not int and isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)  # compared exactly, and shown alike on every numpy
    if type(value) is not int or value < lo or (bits is not None and value >= 1 << bits):
        span = f">= {lo}" if bits is None else f"in [{lo}, 2^{bits})"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def check_tolerance(name: str, tol) -> None:
    """Require a finite tolerance > 0 (NaN fails)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")


def check_solver_settings(tol_bits, max_iter) -> None:
    """Require what Blahut-Arimoto needs: a finite tolerance > 0 and an
    integer iteration limit >= 1."""
    check_tolerance("tol_bits", tol_bits)
    check_integer("max_iter", max_iter, 1)


def _log2_or_zero(x: np.ndarray) -> np.ndarray:
    """log2 x elementwise, with log2 0 taken as 0, so that 0 log 0 = 0."""
    return np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _float_or_array(a):
    """The float a 0-d result holds, else the array."""
    return float(a) if np.ndim(a) == 0 else a


def binary_entropy(x):
    """H(x) = -x log2 x - (1-x) log2(1-x), elementwise, with 0 log 0 = 0.
    Scalar inputs give Python floats."""
    x = check_interval("binary entropy argument", x, slack=1e-9)
    return _float_or_array(_h(np.clip(x, 0.0, 1.0)))


def _h(x: np.ndarray) -> np.ndarray:
    """Binary entropy of an array already inside [0, 1]. The mask is skipped
    when every entry lies inside (0, 1), where it gives the same floats."""
    if x.size and x.min() > 0.0 and x.max() < 1.0:
        return -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = check_prob_vector(p)
    nz = p[p > 0.0]
    return float(0.0 - (nz * np.log2(nz)).sum())  # 0.0, not -0.0, for a point mass


def mutual_information(prior, transition) -> float:
    """I(X;Y) in bits for input prior p_x and column-stochastic p(y|x)."""
    p = check_prob_vector(prior)
    t = check_transition_matrix(transition)
    if t.shape[1] != p.size:
        raise ValueError(f"prior has {p.size} entries but transition has {t.shape[1]} inputs")
    per_input = (t * (_log2_or_zero(t) - _log2_or_zero(t @ p)[:, None])).sum(axis=0)
    return max(float(p @ per_input), 0.0)


@dataclass
class BAResult:
    capacity_bits: float
    optimal_prior: np.ndarray
    iterations: int
    gap_bits: float
    converged: bool


def blahut_arimoto(transition, tol_bits: float = BA_TOL_BITS, max_iter: int = BA_MAX_ITER) -> BAResult:
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
    caps, priors, iterations, gaps = _blahut_arimoto_checked(t[None], tol_bits, max_iter)
    gap = float(gaps[0])
    return BAResult(float(caps[0]), priors[0], int(iterations[0]), gap, gap <= tol_bits)


def blahut_arimoto_batch(transitions, tol_bits: float = BA_TOL_BITS, max_iter: int = BA_MAX_ITER):
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
    call equals the one-matrix calls. A round skips the log2 q mask when
    every q > 0, where the masked form gives the same floats, so results do
    not depend on the path. On a stack of at least
    ``_TALL_ROWS`` still-open matrices with fewer than 8 inputs, the round's
    sums, maxima and ``any`` across inputs run column by column, with the
    same bits: numpy adds fewer than 8 terms in index order, and max and any
    are exact.

    A matrix still open after 24 evaluations, and every 8 after that, also
    gets a candidate prior: 3 Newton steps for max I(p, T) on the face of
    inputs whose weight in the best prior exceeds 1e-3 of its largest
    entry, or that reach an output none of those reaches, on the KKT
    system of H_nk = sum_m T_mn T_mk / q_m with a 1e-12 trace(H) ridge,
    right side ln2 D_n and sum_n p_n = 1, each step the full Newton step or
    0.9 of the way to the face's boundary, if shorter.
    Its bracket may only raise the lower end (with F(candidate) as the best
    prior) and lower the upper end, so a wrong face costs only time. An
    input with mass on an output where q = 0 has D = +inf, or the upper end
    at a prior with zero entries could fall below the capacity.

    Returns arrays (capacities, priors, iterations, gaps): the best lower
    bound seen with the BA-map prior that attains it, the loop rounds made
    (a candidate's evaluation is not counted), and the smallest upper bound
    seen minus that lower bound. A matrix stops once its gap reaches
    ``tol_bits``, or after ``max_iter`` rounds. Then a lower bound that
    rounding put below 0 is raised to 0, and an upper bound below the lower
    bound to it, so no capacity or gap is negative.
    """
    return _blahut_arimoto_checked(check_transition_stack(transitions), tol_bits, max_iter)


def _blahut_arimoto_checked(t: np.ndarray, tol_bits: float, max_iter: int):
    """:func:`blahut_arimoto_batch` of a stack that passed its check."""
    check_solver_settings(tol_bits, max_iter)
    g, _, n_in = t.shape
    kl_const = (t * _log2_or_zero(t)).sum(axis=1)  # sum_m t log2 t, (g, n_in)

    priors = np.full((g, n_in), 1.0 / n_in)
    capacities = np.zeros(g)
    uppers = np.full(g, np.inf)
    iterations = np.zeros(g, dtype=int)
    # the still-iterating matrices, compacted only on rounds where one of
    # them converges; lo, hi and best hold the running bracket and the prior
    # attaining lo, updated in place
    active, ta, ka, pa = np.arange(g), t, kl_const, priors.copy()
    lo, hi, best = np.full(g, -np.inf), uppers.copy(), priors.copy()
    for it in range(1, max_iter + 1):
        mapped, lower, upper = _ba_map(ta, ka, pa)
        raised = lower > lo
        np.copyto(lo, lower, where=raised)
        np.copyto(best, mapped, where=raised[:, None])
        np.minimum(hi, upper, out=hi)
        if it % 2:
            p0, pa = pa, mapped
        else:
            pa = _squarem_step(p0, pa, mapped)
        # the face-Newton candidates of the matrices still open
        rows = np.flatnonzero(~(hi - lo <= tol_bits)) if it >= 24 and it % 8 == 0 else ()
        if len(rows):
            mapped, lower, upper = _ba_map(ta[rows], ka[rows], _face_newton(ta[rows], ka[rows], best[rows]))
            raised = lower > lo[rows]
            lo[rows[raised]] = lower[raised]
            best[rows[raised]] = mapped[raised]
            hi[rows] = np.fmin(hi[rows], upper)
        # fmin.reduce skips NaN gaps, which never count as done
        gap = hi - lo
        if np.fmin.reduce(gap) <= tol_bits or it == max_iter:
            capacities[active] = lo
            uppers[active] = hi
            iterations[active] = it
            priors[active] = best
            keep = ~(gap <= tol_bits)
            active, ta, ka, pa = active[keep], ta[keep], ka[keep], pa[keep]
            lo, hi, best = lo[keep], hi[keep], best[keep]
            if it % 2:
                p0 = p0[keep]
            if active.size == 0:
                break
    capacities = np.maximum(capacities, 0.0)  # not (0.0, capacities), which keeps a -0.0
    return capacities, priors, iterations, np.maximum(uppers, capacities) - capacities


def _ba_map(t, kl_const, p):
    """The BA map at the priors p (rows) and its bracket: F(p),
    log2(sum_n p_n c_n) and max_n log2 c_n, with the +inf rule for q = 0."""
    q = np.einsum("gmn,gn->gm", t, p)
    reached = q.min() > 0.0
    # log2 c_n = D(p(.|n) || q); the upper end takes +inf for an input with mass where q = 0
    kl = kl_const - np.einsum("gmn,gm->gn", t, np.log2(q) if reached else _log2_or_zero(q))
    upper = _row_reduce(np.maximum, kl if reached else
                        np.where(np.einsum("gmn,gm->gn", t, q == 0.0) > 0.0, np.inf, kl))
    weighted = p * np.exp2(kl)
    total = _row_reduce(np.add, weighted)
    return weighted / total[:, None], np.log2(total), upper


def _face_newton(t, kl_const, best):
    """The face-Newton candidate of each row of ``best`` (see
    :func:`blahut_arimoto_batch`), on a face that also takes every input
    reaching an output no face input reaches; inputs off it keep weight 0."""
    g, _, n = t.shape
    face = best > 1e-3 * best.max(axis=1, keepdims=True)
    face |= ((t > 0.0) & ~((t > 0.0) & face[:, None, :]).any(axis=2, keepdims=True)).any(axis=1)
    p = np.where(face, best, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    kkt, rhs = np.zeros((g, n + 1, n + 1)), np.zeros((g, n + 1))
    kkt[:, :n, n] = kkt[:, n, :n] = face
    on_face, eye = face[:, :, None] & face[:, None, :], np.eye(n)
    for _ in range(3):
        q = np.einsum("gmn,gn->gm", t, p)
        inv_q = np.divide(1.0, q, out=np.zeros_like(q), where=q > 0.0)
        h = np.einsum("gmn,gm,gmk->gnk", t, inv_q, t)
        ridge = 1e-12 * np.trace(h, axis1=1, axis2=2)[:, None, None]
        kkt[:, :n, :n] = np.where(on_face, h + ridge * eye, eye)
        rhs[:, :n] = np.where(face, np.log(2.0) * (kl_const - np.einsum("gmn,gm->gn", t, _log2_or_zero(q))), 0.0)
        step = np.linalg.solve(kkt, rhs[..., None])[:, :n, 0]
        # the full step, or 0.9 of the largest that keeps p >= 0 if shorter
        room = np.divide(p, -step, out=np.full_like(p, np.inf), where=step < 0.0).min(axis=1)
        p = p + np.minimum(1.0, 0.9 * room)[:, None] * step
        p /= p.sum(axis=1, keepdims=True)
    return p


def _squarem_step(p0, p1, p2):
    """The extrapolated prior of one SQUAREM cycle, row by row."""
    r = p1 - p0
    v = p2 - 2.0 * p1 + p0
    nr = np.sqrt(_row_reduce(np.add, r * r))  # np.linalg.norm(r, axis=1)
    nv = np.sqrt(_row_reduce(np.add, v * v))
    ratio = np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0.0)
    alpha = -np.maximum(ratio, 1.0)[:, None]  # min(-|r|/|v|, -1)
    step = p0 - 2.0 * alpha * r + alpha * alpha * v
    for _ in range(5):
        negative = step < 0.0
        if not negative.any():
            return step / _row_reduce(np.add, step)[:, None]
        bad = _row_reduce(np.logical_or, negative)[:, None]
        alpha = np.where(bad, (alpha - 1.0) / 2.0, alpha)
        step = p0 - 2.0 * alpha * r + alpha * alpha * v
    bad = _row_reduce(np.logical_or, step < 0.0)[:, None]
    return np.where(bad, p2, step / _row_reduce(np.add, step)[:, None])


def _row_reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` (np.add, np.maximum or np.logical_or) of
    a (rows, inputs) array, column by column in index order on a stack of at
    least ``_TALL_ROWS`` rows with fewer than 8 inputs. numpy's sum of fewer
    than 8 terms adds them in index order from +0.0, which this repeats, so
    every float and signed zero is the same."""
    if len(a) < _TALL_ROWS or a.shape[1] >= 8:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0] + 0.0 if ufunc is np.add else a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


class BinaryCapacity(NamedTuple):
    capacity_bits: float
    optimal_p0: float


def binary_capacity(eps0, eps1) -> BinaryCapacity:
    """Capacity and optimal prior of the binary asymmetric channel with
    error probabilities eps0 (input 0 received as 1) and eps1 (input 1
    received as 0), elementwise over arrays. Scalar inputs give Python
    floats.

    Labels are first canonicalized (flip outputs if eps0 + eps1 > 1, swap
    inputs if eps0 > eps1); the returned prior refers to the original
    input 0. The optimal prior has a closed form (Silverman 1955), and the
    reported capacity is the mutual information at that prior, which stays
    accurate where the closed-form capacity expression cancels, near the
    degenerate line eps0 + eps1 = 1. Where the canonical span
    1 - eps0 - eps1 is below 1e-12 the result is capacity 0 with
    p0 = 0.5; the line itself carries no information, and C is at most
    about 1e-12/(e ln 2) = 5.3e-13 bits inside the cut (the Z channel attains
    it), so the value reported there is a lower bound within that much.
    """
    e0 = check_interval("eps0", eps0)
    e1 = check_interval("eps1", eps1)
    flip = e0 + e1 > 1.0
    e0, e1 = np.where(flip, 1.0 - e0, e0), np.where(flip, 1.0 - e1, e1)
    swapped = e0 > e1
    e0, e1 = np.minimum(e0, e1), np.maximum(e0, e1)
    span = 1.0 - e0 - e1
    live = span >= 1e-12
    span = np.where(live, span, 1.0)
    h0 = _h(e0)
    h1 = _h(e1)
    z1 = 1.0 + np.exp2((h0 - h1) / span)
    p0 = np.clip((1.0 - e1 * z1) / (span * z1), 0.0, 1.0)
    q0 = 1.0 - p0
    cap = np.maximum(_h(p0 * (1.0 - e0) + q0 * e1) - p0 * h0 - q0 * h1, 0.0)
    p0 = np.where(swapped, q0, p0)
    cap, p0 = np.where(live, cap, 0.0), np.where(live, p0, 0.5)
    return BinaryCapacity(_float_or_array(cap), _float_or_array(p0))

"""Shared test helpers: independent capacity oracles (dense simplex grid
search with local refinement, and the weakly-symmetric closed form),
random samplers for channels and bases,
reference copies of the Blahut-Arimoto recursion, of the affine Choi
construction, of the eig + QR
eigenbasis, of the row-wise figure tables and CSV writer and of the
cell-by-cell spec number check, of the range check and the binary-channel
closed form with every mask applied, of the tuple-and-loop Kraus forms of
the transitions, the CPTP diagnostics and the channel action, a valid
spec of every channel kind, the Fourier basis, the V-shape qutrit's transition matrices, the
two-sided protocol's joint distribution, a per-basis copy of the bootstrap,
small state constructors, and the qudit depolarizing and Werner-Holevo
channels with their capacities in closed form."""

import itertools
import math
import warnings

import numpy as np

from capdetect import AffineQubitChannel, KrausChannel, MeasurementBasis, apply_channel, choi_matrix
from capdetect.qcore import PAULIS, SIGMA_Z
from capdetect.channels import _CHOI_CUTOFF, _FLOAT_MAX, gad_params, pauli_family_channel, stretched_affine
from capdetect.cli import grid_values
from capdetect.detect import (
    DetectionConfig,
    dephasing_detected,
    holevo_gad_p1,
    pauli_axis_capacity,
    solve_stack,
    t_threshold,
    von_mises_expected_capacity,
    vshape_detected,
)
from capdetect.infotheory import _h, check_interval, check_solver_settings, check_transition_stack
from capdetect.protocol_sim import EstimatedDetection, _check_resamples, _stream


def _compositions(total: int, parts: int):
    """All integer vectors of length `parts` summing to `total` (stars and bars)."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        yield comp


def simplex_grid_search_capacity(transition, coarse: int = 50, final_step: float = 2.5e-4) -> float:
    """Capacity by brute force over the input simplex, independent of the
    library: I(p) = sum_n p_n sum_m T log2 T + H(Tp), maximized on a dense
    coarse grid and then hill-climbed with a shrinking step."""
    t = np.asarray(transition, dtype=float)
    k = t.shape[1]
    mask = t > 0
    tlogt = np.zeros_like(t)
    tlogt[mask] = t[mask] * np.log2(t[mask])
    c0 = tlogt.sum(axis=0)

    def value(priors):
        q = priors @ t.T
        logq = np.zeros_like(q)
        nz = q > 0
        logq[nz] = np.log2(q[nz])
        return priors @ c0 - (q * logq).sum(axis=1)

    grid = np.array(list(_compositions(coarse, k)), dtype=float) / coarse
    vals = value(grid)
    best = grid[np.argmax(vals)]
    best_val = vals.max()

    deltas = []
    for head in itertools.product(range(-4, 5), repeat=k - 1):
        tail = -sum(head)
        if abs(tail) <= 4:
            deltas.append(list(head) + [tail])
    deltas = np.array(deltas, dtype=float)

    step = 1.0 / coarse
    while step > final_step / 4:
        step /= 4.0
        while True:
            cand = best + step * deltas
            cand = cand[np.all(cand >= 0.0, axis=1)]
            vals = value(cand)
            i = int(np.argmax(vals))
            if vals[i] > best_val + 1e-15:
                best, best_val = cand[i], vals[i]
            else:
                break
    return float(best_val)


def weakly_symmetric_capacity(transition, tol: float = 1e-10) -> float | None:
    """Closed-form capacity of a weakly symmetric channel, whose columns are
    permutations of each other and whose row sums are equal: log2(outputs) -
    H(column), attained by the uniform prior. None when the structure is
    absent (to ``tol``)."""
    t = np.asarray(transition, dtype=float)
    sorted_cols = np.sort(t, axis=0)
    if np.max(np.abs(sorted_cols - sorted_cols[:, [0]])) > tol:
        return None
    row_sums = t.sum(axis=1)
    if row_sums.max() - row_sums.min() > tol:
        return None
    col = t[:, 0][t[:, 0] > 0.0]
    return max(float(np.log2(t.shape[0]) + (col * np.log2(col)).sum()), 0.0)


def random_cp_affine(rng: np.random.Generator) -> AffineQubitChannel:
    """Uniform rejection sample from the completely positive canonical region."""
    while True:
        l1, l2, l3, t3 = rng.uniform(-1.0, 1.0, 4)
        try:
            return AffineQubitChannel(l1, l2, l3, t3)
        except ValueError:
            continue


def reference_affine_to_kraus(ch: AffineQubitChannel) -> KrausChannel:
    """Kraus operators of a canonical affine qubit channel, from the spectral
    factorization of its Choi matrix: the construction that
    ``channels.affine_to_kraus`` writes out, which must equal it bit for bit."""
    l1, l2, l3, t3 = ch.lambda1, ch.lambda2, ch.lambda3, ch.t3

    def apply(m):
        a0 = np.trace(m) / 2.0
        coeff = np.array([np.trace(s @ m) / 2.0 for s in PAULIS])
        out = a0 * (np.eye(2, dtype=complex) + t3 * SIGMA_Z)
        for li, ci, si in zip((l1, l2, l3), coeff, PAULIS):
            out = out + li * ci * si
        return out

    choi = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for l in range(2):
            e_kl = np.zeros((2, 2), dtype=complex)
            e_kl[k, l] = 1.0
            choi += 0.5 * np.kron(apply(e_kl), e_kl)
    evals, evecs = np.linalg.eigh(choi)
    if evals.min() < -1e-10:
        raise ValueError(f"Choi matrix not positive semidefinite (min eigenvalue {evals.min():.3e})")
    ops = []
    for mu, v in zip(evals, evecs.T):
        if mu > _CHOI_CUTOFF:
            ops.append(np.sqrt(2.0 * mu) * v.reshape(2, 2))
    return KrausChannel(tuple(ops))


def random_transition(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    """Random column-stochastic matrix, columns uniform on the simplex."""
    return rng.dirichlet(np.ones(n_out), size=n_in).T


def sole_reacher_matrices(count: int = 4000, seed: int = 1) -> list:
    """Seeded transition matrices whose last input is the only one to reach
    some output. Each has n = 3 to 6 inputs and n + 1 outputs: n - 1 columns
    are Dirichlet(alpha) over the first n outputs, with one alpha drawn from
    [0.05, 0.2) per matrix, and the last column is a Dirichlet(1) mixture of
    them, scaled by 1 - d for d drawn from [0.02, 0.3), with its remaining d
    on output n + 1. The last input's optimal weight is > 0 but can be tiny."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        columns = rng.dirichlet(np.full(n, rng.uniform(0.05, 0.2)), size=n - 1)
        mixture = rng.dirichlet(np.ones(n - 1)) @ columns
        keep = 1.0 - rng.uniform(0.02, 0.3)
        t = np.zeros((n + 1, n))
        t[:n, :n - 1] = columns.T
        t[:n, n - 1] = keep * mixture
        t[n, n - 1] = 1.0 - keep
        out.append(t)
    return out


def reference_ba_batch(transitions, tol_bits: float = 1e-9, max_iter: int = 100_000, taken=None):
    """The recursion of ``blahut_arimoto_batch`` written plainly, with no
    fast paths: np.where bracket updates, a masked log2 and the +inf rule
    on every round, np.linalg.norm and a backtracking loop on every SQUAREM
    step, and the face-Newton candidate at evaluations 24, 32, 40, ...
    The solver must equal it bit for bit. When ``taken`` is a list, each
    time a candidate raises a matrix's lower bound the matrix's index in
    the still-iterating set is appended to it."""
    t = check_transition_stack(transitions)
    check_solver_settings(tol_bits, max_iter)
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
    # them converges; lo, hi and best hold the running bracket and the
    # prior attaining lo
    active, ta, ka, pa = np.arange(g), t, kl_const, priors.copy()
    lo, hi, best = np.full(g, -np.inf), uppers.copy(), priors.copy()
    for it in range(1, max_iter + 1):
        mapped, lower, upper = _reference_ba_map(ta, ka, pa)
        raised = lower > lo
        lo = np.where(raised, lower, lo)
        best = np.where(raised[:, None], mapped, best)
        hi = np.minimum(hi, upper)
        if it % 2:
            p0, pa = pa, mapped
        else:
            pa = _reference_squarem_step(p0, pa, mapped)
        if it in range(24, max_iter + 1, 8):
            # every matrix still open gets a candidate, whose bracket may
            # only raise lo (with F(candidate) as best) and lower hi
            for i in np.flatnonzero(~(hi - lo <= tol_bits)):
                cand = _reference_face_newton(ta[i], ka[i], best[i])
                c_mapped, c_lower, c_upper = _reference_ba_map(ta[i][None], ka[i][None], cand[None])
                if c_lower[0] > lo[i]:
                    lo[i], best[i] = c_lower[0], c_mapped[0]
                    if taken is not None:
                        taken.append(int(i))
                hi[i] = np.fmin(hi[i], c_upper[0])
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
    # the ends clamped as the solver clamps them: no capacity below 0, no negative gap
    capacities = np.maximum(capacities, 0.0)
    return capacities, priors, iterations, np.maximum(uppers, capacities) - capacities


def _reference_ba_map(t, kl_const, p):
    """F(p), log2(sum_n p_n c_n) and max_n log2 c_n, where an output that
    never occurs (q = 0) adds nothing to D, unless the column has mass on it:
    then D = +inf."""
    q = np.einsum("gmn,gn->gm", t, p)
    logq = np.zeros_like(q)
    np.log2(q, out=logq, where=q > 0.0)
    kl = kl_const - np.einsum("gmn,gm->gn", t, logq)  # log2 c_n = D(p(.|n) || q)
    unreached = ((t > 0.0) & (q == 0.0)[:, :, None]).any(axis=1)
    weighted = p * np.exp2(kl)
    total = weighted.sum(axis=1)
    return weighted / total[:, None], np.log2(total), np.where(unreached, np.inf, kl).max(axis=1)


def _reference_face_newton(t, kl_const, best):
    """Three Newton steps for max I(p, T) over the inputs whose weight in
    ``best`` exceeds 1e-3 of its largest entry, together with every input
    that reaches an output none of those reaches (the face), one matrix at a
    time: solve [[H + ridge, 1], [1^T, 0]] [step, nu] = [ln2 D, 0] on the
    face, with H_nk = sum_m T_mn T_mk / q_m and ridge = 1e-12 trace(H), keep
    the inputs off the face at 0, and take the full step or 0.9 of the way
    to the face's boundary, whichever is shorter."""
    n = t.shape[1]
    face = best > 1e-3 * best.max()
    # every output that no face input reaches brings in the inputs that do
    for m in np.flatnonzero(~(t[:, face] > 0.0).any(axis=1)):
        face |= t[m] > 0.0
    p = np.where(face, best, 0.0)
    p = p / p.sum()
    for _ in range(3):
        q = np.einsum("gmn,gn->gm", t[None], p[None])[0]
        inv_q = np.zeros_like(q)
        inv_q[q > 0.0] = 1.0 / q[q > 0.0]
        logq = np.zeros_like(q)
        logq[q > 0.0] = np.log2(q[q > 0.0])
        h = np.einsum("gmn,gm,gmk->gnk", t[None], inv_q[None], t[None])[0]
        h[np.diag_indices(n)] += 1e-12 * np.trace(h)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = np.where(np.outer(face, face), h, np.eye(n))
        kkt[:n, n] = kkt[n, :n] = face
        rhs = np.zeros(n + 1)
        rhs[:n][face] = np.log(2.0) * (kl_const - np.einsum("gmn,gm->gn", t[None], logq[None])[0])[face]
        step = np.linalg.solve(kkt, rhs)[:n]
        room = min([p[k] / -step[k] for k in range(n) if step[k] < 0.0], default=np.inf)
        p = p + min(1.0, 0.9 * room) * step
        p = p / p.sum()
    return p


def _reference_squarem_step(p0, p1, p2):
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


def reference_eigenbasis(m: np.ndarray) -> np.ndarray:
    """Eigenbasis kets (rows) of a normal matrix with a nondegenerate
    spectrum, from np.linalg.eig: sorted by eigenvalue phase in [0, 2pi) as
    np.angle rounds it, orthonormalized by QR, and each ket's first
    significant amplitude made real positive."""
    evals, vecs = np.linalg.eig(m)
    order = np.lexsort((evals.imag, evals.real, np.angle(evals) % (2 * np.pi)))
    kets = np.linalg.qr(vecs[:, order])[0].T
    for v in kets:
        idx = np.flatnonzero(np.abs(v) > 1e-8)[0]
        v *= v[idx].conj() / abs(v[idx])
    return kets


def weyl_label_kets(d: int) -> dict:
    """Every nontrivial U_ls's eigenbasis, its class's kets in U_ls's
    eigenvalue order, from the closed forms of qcore alone: {(l, s): kets}."""
    from capdetect.qcore import weyl_class, weyl_class_kets

    kets = {}
    for l in range(d):
        for s in range(d):
            if (l, s) != (0, 0):
                c, order = weyl_class(d, l, s)
                kets[l, s] = weyl_class_kets(d, c)[order]
    return kets


def projector(ket: np.ndarray) -> np.ndarray:
    """|ket><ket|."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def maximally_entangled(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_k |k>|k> in the computational product basis."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def fourier_basis(d: int, label: str = "fourier") -> MeasurementBasis:
    """Basis with kets |n> = (1/sqrt(d)) sum_j w^(nj) |j>, w = exp(2 pi i/d)."""
    n, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    kets = np.exp(2j * np.pi * n * j / d) / np.sqrt(d)
    return MeasurementBasis(label, kets)


def random_cptp_channel(d: int, kraus_rank: int, rng: "np.random.Generator") -> KrausChannel:
    """Random CPTP channel from an orthonormalized complex Gaussian block matrix."""
    g = rng.standard_normal((d * kraus_rank, d)) + 1j * rng.standard_normal((d * kraus_rank, d))
    q, _ = np.linalg.qr(g)
    ops = [q[i * d : (i + 1) * d, :] for i in range(kraus_rank)]
    return KrausChannel(tuple(ops))


# a valid spec of every kind, with every parameter given
VALID_PARAMS = {
    "pauli": {"px": 0.1, "py": 0.05, "pz": 0.1},
    "generalized_pauli": {"dim": 2, "q": [[0.7, 0.1], [0.1, 0.1]]},
    "gad": {"gamma": 0.36, "p": 1.0},
    "stretched": {"gamma": 0.5, "s": 0.3},
    "extremal": {"alpha": 0.4, "beta": 1.1},
    "dephasing_axis": {"p": 0.3, "theta": 0.5, "phi": 1.0},
    "rotated_pauli": {"px": 0.1, "py": 0.05, "pz": 0.1, "phi": 0.3},
    "vshape_qutrit": {"gamma01": 0.3, "gamma02": 0.6},
    "affine_qubit": {"lambda1": 0.5, "lambda2": 0.5, "lambda3": 0.5, "t3": 0.1},
    "kraus": {"dim": 2, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]},
}


# The tuple-and-loop forms that walked a channel's Kraus operators one at a
# time, before the channel stored them as one (r, d, d) stack.
def reference_conditional_probs(channel: KrausChannel, bases) -> np.ndarray:
    """The (k, d, d) transitions of a sequence of bases, from a fresh
    np.stack of the operator tuple."""
    kets = np.stack([b.kets for b in bases])
    amplitudes = kets.conj() @ np.stack(tuple(channel.operators))[:, None] @ kets.transpose(0, 2, 1)
    return check_transition_stack((np.abs(amplitudes) ** 2).sum(axis=0))


def reference_is_cptp(channel: KrausChannel) -> tuple:
    """(max |sum A^dag A - I|, min Choi eigenvalue), both sums taken one
    operator at a time from zero."""
    d = channel.dim
    acc = np.zeros((d, d), dtype=complex)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for a in tuple(channel.operators):
        acc += a.conj().T @ a
        v = a.reshape(-1) / np.sqrt(d)
        choi += np.outer(v, v.conj())
    return float(np.max(np.abs(acc - np.eye(d)))), float(np.linalg.eigvalsh(choi).min())


def reference_apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k^dag, summed one operator at a time from zero."""
    out = np.zeros_like(rho)
    for a in tuple(channel.operators):
        out += a @ rho @ a.conj().T
    return out


def reference_kraus_to_affine(channel: KrausChannel) -> tuple:
    """(Lambda, t) of a qubit channel, one Pauli pair at a time: the loop
    that ``channels.kraus_to_affine`` replaced, which it must equal bit for bit."""
    lam = np.empty((3, 3))
    for j, sj in enumerate(PAULIS):
        image = apply_channel(channel, sj)
        for i, si in enumerate(PAULIS):
            lam[i, j] = np.trace(si @ image).real / 2.0
    image_id = apply_channel(channel, np.eye(2, dtype=complex))
    return lam, np.array([np.trace(s @ image_id).real / 2.0 for s in PAULIS])


def haar_random_basis(d: int, rng: "np.random.Generator", label: str = "random") -> MeasurementBasis:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return MeasurementBasis(label, q.T)


def depolarizing_channel(d: int, p: float) -> KrausChannel:
    """E(rho) = (1 - p) rho + p I/d, as the generalized Pauli channel with
    q = (1 - p) delta_00 + p/d^2."""
    q = np.full((d, d), p / d**2)
    q[0, 0] += 1.0 - p
    return pauli_family_channel(d, q)


def king_capacity(d: int, p: float) -> float:
    """The depolarizing channel's classical capacity, log2 d - H(1 - p + p/d,
    p/d, ..., p/d) (King, IEEE Trans. Inf. Theory 49, 221, 2003)."""
    probs = [1.0 - p + p / d] + [p / d] * (d - 1)
    return math.log2(d) + sum(x * math.log2(x) for x in probs if x > 0.0)


def werner_holevo_channel(d: int, symmetric: bool) -> KrausChannel:
    """E(rho) = (I + rho^T)/(d + 1) when ``symmetric``, else (I - rho^T)/(d - 1)
    (Werner & Holevo, J. Math. Phys. 43, 4353, 2002): Kraus operators
    (|i><j| +- |j><i|)/sqrt(d +- 1) for i < j, and sqrt(2/(d + 1)) |i><i|
    for the symmetric channel."""
    sign = 1.0 if symmetric else -1.0
    ops = []
    for i, j in itertools.combinations(range(d), 2):
        k = np.zeros((d, d), dtype=complex)
        k[i, j], k[j, i] = 1.0, sign
        ops.append(k / math.sqrt(d + sign))
    if symmetric:
        ops += [math.sqrt(2.0 / (d + 1)) * np.diag(row) for row in np.eye(d, dtype=complex)]
    return KrausChannel(np.array(ops))


def werner_holevo_c1(d: int, symmetric: bool) -> float:
    """The Werner-Holevo channel's one-shot Holevo capacity, log2 d - S_min:
    every pure input's output has eigenvalues 2/(d + 1) once and 1/(d + 1)
    d - 1 times (symmetric), or 1/(d - 1) d - 1 times and 0 (antisymmetric)."""
    if symmetric:
        return math.log2(d) - math.log2(d + 1) + 2.0 / (d + 1)
    return math.log2(d / (d - 1))


def qutrit_vshape_transitions(gamma01, gamma02):
    """Transition matrices of the V-configuration qutrit decay channel in
    the computational basis (Q1) and the Fourier basis (Q2), plus the
    off-diagonal weight gamma_tilde of the symmetric Q2.

    Array arguments are broadcast together and give stacks of shape
    (..., 3, 3) and a gamma_tilde array; scalars give single matrices and a
    float."""
    g01, g02 = np.broadcast_arrays(check_interval("gamma01", gamma01),
                                   check_interval("gamma02", gamma02))
    q1 = np.zeros(g01.shape + (3, 3))
    q1[..., 0, 0] = 1.0
    q1[..., 0, 1] = g01
    q1[..., 0, 2] = g02
    q1[..., 1, 1] = 1.0 - g01
    q1[..., 2, 2] = 1.0 - g02
    a = np.sqrt(1.0 - g01)
    b = np.sqrt(1.0 - g02)
    gt = 1.0 / 3.0 - (a + b + a * b) / 9.0
    q2 = gt[..., None, None] + np.eye(3) * (1.0 - 3.0 * gt)[..., None, None]
    return q1, q2, (float(gt) if gt.ndim == 0 else gt)


def entangled_joint_distribution(channel: KrausChannel, basis: MeasurementBasis) -> np.ndarray:
    """Joint outcome distribution P(m, n) of the two-sided protocol: local
    projectors |m><m| x (|n><n|)^T measured on the channel's Choi state.

    Equals conditional_probs(channel, basis)/d entrywise, which is what
    makes the one-sided preparation scheme equivalent."""
    if channel.dim != basis.dim:
        raise ValueError(
            f"dimension mismatch: channel dim {channel.dim}, basis dim {basis.dim}"
        )
    d = basis.dim
    choi = choi_matrix(channel)
    p = np.empty((d, d))
    for m in range(d):
        for n in range(d):
            v = np.kron(basis.kets[m], basis.kets[n].conj())
            p[m, n] = np.real(v.conj() @ choi @ v)
    return np.clip(p, 0.0, 1.0)


# The figure tables as rows of Python values, and the CSV writer that took
# them: the column-wise builders and writer in ``capdetect.cli`` must give the
# same rows and the same bytes.

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def _csv_column(values) -> tuple:
    """The row-template format and the cells of one CSV column. The template
    prints a column of floats or of labels itself; any other column (flags,
    missing values) is formatted cell by cell."""
    types = set(map(type, values))
    if types == {float}:
        return "%.12g", values
    if types == {str}:
        return "%s", values
    return "%s", [_fmt(v) for v in values]


def table_rows(columns) -> list:
    """A table's rows, as tuples of Python float, str, bool and None."""
    return list(zip(*[c.tolist() for c in columns]))


def reference_csv_text(columns, rows) -> str:
    """The CSV text of a table given as column names and row tuples."""
    formats, cells = zip(*map(_csv_column, zip(*rows)))
    template = ",".join(formats) + "\n"
    return ",".join(columns) + "\n" + "".join(map(template.__mod__, zip(*cells)))


def _fig1(grids):
    gammas = grid_values(*grids["gamma"])
    c1 = holevo_gad_p1(gammas)  # rejects gammas outside [0, 1]
    c_det = pauli_axis_capacity(*gad_params(gammas, 1.0)).capacity_bits.max(axis=-1)
    rows = list(zip(gammas.tolist(), c_det.tolist(), c1.tolist()))
    return ("gamma", "c_det_bits", "c1_bits"), rows


def _fig2(grids):
    g01 = grid_values(*grids["gamma01"])
    g02 = grid_values(*grids["gamma02"])
    i1, i2 = vshape_detected(g01[:, None], g02)
    b2 = i2 > i1
    a, b = np.meshgrid(g01, g02, indexing="ij")
    rows = list(zip(a.ravel().tolist(), b.ravel().tolist(), np.where(b2, i2, i1).ravel().tolist(),
                    np.where(b2, "B2", "B1").ravel().tolist()))
    return ("gamma01", "gamma02", "c_det_bits", "argmax_basis"), rows


def _fig3(grids):
    thetas = grid_values(*grids["theta"])
    phis = grid_values(*grids["phi"])
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    caps = dephasing_detected(0.9, th, ph)
    rows = list(zip(th.ravel().tolist(), ph.ravel().tolist(), caps.ravel().tolist()))
    return ("theta", "phi", "c_det_bits"), rows


def _fig4(grids):
    ks = grid_values(*grids["k"])
    caps = von_mises_expected_capacity(0.15, 0.05, 0.1, ks)
    return ("k_phi", "avg_c_det_bits"), list(zip(ks.tolist(), caps.tolist()))


def _suppl_stretched(grids):
    s = grid_values(*grids["s"])
    # complete positivity bounds |s|, so the widest channel checks the grid
    widest = stretched_affine(0.5, float(s[np.argmax(np.abs(s))]))
    l3, t3 = widest.lambda3, widest.t3
    caps = pauli_axis_capacity(s, s, l3, t3).capacity_bits
    # max(l1^2, l2^2) = s^2 against T(|t3|, |l3|), one threshold for the grid
    pseudo = (s * s <= t_threshold(abs(t3), abs(l3))).tolist()
    c1 = [c if p else None for c, p in zip(caps[:, 2].tolist(), pseudo)]
    rows = list(zip(s.tolist(), caps.max(axis=-1).tolist(), c1, pseudo))
    return ("s", "c_det_bits", "c1_bits", "pseudoclassical"), rows


REFERENCE_FIGURE_BUILDERS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "suppl_stretched": _suppl_stretched,
}


# protocol_sim.detect_from_counts as it was before bases were solved in
# groups: one draw and one solve_stack call per basis
def reference_detect_from_counts(counts, shots: int, labels, config: DetectionConfig, seed: int,
                                 resamples: int = 1000) -> EstimatedDetection:
    """Estimate the detected capacity from ``counts[i]``, basis i's (outputs,
    inputs) table of ``shots`` draws per input, labelled ``labels[i]``.

    Each plug-in estimate counts/shots is solved with its column-resampled
    bootstrap replicates, keyed (seed, 1, i, input), in one
    :func:`solve_stack` call, the route every ``bound`` solve takes too. The
    point estimate is the best basis's value (the lowest index among exact
    ties); the 95% percentile interval of the replicates' best values,
    widened to contain it, is the confidence interval. One RuntimeWarning
    reports every unconverged solve, and ``resamples * d * d`` may not
    exceed ``_MAX_BOOTSTRAP_CELLS``."""
    counts = np.asarray(counts)
    _check_resamples(resamples, d := counts.shape[-1])
    if shots < 1 or counts.shape != (len(labels), d, d) or (counts.sum(axis=1) != shots).any():
        raise ValueError(f"need one square count table per label, columns summing to shots = {shots} >= 1")
    caps, gaps = [], []  # per basis: the point estimate, then the replicates
    for i, c in enumerate(counts):
        t = c / float(shots)
        boot = np.stack([_stream(seed, i, n, 1).multinomial(shots, t[:, n], resamples) for n in range(d)], axis=-1)
        _, cap, _, _, g = solve_stack(np.concatenate([c[None], boot]) / float(shots), config)
        caps.append(cap)
        gaps.append(g)
    caps, gaps = np.array(caps), np.array(gaps)
    tol = config.ba_tolerance_bits
    wide = gaps > tol
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
        warnings.warn("\n".join(notes), RuntimeWarning, stacklevel=2)
    best = int(np.argmax(caps[:, 0]))  # the lowest index among exact ties
    point = float(caps[best, 0])
    lo, hi = np.percentile(caps[:, 1:].max(axis=0), [2.5, 97.5])
    return EstimatedDetection(point, min(float(lo), point), max(float(hi), point), resamples,
                              shots, seed, labels[best])


# The spec number check as it walked every cell: ``channels.check_numbers``
# must accept the same values and name the same first bad cell.

def _reference_cells(value):
    """The leaf entries of nested lists, tuples and arrays."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _reference_cells(v)
    else:
        yield value


def reference_check_numbers(value, subject: str, nested: bool = True) -> None:
    """Require ``value``, or with ``nested`` each leaf of a list, tuple or
    array, to be a finite number, Python's or numpy's: no string, boolean or
    null, which ``np.asarray(..., dtype=float)`` would accept, and no NaN,
    infinity or integer beyond the float range. The error starts with
    ``subject``."""
    what = "an array of numbers" if nested else "a number"
    if nested and not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{subject} must be {what}, got {value!r}")
    for cell in _reference_cells(value) if nested else (value,):
        if isinstance(cell, (np.bool_, np.number)) and not isinstance(cell, np.timedelta64):
            cell = cell.item()  # numpy's integers and floats are numbers, its bools are not
        if isinstance(cell, bool) or not isinstance(cell, (int, float, np.floating)):
            raise ValueError(f"{subject} must be {what}, got {cell!r}")
        if not abs(cell) <= _FLOAT_MAX:  # NaN fails
            raise ValueError(f"{subject} must be a finite number, got {cell!r}")


# infotheory.check_interval and binary_capacity as one masked pass each, with
# every mask applied to every entry, kept apart from the library so that a
# fast path added to either must give the same bits and the same errors.

def reference_check_interval(name: str, values, lo: float = 0.0, hi: float = 1.0, slack: float = 0.0):
    """``values`` as a float array, after checking that every entry lies in
    [lo - slack, hi + slack]. The error names the first entry outside (NaN
    included) and, for arrays, how many entries are outside."""
    v = np.asarray(values, dtype=float)
    bad = ~((v >= lo - slack) & (v <= hi + slack))
    if bad.any():
        count = f" ({int(bad.sum())} of {v.size} entries)" if v.ndim else ""
        raise ValueError(f"{name} = {v[bad][0]} outside [{lo:g}, {hi:g}]{count}")
    return v


def reference_binary_capacity(eps0, eps1):
    """Capacity and optimal p0 of the binary asymmetric channel, every
    mask applied to every entry."""
    e0 = reference_check_interval("eps0", eps0)
    e1 = reference_check_interval("eps1", eps1)
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
    cap = _h(p0 * (1.0 - e0) + (1.0 - p0) * e1) - p0 * h0 - (1.0 - p0) * h1
    cap = np.where(live, np.maximum(cap, 0.0), 0.0)
    p0 = np.where(live, np.where(swapped, 1.0 - p0, p0), 0.5)
    if cap.ndim == 0:
        return float(cap), float(p0)
    return cap, p0

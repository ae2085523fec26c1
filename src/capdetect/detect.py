"""Detected capacity bounds: per-basis mutual-information maximization and
the closed-form specializations for qubit and qutrit channel families.

The detected capacity is the maximum, over the measured bases, of the
capacity of the classical channel obtained by preparing and measuring in
that basis. It lower-bounds the one-shot (Holevo) capacity; for
pseudoclassical channels the two coincide and the bound is tight.
"""

import math

import numpy as np
from dataclasses import dataclass

from .qcore import (
    KrausChannel,
    PAULIS,
    conditional_probs,
    eigenbasis,
    weyl_operator,
)
from .channels import AffineQubitChannel
from .infotheory import (
    binary_capacity,
    binary_entropy,
    blahut_arimoto_batch,
    check_transition_stack,
    weakly_symmetric_capacity,
)

PAULI_AXES = ("x", "y", "z")


def pauli_bases() -> list:
    """Eigenbases of the three Pauli operators, labeled x, y, z."""
    return [eigenbasis(s, label=ax) for s, ax in zip(PAULIS, PAULI_AXES)]


def weyl_bases(d: int) -> list:
    """Eigenbases of all nontrivial generalized Pauli unitaries U_ls.

    Coinciding eigenbases are kept (the cost is negligible and the maximum
    is unaffected). Raises for operators with degenerate spectra, which can
    occur in composite dimensions.
    """
    bases = []
    for l in range(d):
        for s in range(d):
            if (l, s) == (0, 0):
                continue
            bases.append(eigenbasis(weyl_operator(d, l, s), label=f"weyl({l},{s})"))
    return bases


@dataclass
class DetectionConfig:
    """Measured bases plus solver settings. ``bases`` is either an explicit
    list of bases or one of the named families "pauli" / "weyl"."""

    bases: list | str = "pauli"
    ba_tolerance_bits: float = 1e-9
    max_iterations: int = 100_000

    def resolve_bases(self, dim: int) -> list:
        if isinstance(self.bases, str):
            if self.bases == "pauli":
                if dim != 2:
                    raise ValueError("the pauli basis family is only defined for qubits")
                return pauli_bases()
            if self.bases == "weyl":
                return weyl_bases(dim)
            raise ValueError(f"unknown basis family '{self.bases}'")
        if not self.bases:
            raise ValueError("at least one measurement basis is required")
        for b in self.bases:
            if b.dim != dim:
                raise ValueError(f"basis '{b.label}' has dim {b.dim}, channel has dim {dim}")
        return list(self.bases)


@dataclass
class BasisResult:
    label: str
    transition: np.ndarray
    optimal_prior: np.ndarray
    mutual_information_bits: float
    method: str  # "binary-closed-form" (every 2x2), "weakly-symmetric", or "BA"
    converged: bool = True


@dataclass
class DetectionResult:
    per_basis: list
    c_det_bits: float
    argmax_basis: str
    argmax_index: int
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "c_det_bits": self.c_det_bits,
            "argmax_basis": self.argmax_basis,
            "argmax_index": self.argmax_index,
            "converged": self.converged,
            "per_basis": [
                {
                    "label": r.label,
                    "mutual_information_bits": r.mutual_information_bits,
                    "method": r.method,
                    "converged": r.converged,
                    "optimal_prior": list(map(float, r.optimal_prior)),
                    "transition": [list(map(float, row)) for row in r.transition],
                }
                for r in self.per_basis
            ],
        }


def _assemble(per_basis: list) -> DetectionResult:
    # ties broken toward the lowest basis index
    best = 0
    for i, r in enumerate(per_basis):
        if r.mutual_information_bits > per_basis[best].mutual_information_bits:
            best = i
    return DetectionResult(
        per_basis,
        per_basis[best].mutual_information_bits,
        per_basis[best].label,
        best,
        converged=all(r.converged for r in per_basis),
    )


def detect_from_transitions(transitions, labels, config: DetectionConfig | None = None) -> DetectionResult:
    """Detection pipeline on already-reconstructed transition matrices: the
    binary-channel closed form for every 2x2 matrix, the weakly-symmetric
    closed form when it applies, Blahut-Arimoto otherwise.

    The remaining matrices are grouped by shape, one solver call per group.
    """
    config = config or DetectionConfig()
    transitions = [np.asarray(t, dtype=float) for t in transitions]
    per_basis: list = [None] * len(labels)
    groups: dict = {}
    for i, (t, label) in enumerate(zip(transitions, labels)):
        ws = None if t.shape == (2, 2) else weakly_symmetric_capacity(t)
        if ws is not None:
            n_in = t.shape[1]
            per_basis[i] = BasisResult(label, t, np.full(n_in, 1.0 / n_in),
                                       ws.capacity_bits, "weakly-symmetric")
        else:
            groups.setdefault(t.shape, []).append(i)
    for shape, members in groups.items():
        stack = np.stack([transitions[i] for i in members])
        if shape == (2, 2):
            stack = check_transition_stack(stack)
            caps, p0 = binary_capacity(stack[:, 1, 0], stack[:, 0, 1])
            priors = np.stack([p0, 1.0 - p0], axis=1)
            converged = np.ones(len(members), dtype=bool)
            method = "binary-closed-form"
        else:
            caps, priors, _, gaps = blahut_arimoto_batch(
                stack, config.ba_tolerance_bits, config.max_iterations
            )
            converged = gaps <= config.ba_tolerance_bits
            method = "BA"
        for k, i in enumerate(members):
            per_basis[i] = BasisResult(labels[i], transitions[i], priors[k], float(caps[k]),
                                       method, converged=bool(converged[k]))
    return _assemble(per_basis)


def detect_capacity(channel: KrausChannel, config: DetectionConfig | None = None) -> DetectionResult:
    """Detected capacity of a channel over a set of measured bases."""
    config = config or DetectionConfig()
    bases = config.resolve_bases(channel.dim)
    transitions = [conditional_probs(channel, b) for b in bases]
    return detect_from_transitions(transitions, [b.label for b in bases], config)


def pauli_epsilons(ch: AffineQubitChannel) -> list:
    """Binary-channel error pairs (eps0, eps1) for the three Pauli-axis
    encodings of a canonical qubit channel: eps0 = (1 - |l_i| - |t_i|)/2 and
    eps1 = eps0 + |t_i|, with the shift along z only."""
    shift = ch.shift
    pairs = []
    for lam, t in zip(ch.lambdas, shift):
        e0 = max(0.5 * (1.0 - abs(lam) - abs(t)), 0.0)
        pairs.append((e0, min(e0 + abs(t), 1.0)))
    return pairs


def detect_pauli_qubit(ch: AffineQubitChannel) -> DetectionResult:
    """Detected capacity of a canonical qubit channel under the three Pauli
    bases, each axis solved with the binary-channel closed form."""
    pairs = pauli_epsilons(ch)
    caps, p0s = binary_capacity(*zip(*pairs))
    per_basis = []
    for label, (e0, e1), cap, p0 in zip(PAULI_AXES, pairs, caps, p0s):
        t = np.array([[1.0 - e0, e1], [e0, 1.0 - e1]])
        prior = np.array([p0, 1.0 - p0])
        per_basis.append(BasisResult(label, t, prior, float(cap), "binary-closed-form"))
    return _assemble(per_basis)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def detect_weyl(channel: KrausChannel) -> DetectionResult:
    """Detected capacity of a generalized Pauli channel in prime dimension
    over all nontrivial Weyl eigenbases.

    In prime dimension every Weyl-basis transition matrix of such a channel
    is symmetric (columns and rows are permutations of each other), so each
    basis contributes log2 d - H(column) with a uniform prior. A transition
    that is not symmetric within 1e-9 is reported as an error before any
    basis is solved; the rest is ``detect_from_transitions``.
    """
    d = channel.dim
    if not _is_prime(d):
        raise ValueError(
            f"dimension {d} is composite; use detect_capacity with an explicit basis list"
        )
    bases = weyl_bases(d)
    transitions = [conditional_probs(channel, b) for b in bases]
    for t, b in zip(transitions, bases):
        if weakly_symmetric_capacity(t, tol=1e-9) is None:
            raise ValueError(
                f"transition matrix in basis '{b.label}' is not symmetric; "
                "the channel is not a generalized Pauli channel"
            )
    return detect_from_transitions(transitions, [b.label for b in bases], DetectionConfig("weyl"))


_LN2 = math.log(2.0)
_SEAM_WINDOW = 1e-6


def t_threshold(t_norm: float, r: float) -> float:
    """Pseudoclassicality threshold on the squared transverse scaling of a
    shifted qubit channel, as a function of the shift norm and the scaling r
    along the shift axis.

    The defining expression is 0/0 on the line t_norm = r; inside a window
    of 1e-6 around it the analytic limit
    r^2 - t_norm*r + (ln 2 / 2) (1 - H(1/2 + r)) is used instead.
    """
    if not 0.0 <= t_norm <= 1.0 or not 0.0 <= r <= 1.0:
        raise ValueError(f"arguments ({t_norm}, {r}) outside [0, 1]")
    if t_norm + r > 1.0 + 1e-12:
        raise ValueError(
            f"t_norm + r = {t_norm + r} exceeds 1; no completely positive "
            "qubit channel has this geometry"
        )
    base = r * r - t_norm * r
    if abs(t_norm - r) < _SEAM_WINDOW:
        return base + 0.5 * _LN2 * (1.0 - binary_entropy(min(0.5 + r, 1.0)))
    x = (1.0 + t_norm - r) / 2.0
    bracket = binary_entropy((1.0 + t_norm + r) / 2.0) - binary_entropy(x)
    if x <= 0.0 or x >= 1.0:
        return base  # H' diverges and the bracket vanishes
    hprime = np.log2((1.0 - x) / x)
    return base + (t_norm - r) * bracket / hprime


@dataclass
class PseudoclassicalityReport:
    """Certificate that the one-shot capacity is reached by orthogonal
    inputs and a single-axis measurement, so the detected bound is tight."""

    applicable: bool
    lambda_m_sq: float
    threshold_T: float
    pseudoclassical: bool
    c1_bits: float | None = None


def pseudoclassicality(ch: AffineQubitChannel) -> PseudoclassicalityReport:
    """Pseudoclassicality certificate for a canonical qubit channel.

    Unital channels always qualify. A shifted channel qualifies exactly when
    max(l1^2, l2^2) <= T(|t3|, |l3|); the certified one-shot capacity is then
    the binary closed form of the shift-axis encoding.
    """
    lam_m_sq = max(ch.lambda1**2, ch.lambda2**2)
    threshold = t_threshold(abs(ch.t3), abs(ch.lambda3))
    if ch.unital:
        return PseudoclassicalityReport(True, lam_m_sq, threshold, True,
                                        detect_pauli_qubit(ch).c_det_bits)
    pseudo = lam_m_sq <= threshold
    c1 = None
    if pseudo:
        e0, e1 = pauli_epsilons(ch)[2]
        c1 = binary_capacity(e0, e1).capacity_bits
    return PseudoclassicalityReport(True, lam_m_sq, threshold, pseudo, c1)


def holevo_gad_p1(gamma):
    """One-shot capacity of the amplitude damping channel (zero-temperature
    limit), by maximizing H[t(1-gamma)] - H[(1 + sqrt(1-4 gamma (1-gamma) t^2))/2]
    over the ensemble parameter t in [0, 1]; elementwise over an array of
    gammas, and a float for a scalar gamma.

    A 10^4-point grid brackets each maximum, then golden-section search
    refines every bracket to 1e-10 in t, each gamma on its own schedule.
    """
    gam = np.asarray(gamma, dtype=float)
    if not (gam.min() >= 0.0 and gam.max() <= 1.0):  # NaN fails too
        raise ValueError(f"gamma = {gamma} outside [0, 1]")
    g = gam.ravel()

    def value(t, g):
        s = (1.0 + np.sqrt(np.clip(1.0 - 4.0 * g * (1.0 - g) * t * t, 0.0, 1.0))) / 2.0
        return binary_entropy(t * (1.0 - g)) - binary_entropy(s)

    grid = np.linspace(0.0, 1.0, 10_001)
    i = np.empty(g.size, dtype=int)
    top = np.empty(g.size)
    # the scan runs over blocks of 4 gammas; one (101, 10^4) block and the
    # entropy temporaries raised fig1's peak memory from 36 to 106 MB
    for k in range(0, g.size, 4):
        vals = value(grid, g[k:k + 4, None])
        i[k:k + 4] = np.argmax(vals, axis=1)
        top[k:k + 4] = vals.max(axis=1)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, grid.size - 1)]
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c, g), value(d, g)
    live = b - a > 1e-10
    while live.any():
        left = live & (fc > fd)  # keep [a, d]
        right = live & ~left  # keep [c, b]
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d, fc, fd = (
            np.where(left, b - invphi * (b - a), np.where(right, d, c)),
            np.where(right, a + invphi * (b - a), np.where(left, c, d)),
            np.where(right, fd, fc),
            np.where(left, fc, fd),
        )
        fresh = value(np.where(left, c, d), g)
        fc, fd = np.where(left, fresh, fc), np.where(right, fresh, fd)
        live = b - a > 1e-10
    out = np.maximum(top, np.maximum(fc, fd)).reshape(gam.shape)
    return float(out) if out.ndim == 0 else out


def dephasing_detected(p: float, theta: float, phi: float):
    """Detected capacity under Pauli measurements of dephasing with
    probability p along the Bloch axis (theta, phi). Each axis sees a binary
    symmetric channel, so the bound is 1 - min of the three flip entropies."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st2 = np.sin(theta) ** 2
    ct2 = np.cos(theta) ** 2
    flips = np.stack(
        [
            p * (ct2 + st2 * np.sin(phi) ** 2),
            p * (ct2 + st2 * np.cos(phi) ** 2),
            p * st2 * np.ones_like(phi),
        ]
    )
    out = 1.0 - np.min(binary_entropy(flips), axis=0)
    return float(out) if out.ndim == 0 else out


def rotated_pauli_detected(px: float, py: float, pz: float, phi):
    """Detected capacity under Pauli measurements of a Pauli channel
    followed by a z rotation of phi."""
    phi = np.asarray(phi, dtype=float)
    c = np.cos(phi)
    flips = np.stack(
        [
            (1.0 - c) / 2.0 + (py + pz) * c,
            (1.0 - c) / 2.0 + (px + pz) * c,
            (px + py) * np.ones_like(phi),
        ]
    )
    out = 1.0 - np.min(binary_entropy(flips), axis=0)
    return float(out) if out.ndim == 0 else out


def von_mises_expected_capacity(
    px: float, py: float, pz: float, k_phi: float, quad_points: int = 2001
) -> float:
    """Expected detected capacity of a z-rotated Pauli channel when the
    rotation phase is distributed as exp(K cos phi) on [-pi, pi].

    Composite-Simpson quadrature on a shared grid; normalizing on the same
    grid removes the Bessel-function normalization constant, and the step
    h/3 cancels in the ratio."""
    if k_phi < 0.0:
        raise ValueError(f"concentration must be nonnegative, got {k_phi}")
    if quad_points < 64:
        raise ValueError("use at least 64 quadrature points")
    n = quad_points + 1 - quad_points % 2  # Simpson wants an odd point count
    phi = np.linspace(-np.pi, np.pi, n)
    weights = np.exp(k_phi * (np.cos(phi) - 1.0))  # scaled to avoid overflow
    simpson = np.ones(n)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    weights *= simpson
    values = rotated_pauli_detected(px, py, pz, phi)
    return float(values @ weights / weights.sum())


def qutrit_vshape_transitions(gamma01, gamma02):
    """Transition matrices of the V-configuration qutrit decay channel in
    the computational basis (Q1) and the Fourier basis (Q2), plus the
    off-diagonal weight gamma_tilde of the symmetric Q2.

    Array arguments are broadcast together and give stacks of shape
    (..., 3, 3) and a gamma_tilde array; scalars give single matrices and a
    float."""
    g01, g02 = np.broadcast_arrays(np.asarray(gamma01, dtype=float),
                                   np.asarray(gamma02, dtype=float))
    for name, v in (("gamma01", g01), ("gamma02", g02)):
        if not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails too
            raise ValueError(f"{name} = {v} outside [0, 1]")
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

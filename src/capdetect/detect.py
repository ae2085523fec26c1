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
    MeasurementBasis,
    PAULI_KETS,
    conditional_probs,
    weyl_class,
    weyl_class_kets,
)
from .channels import AffineQubitChannel
from .infotheory import (
    BinaryCapacity,
    binary_capacity,
    binary_entropy,
    blahut_arimoto_batch,
    check_solver_settings,
    check_transition_stack,
    check_unit_interval,
    weakly_symmetric_capacity,
)

PAULI_AXES = ("x", "y", "z")


def pauli_bases() -> list:
    """Eigenbases of the three Pauli operators, labeled x, y, z."""
    return [MeasurementBasis(ax, kets) for ax, kets in zip(PAULI_AXES, PAULI_KETS)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def weyl_bases(d: int) -> tuple:
    """The d + 1 distinct eigenbases of the nontrivial generalized Pauli
    unitaries U_ls in prime dimension d, and each U_ls's place among them.

    Returns ``(bases, views)``. ``views`` lists ``(label, i, order)`` for
    every (l, s) != (0, 0) in row-major order, where ``bases[i].kets[order]``
    is U_ls's eigenbasis; each basis carries the label of its class's first
    U_ls, so its own ``order`` is the identity.
    """
    if not _is_prime(d):
        raise ValueError(f"the weyl basis family needs a prime dimension, got {d}")
    bases, views, first = [], [], {}
    for l in range(d):
        for s in range(d):
            if (l, s) == (0, 0):
                continue
            label = f"weyl({l},{s})"
            c, order = weyl_class(d, l, s)
            if c not in first:
                first[c] = len(bases), {k: pos for pos, k in enumerate(order)}
                bases.append(MeasurementBasis(label, weyl_class_kets(d, c)[order]))
            i, rank = first[c]
            views.append((label, i, [rank[k] for k in order]))
    return bases, views


@dataclass
class DetectionConfig:
    """Measured bases plus solver settings. ``bases`` is either an explicit
    list of bases or one of the named families "pauli" / "weyl"."""

    bases: list | str = "pauli"
    ba_tolerance_bits: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self):
        check_solver_settings(self.ba_tolerance_bits, self.max_iterations)

    def resolve_bases(self, dim: int) -> tuple:
        """The distinct bases to measure, and the reported labels as
        ``(label, basis index, ket order)`` views of them (see
        :func:`weyl_bases`); outside the weyl family each basis is its own
        view."""
        if self.bases == "weyl":
            return weyl_bases(dim)
        if self.bases == "pauli":
            if dim != 2:
                raise ValueError("the pauli basis family is only defined for qubits")
            bases = pauli_bases()
        elif isinstance(self.bases, str):
            raise ValueError(f"unknown basis family '{self.bases}'")
        elif not self.bases:
            raise ValueError("at least one measurement basis is required")
        else:
            bases = list(self.bases)
        for b in bases:
            if b.dim != dim:
                raise ValueError(f"basis '{b.label}' has dim {b.dim}, channel has dim {dim}")
        return bases, [(b.label, i, list(range(dim))) for i, b in enumerate(bases)]


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
    # the argmax is the lowest index among exactly equal values: the labels
    # of one Weyl class share one float, so the class's first label wins;
    # values that differ in the last bit are not ties
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
    """Detected capacity of a channel over a set of measured bases.

    Each distinct basis is reconstructed and solved once; every reported
    label gets its basis's transition and prior in its own ket order."""
    config = config or DetectionConfig()
    bases, views = config.resolve_bases(channel.dim)
    transitions = [conditional_probs(channel, b) for b in bases]
    solved = detect_from_transitions(transitions, [b.label for b in bases], config).per_basis
    return _assemble([
        BasisResult(label, solved[i].transition[np.ix_(order, order)], solved[i].optimal_prior[order],
                    solved[i].mutual_information_bits, solved[i].method, solved[i].converged)
        for label, i, order in views
    ])


def _axis_epsilons(l1, l2, l3, t3):
    """Binary-channel error pairs (eps0, eps1) of the three Pauli-axis
    encodings of canonical qubit channels, each of shape (..., 3):
    eps0 = (1 - |l_i| - |t_i|)/2 and eps1 = eps0 + |t_i|, with the shift
    along z only."""
    l1, l2, l3, t3 = np.broadcast_arrays(l1, l2, l3, t3)
    lam = np.abs(np.stack([l1, l2, l3], axis=-1))
    t = np.zeros_like(lam)
    t[..., 2] = np.abs(t3)
    e0 = np.maximum(0.5 * (1.0 - lam - t), 0.0)
    return e0, np.minimum(e0 + t, 1.0)


def pauli_axis_capacity(l1, l2, l3, t3) -> BinaryCapacity:
    """Binary closed form of the three Pauli-axis encodings of canonical
    qubit channels (l1, l2, l3, t3), elementwise over broadcast arrays:
    capacities and input-0 priors of shape (..., 3), the last axis ordered
    x, y, z."""
    return binary_capacity(*_axis_epsilons(l1, l2, l3, t3))


def detect_pauli_qubit(ch: AffineQubitChannel) -> DetectionResult:
    """Detected capacity of a canonical qubit channel under the three Pauli
    bases, each axis solved with the binary-channel closed form."""
    e0, e1 = _axis_epsilons(ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
    transitions = np.moveaxis(np.array([[1.0 - e0, e1], [e0, 1.0 - e1]]), -1, 0)
    return detect_from_transitions(transitions, PAULI_AXES)


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

    Unital channels always qualify, with the best Pauli-axis encoding as the
    certified one-shot capacity. A shifted channel qualifies exactly when
    max(l1^2, l2^2) <= T(|t3|, |l3|); the certified one-shot capacity is then
    the binary closed form of the shift-axis encoding.
    """
    lam_m_sq = max(ch.lambda1**2, ch.lambda2**2)
    threshold = t_threshold(abs(ch.t3), abs(ch.lambda3))
    caps = pauli_axis_capacity(ch.lambda1, ch.lambda2, ch.lambda3, ch.t3).capacity_bits
    pseudo = ch.unital or lam_m_sq <= threshold
    c1 = None
    if pseudo:
        c1 = float(caps.max() if ch.unital else caps[2])
    return PseudoclassicalityReport(True, lam_m_sq, threshold, pseudo, c1)


_GAD_GRID_POINTS = 9
_GAD_GRID_ROUNDS = 17


def holevo_gad_p1(gamma):
    """One-shot capacity of the amplitude damping channel (zero-temperature
    limit), by maximizing H[t(1-gamma)] - H[(1 + sqrt(1-4 gamma (1-gamma) t^2))/2]
    over the ensemble parameter t in [0, 1]; elementwise over an array of
    gammas, and a float for a scalar gamma.

    The objective is unimodal in t, so its maximum lies within one cell of
    the best point of any grid. Each of R = 17 rounds evaluates a grid of
    P = 9 points and keeps the two cells around its best point (the two end
    cells when the best point is an end), a bracket 4x narrower; the last
    bracket is 4^-17 < 6e-11 wide. The result is the best value evaluated.
    The schedule is fixed, so each gamma's value does not depend on the
    others in the call.
    """
    gam = check_unit_interval("gamma", gamma)
    g = gam.ravel()[:, None]
    rows = np.arange(g.size)
    frac = np.linspace(0.0, 1.0, _GAD_GRID_POINTS)
    lo, width, top = np.zeros(g.size), 1.0, np.full(g.size, -np.inf)
    for _ in range(_GAD_GRID_ROUNDS):
        t = lo[:, None] + width * frac
        s = (1.0 + np.sqrt(np.clip(1.0 - 4.0 * g * (1.0 - g) * t * t, 0.0, 1.0))) / 2.0
        vals = binary_entropy(t * (1.0 - g)) - binary_entropy(s)
        i = np.argmax(vals, axis=1)
        top = np.maximum(top, vals[rows, i])
        lo = t[rows, np.clip(i - 1, 0, _GAD_GRID_POINTS - 3)]
        width *= 2.0 / (_GAD_GRID_POINTS - 1)
    out = top.reshape(gam.shape)
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
    px: float, py: float, pz: float, k_phi, quad_points: int = 2001
):
    """Expected detected capacity of a z-rotated Pauli channel when the
    rotation phase is distributed as exp(K cos phi) on [-pi, pi]; elementwise
    over an array of concentrations K, and a float for a scalar K.

    Composite-Simpson quadrature on a shared grid; normalizing on the same
    grid removes the Bessel-function normalization constant, and the step
    h/3 cancels in the ratio."""
    k = np.asarray(k_phi, dtype=float)
    if not k.min() >= 0.0:  # NaN fails too
        bad = ~(k >= 0.0)
        count = f" ({int(bad.sum())} of {k.size} entries)" if k.ndim else ""
        raise ValueError(f"concentration must be nonnegative, got {k[bad][0]}{count}")
    if quad_points < 64:
        raise ValueError("use at least 64 quadrature points")
    n = quad_points + 1 - quad_points % 2  # Simpson wants an odd point count
    phi = np.linspace(-np.pi, np.pi, n)
    simpson = np.ones(n)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    values = rotated_pauli_detected(px, py, pz, phi)
    cos_m1 = np.cos(phi) - 1.0
    out = np.empty(k.size)
    # one dot per K: a matrix-vector product over all K rounds differently
    for i, kk in enumerate(k.flat):
        weights = np.exp(kk * cos_m1) * simpson  # scaled to avoid overflow
        out[i] = values @ weights / weights.sum()
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def qutrit_vshape_transitions(gamma01, gamma02):
    """Transition matrices of the V-configuration qutrit decay channel in
    the computational basis (Q1) and the Fourier basis (Q2), plus the
    off-diagonal weight gamma_tilde of the symmetric Q2.

    Array arguments are broadcast together and give stacks of shape
    (..., 3, 3) and a gamma_tilde array; scalars give single matrices and a
    float."""
    g01, g02 = np.broadcast_arrays(check_unit_interval("gamma01", gamma01),
                                   check_unit_interval("gamma02", gamma02))
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

"""Detected capacity bounds: per-basis mutual-information maximization and
the closed-form specializations for qubit and qutrit channel families.

The detected capacity is the maximum, over the measured bases, of the
capacity of the classical channel obtained by preparing and measuring in
that basis. It lower-bounds the one-shot (Holevo) capacity; for
pseudoclassical channels the two coincide and the bound is tight.
"""

import functools
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
    BA_MAX_ITER,
    BA_TOL_BITS,
    BinaryCapacity,
    _h,
    binary_capacity,
    binary_entropy,
    blahut_arimoto_batch,
    check_integer,
    check_interval,
    check_solver_settings,
    check_transition_stack,
)

PAULI_AXES = ("x", "y", "z")


def _identity_views(labels) -> tuple:
    """The identity view ``(label, i, slice(None))`` of each label, in order."""
    return tuple((label, i, slice(None)) for i, label in enumerate(labels))


@functools.cache
def _pauli_family(d: int) -> tuple:
    # built on first use, not at import: the orthonormality check's first
    # matmul sets up BLAS buffers that the figure commands never need
    if d != 2:
        raise ValueError("the pauli basis family is only defined for qubits")
    return tuple(map(MeasurementBasis, PAULI_AXES, PAULI_KETS)), _identity_views(PAULI_AXES)


def pauli_bases() -> list:
    """Eigenbases of the three Pauli operators, labeled x, y, z: a new list
    over bases built once per process."""
    return list(_pauli_family(2)[0])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def weyl_bases(d: int) -> tuple:
    """The d + 1 distinct eigenbases of the nontrivial generalized Pauli
    unitaries U_ls in prime dimension d, and each U_ls's place among them.

    Returns the tuples ``(bases, views)``. ``views`` holds ``(label, i,
    order)`` for every (l, s) != (0, 0) in row-major order, where
    ``bases[i].kets[order]`` is U_ls's eigenbasis. U_ls and its powers
    share one eigenbasis in different eigenvalue orders, so ``order`` is a
    read-only index array; every other family views its bases through the
    identity ``slice(None)``. Each basis carries the label of its class's
    first U_ls, so its own ``order`` is the identity array. d is an int or
    numpy integer, not a float or bool; each prime d's family is built and
    checked once per process and shared by every later call, and a
    composite d raises on every call, since the cache keeps no exception.
    """
    check_integer("dimension", d, 0)
    return _weyl_family(int(d))


@functools.cache
def _weyl_family(d: int) -> tuple:
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
            order = np.array([rank[k] for k in order], dtype=np.intp)
            order.setflags(write=False)
            views.append((label, i, order))
    return tuple(bases), tuple(views)


# The named basis families: each maps a channel dimension to its ``(bases,
# views)``, built once per process (see :func:`weyl_bases`).
BASIS_FAMILIES = {"pauli": _pauli_family, "weyl": weyl_bases}


@dataclass
class DetectionConfig:
    """Measured bases plus solver settings. ``bases`` is either an explicit
    list of bases or the name of a family in :data:`BASIS_FAMILIES`."""

    bases: list | str = "pauli"
    ba_tolerance_bits: float = BA_TOL_BITS
    max_iterations: int = BA_MAX_ITER

    def __post_init__(self):
        check_solver_settings(self.ba_tolerance_bits, self.max_iterations)

    def resolve_bases(self, dim: int) -> tuple:
        """The distinct bases to measure, and the reported labels as
        ``(label, basis index, ket order)`` views of them. Returns tuples.
        Outside the weyl family each basis is its own view, through the
        identity order ``slice(None)``; only weyl views hold read-only index
        arrays (see :func:`weyl_bases`). The named families are built once
        per process and shared; explicit bases are checked on every call."""
        if isinstance(self.bases, str):
            if self.bases not in BASIS_FAMILIES:
                raise ValueError(f"unknown basis family '{self.bases}'; choose from "
                                 f"{', '.join(BASIS_FAMILIES)}")
            return BASIS_FAMILIES[self.bases](dim)
        try:
            bases = tuple(self.bases)
        except TypeError:
            raise ValueError("bases must be a basis family name or a sequence of MeasurementBasis, "
                             f"got {type(self.bases).__name__}") from None
        if not bases:
            raise ValueError("at least one measurement basis is required")
        for i, b in enumerate(bases, 1):
            if not isinstance(b, MeasurementBasis):
                raise ValueError(f"basis {i} must be a MeasurementBasis, got {type(b).__name__}")
            if b.dim != dim:
                raise ValueError(f"basis '{b.label}' has dim {b.dim}, channel has dim {dim}")
        return bases, _identity_views(b.label for b in bases)


@dataclass
class BasisResult:
    label: str
    transition: np.ndarray
    optimal_prior: np.ndarray
    mutual_information_bits: float
    method: str  # "binary-closed-form" (every 2x2) or "BA", as solve_stack chose
    converged: bool = True
    # the BA solve's evaluations and final bracket width; 0 for the closed form
    iterations: int = 0
    gap_bits: float = 0.0


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
                    "optimal_prior": r.optimal_prior.tolist(),
                    "transition": r.transition.tolist(),
                }
                for r in self.per_basis
            ],
        }


def solve_stack(stack: np.ndarray, config: DetectionConfig) -> tuple:
    """Solve a stack (g, outputs, inputs) of same-shape column-stochastic
    transitions: the binary-channel closed form when they are 2x2,
    Blahut-Arimoto otherwise. The closed form reads two entries of each
    matrix and checks no column sum; the caller checks input from outside.

    Returns ``(method, capacities, priors, iterations, gaps)``, the arrays
    as :func:`blahut_arimoto_batch` gives them; the closed form is exact,
    with 0 iterations and a 0 gap."""
    if stack.shape[1:] == (2, 2):
        caps, p0 = binary_capacity(stack[:, 1, 0], stack[:, 0, 1])
        g = len(stack)
        priors = np.stack([p0, 1.0 - p0], axis=1)
        return "binary-closed-form", caps, priors, np.zeros(g, dtype=int), np.zeros(g)
    return "BA", *blahut_arimoto_batch(stack, config.ba_tolerance_bits, config.max_iterations)


def _detect(stack: np.ndarray, views, config: DetectionConfig) -> DetectionResult:
    """The detection result of a checked stack (k, outputs, inputs) of
    transitions, solved once by :func:`solve_stack`: each ``(label, i,
    order)`` view gets a BasisResult with transition i and its prior in the
    ket order ``order``, and basis i's method, convergence, iterations and
    gap. ``order`` is the identity ``slice(None)`` in every view but a weyl
    one (see :func:`weyl_bases`). Each request makes its own stack and
    priors, so no result shares an array with the caller. The argmax is the
    lowest index among exactly equal values, so a Weyl class's first label
    wins; values that differ in the last bit are not ties."""
    method, caps, priors, iterations, gaps = solve_stack(stack, config)
    converged = gaps <= config.ba_tolerance_bits
    per_basis = [BasisResult(label, stack[i][order][:, order], priors[i][order], float(caps[i]), method,
                             bool(converged[i]), int(iterations[i]), float(gaps[i]))
                 for label, i, order in views]
    best = int(np.argmax([r.mutual_information_bits for r in per_basis]))
    return DetectionResult(per_basis, per_basis[best].mutual_information_bits, per_basis[best].label, best,
                           converged=all(r.converged for r in per_basis))


def detect_from_transitions(transitions, labels, config: DetectionConfig | None = None) -> DetectionResult:
    """Detection pipeline on already-reconstructed transition matrices of
    one shape, one label each, solved by :func:`solve_stack`: the
    binary-channel closed form for 2x2 matrices, Blahut-Arimoto otherwise.
    Matrices that are not two-dimensional or differ in shape, a label
    count that differs from the matrix count, an empty list and a stack
    that :func:`check_transition_stack` rejects raise a ValueError that
    says so."""
    transitions = [np.asarray(t, dtype=float) for t in transitions]
    if len(transitions) != len(labels):
        raise ValueError(f"got {len(transitions)} transition matrices and {len(labels)} labels")
    if not transitions:
        raise ValueError("at least one transition matrix is required")
    for k, t in enumerate(transitions, 1):
        if t.ndim != 2:
            raise ValueError(f"transition {k} must be two-dimensional, got shape {t.shape}")
    shapes = sorted({t.shape for t in transitions})
    if len(shapes) > 1:
        raise ValueError(f"transition matrices must share one shape, got shapes {shapes}")
    return _detect(check_transition_stack(np.stack(transitions)), _identity_views(labels),
                   config or DetectionConfig())


def detect_capacity(channel: KrausChannel, config: DetectionConfig | None = None) -> DetectionResult:
    """Detected capacity of a channel over a set of measured bases.

    The distinct bases are reconstructed in one stacked pass and solved
    once each; every reported label gets its basis's transition and prior
    in its own ket order, and its basis's method, iterations and gap."""
    config = config or DetectionConfig()
    bases, views = config.resolve_bases(channel.dim)
    return _detect(conditional_probs(channel, bases), views, config)


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
    check_interval("t_norm", t_norm)
    check_interval("r", r)
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
    return PseudoclassicalityReport(lam_m_sq, threshold, pseudo, c1)


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
    gam = check_interval("gamma", gamma)
    g = gam.ravel()[:, None]
    rows = np.arange(g.size)
    frac = np.linspace(0.0, 1.0, _GAD_GRID_POINTS)
    kept = 1.0 - g
    coupling = 4.0 * g * kept
    lo, width, top = np.zeros(g.size), 1.0, np.full(g.size, -np.inf)
    for _ in range(_GAD_GRID_ROUNDS):
        t = lo[:, None] + width * frac
        s = (1.0 + np.sqrt(np.clip(1.0 - coupling * t * t, 0.0, 1.0))) / 2.0
        vals = _h(t * kept) - _h(s)  # t (1 - g) and s lie in [0, 1]: no range check
        i = np.argmax(vals, axis=1)
        top = np.maximum(top, vals[rows, i])
        lo = t[rows, np.clip(i - 1, 0, _GAD_GRID_POINTS - 3)]
        width *= 2.0 / (_GAD_GRID_POINTS - 1)
    out = top.reshape(gam.shape)
    return float(out) if out.ndim == 0 else out


def _symmetric_axes_detected(flips: list):
    """Detected capacity under Pauli measurements when each axis sees a
    binary symmetric channel with the flip probability ``flips[axis]``: 1 -
    the least of the three flip entropies, elementwise, and a float when the
    flips are scalars."""
    out = 1.0 - np.min(binary_entropy(np.stack(flips)), axis=0)
    return float(out) if out.ndim == 0 else out


def dephasing_detected(p: float, theta: float, phi: float):
    """Detected capacity under Pauli measurements of dephasing with
    probability p along the Bloch axis (theta, phi)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st2 = np.sin(theta) ** 2
    ct2 = np.cos(theta) ** 2
    return _symmetric_axes_detected([
        p * (ct2 + st2 * np.sin(phi) ** 2),
        p * (ct2 + st2 * np.cos(phi) ** 2),
        p * st2 * np.ones_like(phi),
    ])


def rotated_pauli_detected(px: float, py: float, pz: float, phi):
    """Detected capacity under Pauli measurements of a Pauli channel
    followed by a z rotation of phi."""
    phi = np.asarray(phi, dtype=float)
    c = np.cos(phi)
    return _symmetric_axes_detected([
        (1.0 - c) / 2.0 + (py + pz) * c,
        (1.0 - c) / 2.0 + (px + pz) * c,
        (px + py) * np.ones_like(phi),
    ])


# an odd count, as composite Simpson needs
_VON_MISES_POINTS = 2001
# From K ~ 1.5e8 on, every quadrature weight but phi = 0's underflows to 0,
# so the average is the point mass there; a larger K is taken as this one,
# for which K (cos phi - 1) >= -2e300 neither overflows nor, at phi = 0,
# meets inf x 0
_VON_MISES_MAX_K = 1e300


def von_mises_expected_capacity(px: float, py: float, pz: float, k_phi):
    """Expected detected capacity of a z-rotated Pauli channel when the
    rotation phase is distributed as exp(K cos phi) on [-pi, pi]; elementwise
    over an array of concentrations K, and a float for a scalar K.

    Composite-Simpson quadrature on a shared grid of ``_VON_MISES_POINTS``
    phases; normalizing on the same grid removes the Bessel-function
    normalization constant, and the step h/3 cancels in the ratio. As K
    grows the average tends to the point mass at phi = 0, which it equals
    for every K from about 1.5e8 up to inf."""
    k = check_interval("concentration", k_phi, 0.0, np.inf)
    phi = np.linspace(-np.pi, np.pi, _VON_MISES_POINTS)
    simpson = np.ones(_VON_MISES_POINTS)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    values = rotated_pauli_detected(px, py, pz, phi)
    cos_m1 = np.cos(phi) - 1.0
    out = np.empty(k.size)
    # one dot per K: a matrix-vector product over all K rounds differently
    for i, kk in enumerate(np.minimum(k, _VON_MISES_MAX_K).flat):
        weights = np.exp(kk * cos_m1) * simpson  # scaled to avoid overflow
        out[i] = values @ weights / weights.sum()
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def _vshape_gamma_tilde(g01, g02):
    """Off-diagonal weight of the V-shape channel's Fourier-basis transition."""
    a = np.sqrt(1.0 - g01)
    b = np.sqrt(1.0 - g02)
    return 1.0 / 3.0 - (a + b + a * b) / 9.0


def _decay_arm(gamma):
    """f(gamma) = (1 - gamma) gamma^(gamma / (1 - gamma)), with f(1) = 0."""
    power = np.divide(gamma, 1.0 - gamma, out=np.zeros_like(gamma), where=gamma < 1.0)
    return (1.0 - gamma) * gamma**power


def vshape_detected(gamma01, gamma02):
    """Detected capacities (I(B1), I(B2)) of the V-configuration qutrit decay
    channel in the computational basis B1 and the Fourier basis B2, both in
    closed form; elementwise over broadcast arrays, and floats for scalars.

    B1's transition Q1 sends input 0 to output 0 and input n = 1, 2 to
    output 0 with probability gamma_0n, else to output n: a Z channel with
    two decaying arms. Every input is active at its optimum, and the KKT
    conditions give I(B1) = C(Q1) = log2(1 + f(gamma01) + f(gamma02)) with
    f(g) = (1 - g) g^(g/(1-g)), attained by p_n = 2^-C g_n^(g_n/(1-g_n)) and
    p_0 = 2^-C (1 - sum_n g_n^(1/(1-g_n))) >= 0, since g^(1/(1-g)) <= 1/e
    (for one arm, Golomb, IEEE TIT 26(3), 1980). B2's transition Q2 is
    symmetric with off-diagonal weight gamma_tilde, so I(B2) =
    log2 3 - H(1 - 2 gamma_tilde, gamma_tilde, gamma_tilde).
    """
    g01, g02 = np.broadcast_arrays(check_interval("gamma01", gamma01),
                                   check_interval("gamma02", gamma02))
    i1 = np.log2(1.0 + _decay_arm(g01) + _decay_arm(g02))
    gt = _vshape_gamma_tilde(g01, g02)
    diag = 1.0 - 2.0 * gt
    ent = np.zeros_like(gt)
    m = gt > 0.0
    ent[m] -= 2.0 * gt[m] * np.log2(gt[m])
    m = diag > 0.0
    ent[m] -= diag[m] * np.log2(diag[m])
    i2 = np.log2(3.0) - ent
    if i1.ndim == 0:
        return float(i1), float(i2)
    return i1, i2

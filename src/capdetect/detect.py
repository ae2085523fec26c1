"""Detected capacity bounds: per-basis mutual-information maximization and
the closed-form specializations for qubit and qutrit channel families.

The detected capacity is the maximum, over the measured bases, of the
capacity of the classical channel obtained by preparing and measuring in
that basis. It lower-bounds the one-shot (Holevo) capacity; for
pseudoclassical channels the two coincide and the bound is tight.
"""

import functools
import json
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
from .channels import (
    AffineQubitChannel,
    _check_unit_interval,
    check_dephasing_axis,
    check_pauli_weights,
    check_z_rotation,
)
from .infotheory import (
    BA_MAX_ITER,
    BA_TOL_BITS,
    BinaryCapacity,
    _float_or_array,
    _h,
    _log2_or_zero,
    binary_capacity,
    binary_entropy,
    blahut_arimoto_batch,
    check_integer,
    check_interval,
    check_solver_settings,
    check_transition_stack,
)

PAULI_AXES = ("x", "y", "z")


@functools.cache
def _pauli_family(d: int) -> tuple:
    # built on first use, not at import: the orthonormality check's first
    # matmul sets up BLAS buffers that the figure commands never need
    if d != 2:
        raise ValueError("the pauli basis family is only defined for qubits")
    return tuple(map(MeasurementBasis, PAULI_AXES, PAULI_KETS))


def pauli_bases() -> list:
    """Eigenbases of the three Pauli operators, labeled x, y, z: a new list
    over bases built once per process."""
    return list(_pauli_family(2))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def weyl_bases(d: int) -> tuple:
    """The d + 1 distinct eigenbases of the nontrivial generalized Pauli
    unitaries U_ls in prime dimension d, as a tuple.

    U_ls and its powers share one eigenbasis in different eigenvalue
    orders (see :func:`qcore.weyl_class`), so the d² - 1 unitaries have
    d + 1 eigenbases. Each is labeled by its class's first U_ls in
    row-major (l, s) order, with its kets in that U_ls's eigenvalue order:
    weyl(0,1), weyl(1,0), then weyl(1,s) for s = 1, ..., d - 1. d is an
    int or numpy integer, not a float or bool; each prime d's family is
    built and checked once per process and shared by every later call, and
    a composite d raises on every call, since the cache keeps no exception.
    """
    check_integer("dimension", d, 0)
    return _weyl_family(int(d))


@functools.cache
def _weyl_family(d: int) -> tuple:
    if not _is_prime(d):
        raise ValueError(f"the weyl basis family needs a prime dimension, got {d}")
    bases = []
    # U_01 heads class 1, U_10 class 0 and U_1s class 1 + s^-1 mod d
    for l, s in [(0, 1), *((1, s) for s in range(d))]:
        c, order = weyl_class(d, l, s)
        bases.append(MeasurementBasis(f"weyl({l},{s})", weyl_class_kets(d, c)[order]))
    return tuple(bases)


# The named basis families: each maps a channel dimension to its tuple of
# bases, built once per process (see :func:`weyl_bases`).
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
        """The distinct bases to measure, as a tuple. The named families are
        built once per process and shared; an explicit list is returned as
        given, for :func:`conditional_probs` to check."""
        if isinstance(self.bases, str):
            if self.bases not in BASIS_FAMILIES:
                raise ValueError(f"unknown basis family '{self.bases}'; choose from "
                                 f"{', '.join(BASIS_FAMILIES)}")
            return BASIS_FAMILIES[self.bases](dim)
        try:
            return tuple(self.bases)
        except TypeError:
            raise ValueError("bases must be a basis family name or a sequence of MeasurementBasis, "
                             f"got {type(self.bases).__name__}") from None


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

    def json_text(self) -> str:
        """The text of ``json.dumps(self.as_dict(), indent=2)``, from one
        template per shape (see :func:`_json_template`) filled with the
        values of :meth:`as_dict` in the order json writes them: every
        value is written by json's own encoder, in one call, so each float,
        label, int and flag has json's text. The bases' transitions share
        one shape and each prior has one entry per input, as in every
        result of a detection."""
        texts = _VALUE_ENCODER.encode(_json_leaves(self.as_dict(), []))[1:-1].split(_SLOT)
        shape = self.per_basis[0].transition.shape if self.per_basis else (0, 0)
        return _json_template(len(self.per_basis), *shape) % tuple(texts)


def _json_leaves(node, out: list) -> list:
    """``out`` extended by the values in the dicts and lists of ``node``, in
    the order json writes them. A list whose first item is neither a dict
    nor a list is taken as a list of values, as ``ndarray.tolist`` gives."""
    for v in node.values() if type(node) is dict else node:
        if type(v) is not list and type(v) is not dict:
            out.append(v)
        elif type(v) is list and not (v and type(v[0]) in (list, dict)):
            out += v
        else:
            _json_leaves(v, out)
    return out


# json.dumps's encoder with a NUL after each item: its text of a list holds
# no other NUL, as it escapes one inside a string
_SLOT = "\0"
_VALUE_ENCODER = json.JSONEncoder(separators=(_SLOT, ":"))


@functools.cache
def _json_template(bases: int, outputs: int, inputs: int) -> str:
    """``json.dumps(result.as_dict(), indent=2)`` of a result of ``bases``
    bases with (outputs, inputs) transitions, with ``%s`` in place of each
    value in the order :func:`_json_leaves` lists them: the text of a
    result whose every value is None, each ``null`` replaced."""
    slots = np.full((outputs + 1, inputs), None)
    basis = BasisResult(None, slots[:outputs], slots[outputs], None, None, None)
    doc = DetectionResult([basis] * bases, None, None, None, None).as_dict()
    return json.dumps(doc, indent=2).replace("null", "%s")


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


def _detect(stack: np.ndarray, labels, config: DetectionConfig) -> DetectionResult:
    """The detection result of a checked stack (k, outputs, inputs) of
    transitions, solved once by :func:`solve_stack`: transition i gets a
    BasisResult with the i-th label, its prior, method, convergence,
    iterations and gap. Each request makes its own stack and priors, so no
    result shares an array with the caller. The argmax is the lowest index
    among exactly equal values; values that differ in the last bit are not
    ties."""
    method, caps, priors, iterations, gaps = solve_stack(stack, config)
    converged = gaps <= config.ba_tolerance_bits
    per_basis = [BasisResult(label, stack[i], priors[i], float(caps[i]), method,
                             bool(converged[i]), int(iterations[i]), float(gaps[i]))
                 for i, label in enumerate(labels)]
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
    return _detect(check_transition_stack(np.stack(transitions)), labels, config or DetectionConfig())


def detect_capacity(channel: KrausChannel, config: DetectionConfig | None = None) -> DetectionResult:
    """Detected capacity of a channel over a set of measured bases.

    The bases are reconstructed in one stacked pass and solved in one
    :func:`solve_stack` call, each reported once under its own label."""
    config = config or DetectionConfig()
    bases = config.resolve_bases(channel.dim)
    return _detect(conditional_probs(channel, bases), [b.label for b in bases], config)


def _axis_epsilons(l1, l2, l3, t3):
    """Binary-channel error pairs (eps0, eps1) of the three Pauli-axis
    encodings of canonical qubit channels, each of shape (..., 3):
    eps0 = (1 - |l_i| - |t_i|)/2 and eps1 = eps0 + |t_i|, with the shift
    along z only."""
    lam = np.empty((*np.broadcast(l1, l2, l3, t3).shape, 3))
    t = np.zeros_like(lam)
    lam[..., 0], lam[..., 1], lam[..., 2], t[..., 2] = np.abs(l1), np.abs(l2), np.abs(l3), np.abs(t3)
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


def t_threshold(t_norm: float, r: float) -> float:
    """Pseudoclassicality threshold on the squared transverse scaling of a
    shifted qubit channel, as a function of the shift norm and the scaling r
    along the shift axis.

    With u = t_norm - r and x = (1 + u)/2, the defining quotient
    r^2 - t_norm r + u [H(1/2 + (t_norm + r)/2) - H(x)] / H'(x), 0/0 at u = 0,
    is rewritten by H'(x) = -2 atanh(u) / ln 2 as
    r^2 - t_norm r - (ln 2 / 2) (u / atanh u) [H(1/2 + (t_norm + r)/2) - H(x)],
    whose factor u / atanh u takes its limits, 1 at u = 0 and 0 at |u| = 1.
    So the function is exact, to rounding, on its whole domain. Returns a Python float.
    """
    t_norm = float(check_interval("t_norm", t_norm))
    r = float(check_interval("r", r))
    if t_norm + r > 1.0 + 1e-12:
        raise ValueError(
            f"t_norm + r = {t_norm + r} exceeds 1; no completely positive "
            "qubit channel has this geometry"
        )
    u = t_norm - r
    ratio = 1.0 if u == 0.0 else 0.0 if abs(u) == 1.0 else u / math.atanh(u)
    bracket = binary_entropy(0.5 + (t_norm + r) / 2.0) - binary_entropy(0.5 + u / 2.0)
    return r * r - t_norm * r - 0.5 * _LN2 * ratio * bracket


@dataclass
class PseudoclassicalityReport:
    """Certificate that the one-shot capacity is reached by orthogonal
    inputs and a single-axis measurement, so the detected bound is tight."""

    lambda_m_sq: float
    threshold_T: float
    pseudoclassical: bool
    c1_bits: float | None = None


def pseudoclassical_certificate(l1, l2, l3: float, t3: float) -> tuple:
    """Pseudoclassicality of canonical qubit channels (l1, l2, l3, t3),
    elementwise over l1 and l2 for one (l3, t3): a channel qualifies when it
    is unital or max(l1^2, l2^2) <= T(|t3|, |l3|), and its certified
    one-shot capacity c1 is then the best Pauli-axis encoding's if unital,
    else the shift axis's. Returns (max(l1^2, l2^2), T, flags, c1 with None
    where a channel does not qualify, Pauli-axis capacities (..., 3))."""
    lam_m_sq = np.maximum(l1 * l1, l2 * l2)
    threshold = t_threshold(abs(t3), abs(l3))
    caps = pauli_axis_capacity(l1, l2, l3, t3).capacity_bits
    pseudo = (t3 == 0.0) | (lam_m_sq <= threshold)
    c1 = np.where(pseudo, caps.max(axis=-1) if t3 == 0.0 else caps[..., 2], None)
    return lam_m_sq, threshold, pseudo, c1, caps


def pseudoclassicality(ch: AffineQubitChannel) -> PseudoclassicalityReport:
    """Pseudoclassicality certificate for a canonical qubit channel, by
    :func:`pseudoclassical_certificate`'s rule."""
    lam_m_sq, threshold, pseudo, c1, _ = pseudoclassical_certificate(ch.lambda1, ch.lambda2, ch.lambda3, ch.t3)
    return PseudoclassicalityReport(float(lam_m_sq), threshold, bool(pseudo), c1[()])


_GAD_GRID_POINTS = 9
_GAD_GRID_ROUNDS = 17
# gammas evaluated at a time: a round holds several (gammas, 9) arrays, so
# the peak grows with the block, not with the call
_GAD_BLOCK = 4096


def holevo_gad_p1(gamma):
    """One-shot capacity of the amplitude damping channel (zero-temperature
    limit), by maximizing H[t(1-gamma)] - H[(1 + sqrt(1-4 gamma (1-gamma) t^2))/2]
    over the ensemble parameter t in [0, 1]; elementwise over an array of
    gammas. Scalar inputs give Python floats.

    The objective is unimodal in t, so its maximum lies within one cell of
    the best point of any grid. Each of R = 17 rounds evaluates a grid of
    P = 9 points and keeps the two cells around its best point (the two end
    cells when the best point is an end), a bracket 4x narrower; the last
    bracket is 4^-17 < 6e-11 wide. The result is the best value evaluated.
    The schedule is fixed, so each gamma's value does not depend on the
    others in the call, and the gammas are evaluated in blocks of
    ``_GAD_BLOCK``.
    """
    gam = check_interval("gamma", gamma)
    flat = gam.ravel()
    top = np.empty(flat.size)
    for start in range(0, flat.size, _GAD_BLOCK):
        top[start:start + _GAD_BLOCK] = _holevo_gad_p1_block(flat[start:start + _GAD_BLOCK, None])
    return _float_or_array(top.reshape(gam.shape))


def _holevo_gad_p1_block(g: np.ndarray) -> np.ndarray:
    """:func:`holevo_gad_p1` of a column (n, 1) of checked gammas, flat."""
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
    return top


def _symmetric_axes_detected(fx, fy, fz):
    """Detected capacity under Pauli measurements when the x, y and z axes
    see binary symmetric channels with the flip probabilities fx, fy and fz:
    1 - the least of the three flip entropies, elementwise over the flips
    broadcast together, each entropy taken at its own flip's shape. Scalar
    inputs give Python floats."""
    return _float_or_array(1.0 - np.minimum(np.minimum(binary_entropy(fx), binary_entropy(fy)), binary_entropy(fz)))


def dephasing_detected(p: float, theta: float, phi: float):
    """Detected capacity under Pauli measurements of dephasing with
    probability p along the Bloch axis (theta, phi): elementwise over theta
    and phi broadcast together, the z flip at theta's shape; p, theta and
    phi must lie where :func:`channels.dephasing_axis_channel` takes them.
    Scalar inputs give Python floats."""
    p = _check_unit_interval("p", p)
    theta, phi = check_dephasing_axis(theta, phi)
    # squares by products: a float64 scalar's ** 2 is libm pow, which can
    # differ in the last bit from an array's ** 2 (np.square)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    st2 = st * st
    ct2 = ct * ct
    return _symmetric_axes_detected(p * (ct2 + st2 * (sp * sp)), p * (ct2 + st2 * (cp * cp)), p * st2)


def rotated_pauli_detected(px: float, py: float, pz: float, phi):
    """Detected capacity under Pauli measurements of a Pauli channel
    followed by a z rotation of phi: elementwise over phi, whose z flip
    px + py is one scalar; the weights and phi must lie where
    :func:`channels.rotated_pauli_channel` takes them. Scalar inputs give
    Python floats."""
    check_pauli_weights(px, py, pz)
    phi = check_z_rotation(phi)
    c = np.cos(phi)
    return _symmetric_axes_detected((1.0 - c) / 2.0 + (py + pz) * c, (1.0 - c) / 2.0 + (px + pz) * c, px + py)


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
    over an array of concentrations K. Scalar inputs give Python floats.

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
    return _float_or_array(out.reshape(k.shape))


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
    closed form; elementwise over the two gammas broadcast together, each
    decay arm at its own gamma's shape. Scalar inputs give Python floats.

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
    g01 = check_interval("gamma01", gamma01)
    g02 = check_interval("gamma02", gamma02)
    i1 = np.log2(1.0 + _decay_arm(g01) + _decay_arm(g02))
    gt = _vshape_gamma_tilde(g01, g02)
    diag = 1.0 - 2.0 * gt
    i2 = np.log2(3.0) - (-2.0 * gt * _log2_or_zero(gt) - diag * _log2_or_zero(diag))
    return _float_or_array(i1), _float_or_array(i2)

"""The channel zoo: every analyzed channel family, in Kraus and affine form.

Qubit channels are also handled in their Bloch-sphere affine representation
rho -> (I + sigma.(Lambda r + t))/2 with diagonal Lambda = diag(l1, l2, l3)
and shift t = (0, 0, t3); :func:`affine_to_kraus` / :func:`kraus_to_affine`
convert between the two pictures.
"""

import inspect
import math

import numpy as np
from dataclasses import dataclass, field

from .infotheory import check_integer, check_interval
from .qcore import (
    CERT_TOL,
    KrausChannel,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_channel,
    basis_ket,
    trace_preservation_error,
    weyl_operator,
)

# Eigenvalues of the Choi matrix below this are treated as exactly zero when
# factoring an affine map into Kraus operators, to avoid near-null operators.
_CHOI_CUTOFF = 1e-12


def _check_unit_interval(name: str, value: float) -> float:
    return min(max(float(check_interval(name, value, slack=1e-12)), 0.0), 1.0)


@dataclass(frozen=True)
class AffineQubitChannel:
    """Canonical qubit channel (l1, l2, l3, t3): diagonal Bloch scaling with
    a shift along z. Construction rejects parameters violating the complete
    positivity constraints (l1 +- l2)^2 <= (1 +- l3)^2 - t3^2 by more than
    :meth:`cp_margins` allows, and stores each parameter as a Python float
    in [-1, 1], each within 1e-12 of the value given."""

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "t3"):
            value = float(check_interval(name, getattr(self, name), -1.0, 1.0, 1e-12))
            object.__setattr__(self, name, min(max(value, -1.0), 1.0))
        for sign, margin in zip("+-", self.cp_margins()):
            if not margin >= -1e-12:
                raise ValueError(f"not completely positive: (l1{sign}l2)^2 <= (1{sign}l3)^2 - t3^2 "
                                 f"violated by {-margin:.3e}")

    def cp_margins(self) -> tuple:
        """Slack in the two complete-positivity inequalities, in the closed
        form sqrt(t3^2 + (l1 +- l2)^2) <= 1 +- l3 of the Choi matrix's two
        2x2 blocks (negative = violated): each is 4 times its block's least
        eigenvalue, so a margin >= -1e-12 keeps every Choi eigenvalue above
        -2.5e-13 (up to rounding), and |t3| + |l3| <= 1 + 1e-12, as
        :func:`detect.t_threshold` requires."""
        l1, l2, l3, t3 = self.lambda1, self.lambda2, self.lambda3, self.t3
        return 1.0 - (math.hypot(t3, l1 + l2) - l3), 1.0 - (math.hypot(t3, l1 - l2) + l3)


def pauli_family_channel(dim: int, q: np.ndarray) -> KrausChannel:
    """Channel sum_ls q_ls U_ls rho U_ls^dag from a dim x dim probability table over the
    generalized Pauli unitaries, read by :func:`check_numbers`; dim is an integer >= 2."""
    check_integer("dim", dim, 2)
    q = check_numbers(q, "probability table q")
    if q.shape != (dim, dim):
        raise ValueError(f"probability table q must be {dim}x{dim}, got {q.shape}")
    check_interval("q", q, 0.0, 1.0, 1e-12)  # each entry is a probability, so the sum cannot overflow
    if not abs(q.sum() - 1.0) <= 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {q.sum()}")
    l, s = np.nonzero(q > 0.0)
    return KrausChannel(np.sqrt(q[l, s])[:, None, None] * weyl_operator(dim, l, s))


def check_pauli_weights(px: float, py: float, pz: float) -> float:
    """1 - px - py - pz, at least 0, after checking that it, px, py and pz are >= 0 within 1e-12."""
    for name, value in (("px", px), ("py", py), ("pz", pz)):
        check_interval(name, value, 0.0, np.inf, 1e-12)
    return max(float(check_interval("simplex weight 1 - px - py - pz", 1.0 - px - py - pz, 0.0, np.inf, 1e-12)), 0.0)


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """Qubit Pauli channel; the identity weight is 1 - px - py - pz."""
    # table indices (l, s): identity (0,0), sigma_x (0,1), sigma_z (1,0),
    # and (1,1) which equals sigma_y up to phase
    return pauli_family_channel(2, np.array([[check_pauli_weights(px, py, pz), px], [pz, py]]))


def gad_params(gamma, p) -> tuple:
    """Canonical parameters (l1, l2, l3, t3) of generalized amplitude
    damping, elementwise over arrays; :func:`gad_affine` checks the ranges."""
    root = np.sqrt(1.0 - gamma)
    return root, root, 1.0 - gamma, (2.0 * p - 1.0) * gamma


def gad_affine(gamma: float, p: float) -> AffineQubitChannel:
    """Generalized amplitude damping: damping gamma toward an asymptotic
    excited-state population p."""
    gamma = _check_unit_interval("gamma", gamma)
    p = _check_unit_interval("p", p)
    return AffineQubitChannel(*gad_params(gamma, p))


def stretched_affine(gamma: float, s: float) -> AffineQubitChannel:
    """Stretched damping channel: (s, s, 1-gamma, gamma) with |s| <= sqrt(1-gamma)."""
    gamma = _check_unit_interval("gamma", gamma)
    try:  # the constructor's closed-form check decides; for this family it is s^2 <= 1 - gamma
        return AffineQubitChannel(s, s, 1.0 - gamma, gamma)
    except ValueError:
        raise ValueError(
            f"|s| = {abs(s)} exceeds sqrt(1-gamma) = {np.sqrt(1 - gamma):.6f}; not completely positive"
        ) from None


def extremal_affine(alpha: float, beta: float) -> AffineQubitChannel:
    """Extremal qubit channel (cos a, cos b, cos a cos b, sin a sin b),
    0 <= alpha <= beta <= pi/2."""
    if not 0.0 <= alpha <= beta <= np.pi / 2 + 1e-12:
        raise ValueError(f"need 0 <= alpha <= beta <= pi/2, got ({alpha}, {beta})")
    ca, cb = np.cos(alpha), np.cos(beta)
    return AffineQubitChannel(ca, cb, ca * cb, np.sin(alpha) * np.sin(beta))


def vshape_qutrit_channel(gamma01: float, gamma02: float) -> KrausChannel:
    """Three-level decay where |1> and |2> independently decay to |0>."""
    gamma01 = _check_unit_interval("gamma01", gamma01)
    gamma02 = _check_unit_interval("gamma02", gamma02)
    a0 = np.diag([1.0, np.sqrt(1.0 - gamma01), np.sqrt(1.0 - gamma02)]).astype(complex)
    ops = [a0]
    if gamma01 > 0.0:
        ops.append(np.sqrt(gamma01) * np.outer(basis_ket(3, 0), basis_ket(3, 1).conj()))
    if gamma02 > 0.0:
        ops.append(np.sqrt(gamma02) * np.outer(basis_ket(3, 0), basis_ket(3, 2).conj()))
    return KrausChannel(ops)


def check_dephasing_axis(theta, phi) -> tuple:
    """theta and phi as float arrays, after checking that the Bloch axis
    (theta, phi) has 0 <= theta <= pi/2 and 0 <= phi <= 2 pi, each within
    1e-12 above."""
    return check_interval("theta", theta, 0.0, np.pi / 2 + 1e-12), check_interval("phi", phi, 0.0, 2 * np.pi + 1e-12)


def dephasing_axis_channel(p: float, theta: float, phi: float) -> KrausChannel:
    """Dephasing with probability p along the Bloch axis (theta, phi)."""
    p = _check_unit_interval("p", p)
    check_dephasing_axis(theta, phi)
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    sigma_n = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ops = []
    if p < 1.0:
        ops.append(np.sqrt(1.0 - p) * np.eye(2, dtype=complex))
    if p > 0.0:
        ops.append(np.sqrt(p) * sigma_n)
    return KrausChannel(ops)


def check_z_rotation(phi):
    """phi as a float array, after checking -pi <= phi <= pi within 1e-12."""
    return check_interval("phi", phi, -np.pi, np.pi, 1e-12)


def rotated_pauli_channel(px: float, py: float, pz: float, phi: float) -> KrausChannel:
    """Pauli channel followed by a rotation of phi around the z axis."""
    check_z_rotation(phi)
    rot = np.cos(phi / 2) * np.eye(2, dtype=complex) + 1j * np.sin(phi / 2) * SIGMA_Z
    base = pauli_channel(px, py, pz)
    return KrausChannel(rot @ base.operators)


def kraus_to_affine(channel: KrausChannel) -> tuple:
    """Bloch representation (Lambda, t) of a qubit channel:
    Lambda_ij = Tr[sigma_i E(sigma_j)]/2 and t_i = Tr[sigma_i E(I)]/2."""
    if channel.dim != 2:
        raise ValueError(f"affine Bloch form needs a qubit channel, got dim {channel.dim}")
    images = [apply_channel(channel, s) for s in (np.eye(2), *PAULIS)]
    bloch = np.array([[np.trace(si @ image).real / 2.0 for image in images] for si in PAULIS])
    return bloch[:, 1:], bloch[:, 0]


def affine_to_kraus(ch: AffineQubitChannel) -> KrausChannel:
    """Kraus operators of a canonical affine qubit channel, from the spectral
    factorization of its Choi matrix sum_kl E(|k><l|) ⊗ |k><l| / 2.

    That matrix is written out: its 8 nonzero entries are 0.5 E(|k><l|)_ij
    at (2i + k, 2j + l), each summed in the order that applying the Bloch
    form (l1, l2, l3, t3) to |k><l| sums it, so the bits are those of that
    construction."""
    l1, l2, l3, t3 = ch.lambda1, ch.lambda2, ch.lambda3, ch.t3
    up, down, z = 0.5 * (1 + t3), 0.5 * (1 - t3), 0.5 * l3
    plus, minus = 0.5 * l1 + 0.5 * l2, 0.5 * l1 - 0.5 * l2
    choi = np.zeros((4, 4), dtype=complex)
    # added to zeros, as the sum over (k, l) was, so no entry is -0.0
    choi[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] += 0.5 * np.array(
        [up + z, up - z, down - z, down + z, plus, plus, minus, minus])
    evals, evecs = np.linalg.eigh(choi)  # >= -2.5e-13, up to rounding, by the constructor's check
    kept = evals > _CHOI_CUTOFF
    return KrausChannel(np.sqrt(2.0 * evals[kept])[:, None, None] * evecs.T[kept].reshape(-1, 2, 2))


_ARRAY_PARAMS = ("q", "operators")
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares exactly with any int


def _holds_numbers(array: np.ndarray) -> bool:
    """Whether the array's dtype is one of numbers: an integer, or a float that float64 holds."""
    return array.dtype.kind in "iu" or array.dtype.char in "efd"


def _cells(value) -> list:
    """The leaf entries of nested lists, tuples and arrays of numbers; any other array is one leaf."""
    if isinstance(value, np.ndarray) and _holds_numbers(value):
        value = value.tolist()
    return [c for v in value for c in _cells(v)] if isinstance(value, (list, tuple)) else [value]


def check_numbers(value, subject: str, nested: bool = True) -> np.ndarray:
    """``np.asarray(value, dtype=float)``, converted once, after requiring
    ``value``, or with ``nested`` each leaf of a list, tuple or array of at
    least one dimension, to be a finite number: a Python or numpy integer
    or float, never a bool, string, null, time or ``np.longdouble``. An
    array is judged by its dtype, as numpy reads times and records as ints.
    Each error starts with ``subject`` and names the first bad cell, or says
    that numpy cannot read the cells as one array."""
    what = "an array of numbers" if nested else "a number"
    if nested and isinstance(value, np.ndarray) and value.ndim:
        if _holds_numbers(value) and np.isfinite(array := np.asarray(value, dtype=float)).all():
            return array
    elif nested and isinstance(value, (list, tuple)):
        # lists of Python numbers pass level by level, in at most numpy's 64
        # dimensions: one set of types and one of lengths per level
        level, shape = [value], []
        for _ in range(64):
            kinds = set(map(type, level))
            if not level or not kinds <= {list, tuple} or len(lengths := set(map(len, level))) > 1:
                break
            shape += lengths
            level = [cell for row in level for cell in row]
        if kinds <= {int, float} and all(map(_FLOAT_MAX.__ge__, map(abs, level))):  # NaN fails
            return np.array(level, dtype=float).reshape(shape)
    elif nested:
        raise ValueError(f"{subject} must be {what}, got {value!r}")
    try:  # any other value is walked cell by cell
        for cell in _cells(value) if nested else (value,):
            if nested and isinstance(cell, np.ndarray):
                raise ValueError(f"{subject} must be {what}, got dtype {cell.dtype}")
            if isinstance(cell, (np.bool_, np.number)) and not isinstance(cell, np.timedelta64):
                cell = cell.item()  # Python's value, named alike on every numpy; a np.longdouble stays one
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise ValueError(f"{subject} must be {what}, got {cell!r}")
            if not abs(cell) <= _FLOAT_MAX:  # NaN fails
                raise ValueError(f"{subject} must be a finite number, got {cell!r}")
    except RecursionError:  # lists nested past the recursion limit, or into themselves
        raise ValueError(f"{subject} is nested too deeply") from None
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # ragged lists
        raise ValueError(f"{subject} is not a rectangular array of numbers") from None


def _matrix_from_cells(cells: np.ndarray, d: int, what: str) -> np.ndarray:
    """The complex matrix of [re, im] cells, flat row-major (d*d cells) or nested (d rows of d cells)."""
    if cells.shape not in ((d * d, 2), (d, d, 2)):
        raise ValueError(f"{what}: expected {d * d} [re, im] cells (flat row-major or {d} rows), "
                         f"got shape {cells.shape}")
    return (cells[..., 0] + 1j * cells[..., 1]).reshape(d, d)


def _kraus_channel(dim: int, operators) -> KrausChannel:
    """Channel from Kraus operators, each a float array of :func:`_matrix_from_cells`, without a CPTP check."""
    return KrausChannel(tuple(_matrix_from_cells(op, dim, f"operator {i}") for i, op in enumerate(operators)))


# Each spec kind's builder. The builder's parameters are the kind's
# parameters, and one with a default is optional; the kinds whose builder
# returns an AffineQubitChannel have an affine form.
_KINDS = {
    "pauli": pauli_channel,
    "generalized_pauli": pauli_family_channel,
    "gad": gad_affine,
    "stretched": stretched_affine,
    "extremal": extremal_affine,
    "dephasing_axis": dephasing_axis_channel,
    "rotated_pauli": rotated_pauli_channel,
    "vshape_qutrit": vshape_qutrit_channel,
    "affine_qubit": AffineQubitChannel,
    "kraus": _kraus_channel,
}
# read once: inspecting a signature costs about as much as loading a spec
_PARAMS = {kind: inspect.signature(builder).parameters for kind, builder in _KINDS.items()}


@dataclass(frozen=True)
class ChannelSpec:
    """Validated channel description as ingested from a JSON document
    {"kind": ..., "params": {...}}."""

    kind: str
    params: dict = field(default_factory=dict)
    # q and each Kraus operator as check_numbers read them, once, for the builder
    _arrays: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # every path to a channel constructs a spec: the one check of its kind, names, types and dim
        kind, params = self.kind, self.params
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown channel kind '{kind}'; choose from {sorted(_KINDS)}")
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        object.__setattr__(self, "params", params := dict(params))
        expected = _PARAMS[kind]
        unknown = params.keys() - expected.keys()
        if unknown:
            raise ValueError(f"unknown parameter(s) for kind '{kind}': {sorted(unknown)}")
        missing = [name for name, p in expected.items() if p.default is p.empty and name not in params]
        if missing:
            raise ValueError(f"missing parameter(s) for kind '{kind}': {sorted(missing)}")
        object.__setattr__(self, "_arrays", arrays := {})
        for name, value in params.items():
            subject = f"parameter '{name}' of kind '{kind}'"
            if name == "operators" and isinstance(value, (list, tuple)):  # each takes either cell layout
                arrays[name] = [check_numbers(op, subject) for op in value]
            elif name in _ARRAY_PARAMS:
                arrays[name] = check_numbers(value, subject)
            else:
                check_numbers(value, subject, False)
        if "dim" in params:
            check_integer(f"{kind} dim", params["dim"], 2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ChannelSpec":
        """The spec of a JSON document {"kind": ..., "params": {...}},
        checked as construction checks it."""
        if not isinstance(doc, dict):
            raise ValueError("channel spec must be a JSON object")
        return cls(doc.get("kind"), doc.get("params", {}))

    def _make(self):
        """The kind's builder applied to the parameters."""
        return _KINDS[self.kind](**{**self.params, **self._arrays})

    def build(self, require_cptp: bool = True) -> KrausChannel:
        """The channel, after its builder's range checks and a kraus spec's trace-preservation check."""
        ch = self._make()
        if isinstance(ch, AffineQubitChannel):
            return affine_to_kraus(ch)
        if require_cptp and "operators" in self.params:
            err = trace_preservation_error(ch)
            if not err <= CERT_TOL:  # NaN fails too
                raise ValueError(f"Kraus set is not CPTP: trace-preservation error {err:.3e}")
        return ch

    def affine(self) -> AffineQubitChannel | None:
        """Canonical affine form, for kinds that define one directly."""
        ch = self._make()
        return ch if isinstance(ch, AffineQubitChannel) else None

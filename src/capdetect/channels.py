"""The channel zoo: every analyzed channel family, in Kraus and affine form.

Qubit channels are also handled in their Bloch-sphere affine representation
rho -> (I + sigma.(Lambda r + t))/2 with diagonal Lambda = diag(l1, l2, l3)
and shift t = (0, 0, t3); :func:`affine_to_kraus` / :func:`kraus_to_affine`
convert between the two pictures.
"""

import numpy as np
from dataclasses import dataclass, field

from .infotheory import check_unit_interval
from .qcore import (
    KrausChannel,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_channel,
    basis_ket,
    weyl_operator,
)

# Eigenvalues of the Choi matrix below this are treated as exactly zero when
# factoring an affine map into Kraus operators, to avoid near-null operators.
_CHOI_CUTOFF = 1e-12


def _check_unit_interval(name: str, value: float) -> float:
    return min(max(float(check_unit_interval(name, value, slack=1e-12)), 0.0), 1.0)


@dataclass(frozen=True)
class AffineQubitChannel:
    """Canonical qubit channel (l1, l2, l3, t3): diagonal Bloch scaling with
    a shift along z. Construction rejects parameters violating the complete
    positivity constraints (l1 +- l2)^2 <= (1 +- l3)^2 - t3^2."""

    lambda1: float
    lambda2: float
    lambda3: float
    t3: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "t3"):
            v = getattr(self, name)
            if not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} = {v} outside [-1, 1]")
        mp, mm = self.cp_margins()
        if mp < -1e-12:
            raise ValueError(
                "not completely positive: (l1+l2)^2 <= (1+l3)^2 - t3^2 violated "
                f"by {-mp:.3e}"
            )
        if mm < -1e-12:
            raise ValueError(
                "not completely positive: (l1-l2)^2 <= (1-l3)^2 - t3^2 violated "
                f"by {-mm:.3e}"
            )

    def cp_margins(self) -> tuple:
        """Slack in the two complete-positivity inequalities (negative = violated)."""
        mp = (1 + self.lambda3) ** 2 - self.t3**2 - (self.lambda1 + self.lambda2) ** 2
        mm = (1 - self.lambda3) ** 2 - self.t3**2 - (self.lambda1 - self.lambda2) ** 2
        return float(mp), float(mm)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([self.lambda1, self.lambda2, self.lambda3])

    @property
    def shift(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.t3])

    @property
    def unital(self) -> bool:
        return self.t3 == 0.0


def pauli_family_channel(d: int, q: np.ndarray) -> KrausChannel:
    """Channel sum_ls q_ls U_ls rho U_ls^dag from a d x d probability table
    over the generalized Pauli unitaries."""
    q = np.asarray(q, dtype=float)
    if q.shape != (d, d):
        raise ValueError(f"probability table must be {d}x{d}, got {q.shape}")
    if q.min() < -1e-12:
        raise ValueError(f"negative probability q = {q.min()}")
    if abs(q.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {q.sum()}")
    ops = []
    for l in range(d):
        for s in range(d):
            if q[l, s] > 0.0:
                ops.append(np.sqrt(q[l, s]) * weyl_operator(d, l, s))
    return KrausChannel(tuple(ops))


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """Qubit Pauli channel; the identity weight is 1 - px - py - pz."""
    p0 = 1.0 - px - py - pz
    if min(px, py, pz, p0) < -1e-12:
        raise ValueError(
            f"(px, py, pz) = ({px}, {py}, {pz}) not in the probability simplex"
        )
    # table indices (l, s): identity (0,0), sigma_x (0,1), sigma_z (1,0),
    # and (1,1) which equals sigma_y up to phase
    return pauli_family_channel(2, np.array([[max(p0, 0.0), px], [pz, py]]))


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
    if abs(s) > np.sqrt(1.0 - gamma) + 1e-12:
        raise ValueError(
            f"|s| = {abs(s)} exceeds sqrt(1-gamma) = {np.sqrt(1 - gamma):.6f}; not completely positive"
        )
    return AffineQubitChannel(float(s), float(s), 1.0 - gamma, gamma)


def extremal_affine(alpha: float, beta: float) -> AffineQubitChannel:
    """Extremal qubit channel (cos a, cos b, cos a cos b, sin a sin b),
    0 <= alpha <= beta <= pi/2."""
    if not 0.0 <= alpha <= beta <= np.pi / 2 + 1e-12:
        raise ValueError(f"need 0 <= alpha <= beta <= pi/2, got ({alpha}, {beta})")
    ca, cb = np.cos(alpha), np.cos(beta)
    return AffineQubitChannel(ca, cb, ca * cb, np.sin(alpha) * np.sin(beta))


_AFFINE_FAMILIES = {"gad": gad_affine, "stretched": stretched_affine, "extremal": extremal_affine}


def named_affine_params(kind: str, params: dict) -> AffineQubitChannel:
    """Look up a named affine qubit family by kind and parameter dict."""
    if kind not in _AFFINE_FAMILIES:
        raise ValueError(f"unknown affine family '{kind}'; choose from {sorted(_AFFINE_FAMILIES)}")
    return _AFFINE_FAMILIES[kind](**params)


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
    return KrausChannel(tuple(ops))


def dephasing_axis_channel(p: float, theta: float, phi: float) -> KrausChannel:
    """Dephasing with probability p along the Bloch axis (theta, phi)."""
    p = _check_unit_interval("p", p)
    if not 0.0 <= theta <= np.pi / 2 + 1e-12:
        raise ValueError(f"theta = {theta} outside [0, pi/2]")
    if not 0.0 <= phi < 2 * np.pi + 1e-12:
        raise ValueError(f"phi = {phi} outside [0, 2*pi)")
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    sigma_n = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    ops = []
    if p < 1.0:
        ops.append(np.sqrt(1.0 - p) * np.eye(2, dtype=complex))
    if p > 0.0:
        ops.append(np.sqrt(p) * sigma_n)
    return KrausChannel(tuple(ops))


def rotated_pauli_channel(px: float, py: float, pz: float, phi: float) -> KrausChannel:
    """Pauli channel followed by a rotation of phi around the z axis."""
    if not -np.pi - 1e-12 <= phi <= np.pi + 1e-12:
        raise ValueError(f"phi = {phi} outside [-pi, pi]")
    rot = np.cos(phi / 2) * np.eye(2, dtype=complex) + 1j * np.sin(phi / 2) * SIGMA_Z
    base = pauli_channel(px, py, pz)
    return KrausChannel(tuple(rot @ a for a in base.operators))


def kraus_to_affine(channel: KrausChannel) -> tuple:
    """Bloch representation (Lambda, t) of a qubit channel:
    Lambda_ij = Tr[sigma_i E(sigma_j)]/2 and t_i = Tr[sigma_i E(I)]/2."""
    if channel.dim != 2:
        raise ValueError(f"affine Bloch form needs a qubit channel, got dim {channel.dim}")
    lam = np.empty((3, 3))
    for j, sj in enumerate(PAULIS):
        image = apply_channel(channel, sj)
        for i, si in enumerate(PAULIS):
            lam[i, j] = np.trace(si @ image).real / 2.0
    image_id = apply_channel(channel, np.eye(2, dtype=complex))
    t = np.array([np.trace(s @ image_id).real / 2.0 for s in PAULIS])
    return lam, t


def affine_to_kraus(ch: AffineQubitChannel) -> KrausChannel:
    """Kraus operators of a canonical affine qubit channel, from the spectral
    factorization of its Choi matrix."""
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


_PARAM_NAMES = {
    "pauli": ("px", "py", "pz"),
    "generalized_pauli": ("dim", "q"),
    "gad": ("gamma", "p"),
    "stretched": ("gamma", "s"),
    "extremal": ("alpha", "beta"),
    "dephasing_axis": ("p", "theta", "phi"),
    "rotated_pauli": ("px", "py", "pz", "phi"),
    "vshape_qutrit": ("gamma01", "gamma02"),
    "affine_qubit": ("lambda1", "lambda2", "lambda3", "t3"),
    "kraus": ("dim", "operators"),
}
_CHANNEL_KINDS = tuple(_PARAM_NAMES)
_ARRAY_PARAMS = ("q", "operators")


def _cells(value):
    """The leaf entries of nested lists, tuples and arrays."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _cells(v)
    else:
        yield value


def check_numbers(value, subject: str, nested: bool = True) -> None:
    """Require every leaf of ``value`` (``value`` itself unless ``nested``)
    to be a number: no string, boolean or null, which
    ``np.asarray(..., dtype=float)`` would accept. The error starts with
    ``subject``."""
    for cell in _cells(value) if nested else (value,):
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            what = "an array of numbers" if nested else "a number"
            raise ValueError(f"{subject} must be {what}, got {cell!r}")


def _matrix_from_cells(cells, d: int, what: str) -> np.ndarray:
    """Decode a complex matrix from [re, im] cells, either flat row-major
    (d*d cells) or nested (d rows of d cells)."""
    arr = np.asarray(cells, dtype=float)
    if arr.shape == (d * d, 2):
        pass
    elif arr.shape == (d, d, 2):
        arr = arr.reshape(d * d, 2)
    else:
        raise ValueError(
            f"{what}: expected {d * d} [re, im] cells (flat row-major or {d} rows), "
            f"got shape {arr.shape}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(d, d)


@dataclass(frozen=True)
class ChannelSpec:
    """Validated channel description as ingested from a JSON document
    {"kind": ..., "params": {...}}."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # every path to a channel constructs a spec first, so this is the
        # one type check: numbers only, in array cells too
        for name, value in self.params.items():
            check_numbers(value, f"parameter '{name}' of kind '{self.kind}'", name in _ARRAY_PARAMS)

    @classmethod
    def from_dict(cls, doc: dict, require_cptp: bool = True, build: bool = True) -> "ChannelSpec":
        """Check the document's kind and parameter names (construction
        checks their types), then, with ``build``, build the channel once so
        that range and constraint violations surface here; a caller that
        builds the channel itself passes ``build=False``."""
        if not isinstance(doc, dict):
            raise ValueError("channel spec must be a JSON object")
        kind = doc.get("kind")
        if kind not in _CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind '{kind}'; choose from {sorted(_CHANNEL_KINDS)}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        expected = set(_PARAM_NAMES[kind])
        optional = {"t3"} if kind == "affine_qubit" else set()
        given = set(params)
        if given - expected:
            raise ValueError(f"unknown parameter(s) for kind '{kind}': {sorted(given - expected)}")
        if expected - given - optional:
            raise ValueError(f"missing parameter(s) for kind '{kind}': {sorted(expected - given - optional)}")
        spec = cls(kind, dict(params))
        if build:
            spec.build(require_cptp=require_cptp)
        return spec

    def build(self, require_cptp: bool = True) -> KrausChannel:
        kind, p = self.kind, self.params
        if "dim" in _PARAM_NAMES[kind]:
            d = p["dim"]
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"{kind} dim must be an integer >= 2, got {d!r}")
        if kind == "kraus":
            ops = [_matrix_from_cells(op, d, f"operator {i}") for i, op in enumerate(p["operators"])]
            ch = KrausChannel(tuple(ops))
            if require_cptp:
                from .qcore import is_cptp

                diag = is_cptp(ch)
                if not diag:
                    raise ValueError(
                        "Kraus set is not CPTP: trace-preservation error "
                        f"{diag.trace_preservation_error:.3e}, worst Choi eigenvalue "
                        f"{diag.min_choi_eigenvalue:.3e}"
                    )
            return ch
        if kind == "pauli":
            return pauli_channel(p["px"], p["py"], p["pz"])
        if kind == "generalized_pauli":
            return pauli_family_channel(d, np.asarray(p["q"], dtype=float))
        if kind == "dephasing_axis":
            return dephasing_axis_channel(p["p"], p["theta"], p["phi"])
        if kind == "rotated_pauli":
            return rotated_pauli_channel(p["px"], p["py"], p["pz"], p["phi"])
        if kind == "vshape_qutrit":
            return vshape_qutrit_channel(p["gamma01"], p["gamma02"])
        if kind == "affine_qubit":
            return affine_to_kraus(AffineQubitChannel(**p))
        return affine_to_kraus(named_affine_params(kind, p))

    def affine(self) -> AffineQubitChannel | None:
        """Canonical affine form, for kinds that define one directly."""
        if self.kind in _AFFINE_FAMILIES:
            return named_affine_params(self.kind, self.params)
        if self.kind == "affine_qubit":
            return AffineQubitChannel(**self.params)
        return None

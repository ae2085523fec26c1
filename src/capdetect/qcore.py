"""Dense complex linear algebra and quantum primitives.

A channel is a read-only (r, d, d) stack of Kraus operators, a measurement
is an orthonormal basis of kets. Everything here is a pure function of small dense numpy
arrays; the main export is :func:`conditional_probs`, which turns a
channel plus a basis into a column-stochastic classical transition matrix.
"""

import numpy as np
from dataclasses import dataclass

from .infotheory import check_integer, check_tolerance, check_transition_stack

# Orthonormality and CPTP certification tolerance; the checks
# that take a tolerance argument can override it per call.
CERT_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# eigenbases of PAULIS: kets for eigenvalue +1, then -1
PAULI_KETS = (
    (1 / np.sqrt(2)) * np.array([[1, 1], [1, -1]], dtype=complex),
    (1 / np.sqrt(2)) * np.array([[1, 1j], [1, -1j]], dtype=complex),
    np.eye(2, dtype=complex),
)


def basis_ket(d: int, k: int) -> np.ndarray:
    """Computational basis vector |k> in dimension d."""
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete orthonormal measurement basis; ``kets[n]`` is the n-th ket.

    Orthonormality is enforced at construction (inner products must match
    the identity within ``CERT_TOL``).
    """

    label: str
    kets: np.ndarray

    def __post_init__(self):
        kets = np.array(self.kets, dtype=complex)
        if kets.ndim != 2 or kets.shape[0] != kets.shape[1] or not kets.size:
            raise ValueError(f"basis '{self.label}' must be a non-empty square array of kets (rows), "
                             f"got shape {kets.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, and fails below
            dev = np.max(np.abs(kets.conj() @ kets.T - np.eye(kets.shape[0])))
        if not dev <= CERT_TOL:  # NaN fails too
            raise ValueError(
                f"basis '{self.label}' is not orthonormal: "
                f"max |<m|n> - delta_mn| = {dev:.3e}"
            )
        kets.setflags(write=False)
        object.__setattr__(self, "kets", kets)

    @property
    def dim(self) -> int:
        return self.kets.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """Quantum channel as r Kraus operators of size d x d, given as any
    sequence of matrices and stored as one read-only complex (r, d, d) array.

    Any Kraus set is completely positive, so construction checks only shapes;
    :func:`trace_preservation_error` measures what is left to certify (the
    zoo constructors in :mod:`capdetect.channels` always preserve the trace).
    """

    operators: np.ndarray

    def __post_init__(self):
        unequal = "Kraus operators must all be square with equal dimension"
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError:  # operators of different shapes
            raise ValueError(unequal) from None
        if ops.shape[:1] == (0,):
            raise ValueError("channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(unequal)
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix: sum_k A_k rho A_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"dimension mismatch: channel dim {channel.dim}, state shape {rho.shape}"
        )
    ops = channel.operators
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi state (E ⊗ id) acting on the maximally entangled projector.

    Returned as a d^2 x d^2 Hermitian matrix with unit trace for CPTP
    channels; its eigenvalues are >= 0 exactly when E is completely positive.
    """
    d = channel.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    # one operator at a time: a broadcast outer product would hold r d^4
    # entries, and a matrix product would round the sum differently
    for a in channel.operators:
        # (A ⊗ I)|phi+> has amplitudes A[i, k]/sqrt(d) at index i*d + k
        v = a.reshape(-1) / np.sqrt(d)
        c += np.outer(v, v.conj())
    return c


@dataclass(frozen=True)
class CPTPDiagnostics:
    valid: bool
    trace_preservation_error: float
    min_choi_eigenvalue: float

    def __bool__(self) -> bool:
        return self.valid


def trace_preservation_error(channel: KrausChannel) -> float:
    """max |sum A^dag A - I|; inf or NaN, with no warning, where a product overflows."""
    ops = channel.operators
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs((ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0) - np.eye(channel.dim))))


def is_cptp(channel: KrausChannel, tol: float = CERT_TOL) -> CPTPDiagnostics:
    """Certify trace preservation and complete positivity (Choi eigenvalues >= -tol), reporting
    the worst deviations; with a non-finite trace-preservation error the eigenvalue is NaN, unsolved."""
    check_tolerance("tol", tol)
    tp_err = trace_preservation_error(channel)
    min_eig = float(np.linalg.eigvalsh(choi_matrix(channel)).min()) if np.isfinite(tp_err) else np.nan
    return CPTPDiagnostics(tp_err <= tol and min_eig >= -tol, tp_err, min_eig)


def conditional_probs(channel: KrausChannel, basis) -> np.ndarray:
    """Transition matrix p(m|n) = <m|E(|n><n|)|m> for basis preparation and
    measurement. Columns are inputs and sum to one, checked by
    :func:`check_transition_stack`, so a channel that does not preserve the
    trace of the basis states fails by row and cell or column. A sequence of
    k >= 1 bases gives their (k, d, d) stack from one matmul, bit for bit each basis's own; an
    empty list, an element that is no MeasurementBasis and a basis of another dim fail by name."""
    single = isinstance(basis, MeasurementBasis)
    bases = [basis] if single else list(basis)
    if not bases:
        raise ValueError("at least one measurement basis is required")
    for i, b in enumerate(bases, 1):
        if not isinstance(b, MeasurementBasis):
            raise ValueError(f"basis {i} must be a MeasurementBasis, got {type(b).__name__}")
        if b.dim != channel.dim:
            raise ValueError(f"dimension mismatch: channel dim {channel.dim}, basis dim {b.dim} (basis '{b.label}')")
    kets = np.stack([b.kets for b in bases])
    # entry (m, n) of K* A_k K^T is <m|A_k|n> for kets K stored as rows
    amplitudes = kets.conj() @ channel.operators[:, None] @ kets.transpose(0, 2, 1)
    t = check_transition_stack((np.abs(amplitudes) ** 2).sum(axis=0))
    return t[0] if single else t


def weyl_operator(d: int, l, s) -> np.ndarray:
    """Generalized Pauli unitary U_ls = sum_k w^(kl) |k><(k+s) mod d|; index
    arrays l and s of one shape give the stack of their U_ls."""
    l, s = np.asarray(l), np.asarray(s)
    if np.any((l < 0) | (l >= d) | (s < 0) | (s >= d)):
        raise ValueError(f"indices (l={l}, s={s}) out of range for dimension {d}")
    u = np.zeros((*l.shape, d, d), dtype=complex)
    k = np.arange(d)
    np.put_along_axis(u, ((k + s[..., None]) % d)[..., None],
                      np.exp(2j * np.pi * k * l[..., None] / d)[..., None], axis=-1)
    return u


def weyl_class(d: int, l: int, s: int) -> tuple:
    """Which of the d + 1 Weyl classes U_ls belongs to in prime d, and the
    order of its eigenvalues on that class's kets.

    U_ls^k is proportional to U_(kl, ks), so U_ls shares its eigenbasis with
    its powers: class 0 holds the diagonal U_(l,0) and class 1 + r the powers
    of U_(r,1) (Wootters & Fields, Ann. Phys. 191, 363, 1989). From
    U_(rs, s) = w^(-r s(s-1)/2) U_(r,1)^s, U_ls has the eigenvalue phase
    (s theta_m - r s(s-1)) pi/d on ket m of :func:`weyl_class_kets`.
    Returns the class and U_ls's kets as indices into those, in ascending
    eigenvalue phase. With l, s != 0 the eigenvalue 1 sorts last, as phase
    2 pi: earlier versions took this order from a numerical eigensolver,
    which rounded that eigenvalue to 1 - O(eps) i, and `bound` keeps it.
    """
    if s == 0:
        return 0, sorted(range(d), key=lambda k: k * l % d)
    r = l * pow(s, -1, d) % d
    keys = [(s * (r * (d - 1) + 2 * k) - r * s * (s - 1)) % (2 * d) for k in range(d)]
    if r:
        keys = [key or 2 * d for key in keys]
    return 1 + r, sorted(range(d), key=keys.__getitem__)


def weyl_class_kets(d: int, c: int) -> np.ndarray:
    """Kets (rows) of Weyl class c in prime d; class 0 is the computational
    basis. Class 1 + r is the eigenbasis of U_(r,1): ket m has amplitudes
    v_k = lambda^k w^(-r k(k-1)/2)/sqrt(d) for the eigenvalue
    lambda = e^(i theta_m pi/d), theta_m = r(d-1) + 2m, so its first
    amplitude is real and positive. Phases are reduced mod 2 pi exactly
    before the exponential."""
    if c == 0:
        return np.eye(d, dtype=complex)
    k = np.arange(d)
    r = c - 1
    theta = r * (d - 1) + 2 * k
    phase = (np.outer(theta, k) - r * k * (k - 1)) % (2 * d)
    return np.exp(1j * np.pi / d * phase) / np.sqrt(d)


def computational_basis(d: int, label: str = "computational") -> MeasurementBasis:
    check_integer("dimension", d, 0)
    return MeasurementBasis(label, np.eye(d, dtype=complex))

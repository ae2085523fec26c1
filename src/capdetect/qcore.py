"""Dense complex linear algebra and quantum primitives.

A channel is a list of Kraus operators, a measurement is an orthonormal
basis of kets. Everything here is a pure function of small dense numpy
arrays; the main export is :func:`conditional_probs`, which turns a
channel plus a basis into a column-stochastic classical transition matrix.
"""

import numpy as np
from dataclasses import dataclass

# Orthonormality, normality and CPTP certification tolerance; the checks
# that take a tolerance argument can override it per call.
CERT_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class DegenerateBasisError(ValueError):
    """The operator has a (near-)degenerate spectrum, so its eigenbasis is
    not unique; the caller must supply a basis explicitly."""


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def basis_ket(d: int, k: int) -> np.ndarray:
    """Computational basis vector |k> in dimension d."""
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


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
        if kets.ndim != 2 or kets.shape[0] != kets.shape[1]:
            raise ValueError("basis must be a square array of kets (rows)")
        gram = kets.conj() @ kets.T
        dev = np.max(np.abs(gram - np.eye(kets.shape[0])))
        if dev > CERT_TOL:
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
    """Quantum channel as a list of d x d Kraus operators.

    Construction only checks shapes; use :func:`is_cptp` to certify trace
    preservation and complete positivity (the zoo constructors in
    :mod:`capdetect.channels` always produce CPTP channels).
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.array(a, dtype=complex) for a in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for a in ops:
            if a.ndim != 2 or a.shape != (d, d):
                raise ValueError("Kraus operators must all be square with equal dimension")
            a.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density matrix: sum_k A_k rho A_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"dimension mismatch: channel dim {channel.dim}, state shape {rho.shape}"
        )
    out = np.zeros_like(rho)
    for a in channel.operators:
        out += a @ rho @ dagger(a)
    return out


def maximally_entangled(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_k |k>|k> in the computational product basis."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi state (E ⊗ id) acting on the maximally entangled projector.

    Returned as a d^2 x d^2 Hermitian matrix with unit trace for CPTP
    channels; its eigenvalues are >= 0 exactly when E is completely positive.
    """
    d = channel.dim
    c = np.zeros((d * d, d * d), dtype=complex)
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


def is_cptp(channel: KrausChannel, tol: float = CERT_TOL) -> CPTPDiagnostics:
    """Certify trace preservation (sum A^dag A = I) and complete positivity
    (Choi eigenvalues >= -tol), reporting the worst deviations."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = channel.dim
    acc = np.zeros((d, d), dtype=complex)
    for a in channel.operators:
        acc += dagger(a) @ a
    tp_err = float(np.max(np.abs(acc - np.eye(d))))
    min_eig = float(np.linalg.eigvalsh(choi_matrix(channel)).min())
    return CPTPDiagnostics(tp_err <= tol and min_eig >= -tol, tp_err, min_eig)


def conditional_probs(channel: KrausChannel, basis: MeasurementBasis) -> np.ndarray:
    """Transition matrix p(m|n) = <m|E(|n><n|)|m> for basis preparation and
    measurement. Columns are inputs and sum to one."""
    if channel.dim != basis.dim:
        raise ValueError(
            f"dimension mismatch: channel dim {channel.dim}, basis dim {basis.dim}"
        )
    # entry (m, n) of K* A_k K^T is <m|A_k|n> for kets K stored as rows
    kets = basis.kets
    amplitudes = kets.conj() @ np.stack(channel.operators) @ kets.T
    return np.clip((np.abs(amplitudes) ** 2).sum(axis=0), 0.0, 1.0)


def weyl_operator(d: int, l: int, s: int) -> np.ndarray:
    """Generalized Pauli unitary U_ls = sum_k w^(kl) |k><(k+s) mod d|."""
    if not (0 <= l < d and 0 <= s < d):
        raise ValueError(f"indices (l={l}, s={s}) out of range for dimension {d}")
    u = np.zeros((d, d), dtype=complex)
    k = np.arange(d)
    u[k, (k + s) % d] = np.exp(2j * np.pi * k * l / d)
    return u


def eigenbasis(
    m: np.ndarray,
    label: str = "",
    *,
    normal_tol: float = CERT_TOL,
    gap_tol: float = 1e-8,
) -> MeasurementBasis:
    """Orthonormal eigenbasis of a normal matrix with nondegenerate spectrum.

    Eigenvectors are sorted by eigenvalue phase in [0, 2pi) and each ket is
    normalized so its first significant amplitude is real positive, making
    the output deterministic for a fixed input. A (near-)degenerate spectrum
    raises :class:`DegenerateBasisError`.

    ``np.linalg.eig`` alone gives eigenvectors orthogonal only to about
    eps/gap (1.5e-9 at a gap of 1e-6), too coarse for the 1e-10 check of
    :class:`MeasurementBasis`. The Q factor of the sorted, nearly orthogonal
    eigenvectors is orthonormal to machine precision, and each of its
    columns is still an eigenvector up to a phase (residual near eps).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m @ dagger(m) - dagger(m) @ m)) > normal_tol:
        raise ValueError("matrix is not normal; it has no orthonormal eigenbasis")
    evals, vecs = np.linalg.eig(m)
    d = m.shape[0]
    if d > 1:
        gaps = np.abs(evals[:, None] - evals[None, :])[~np.eye(d, dtype=bool)]
        if gaps.min() <= gap_tol:
            raise DegenerateBasisError(
                f"degenerate basis: minimum eigenvalue gap {gaps.min():.3e}; "
                "supply a measurement basis explicitly"
            )
    phases = np.angle(evals) % (2 * np.pi)
    order = np.lexsort((evals.imag, evals.real, phases))
    kets = np.linalg.qr(vecs[:, order])[0].T
    for v in kets:
        idx = np.flatnonzero(np.abs(v) > 1e-8)[0]
        v *= v[idx].conj() / abs(v[idx])
    return MeasurementBasis(label, kets)


def computational_basis(d: int, label: str = "computational") -> MeasurementBasis:
    return MeasurementBasis(label, np.eye(d, dtype=complex))


def fourier_basis(d: int, label: str = "fourier") -> MeasurementBasis:
    """Basis with kets |n> = (1/sqrt(d)) sum_j w^(nj) |j>, w = exp(2 pi i/d)."""
    n, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    kets = np.exp(2j * np.pi * n * j / d) / np.sqrt(d)
    return MeasurementBasis(label, kets)


def random_cptp_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP channel from an orthonormalized complex Gaussian block matrix."""
    g = rng.standard_normal((d * kraus_rank, d)) + 1j * rng.standard_normal((d * kraus_rank, d))
    q, _ = np.linalg.qr(g)
    ops = [q[i * d : (i + 1) * d, :] for i in range(kraus_rank)]
    return KrausChannel(tuple(ops))


def haar_random_basis(d: int, rng: np.random.Generator, label: str = "random") -> MeasurementBasis:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return MeasurementBasis(label, q.T)

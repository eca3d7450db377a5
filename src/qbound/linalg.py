"""Dense complex-Hermitian linear algebra helpers.

Everything here works on plain ``numpy`` arrays; dimensions stay small
(d <= 8), so dense eigendecompositions are used throughout.
"""

import numpy as np

from .config import DEFAULT_NUMERICS

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def hermitize(a):
    """Project onto the Hermitian part, (A + A^H)/2, of a matrix or a stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def is_hermitian(a, tol=DEFAULT_NUMERICS.hermitian_tol):
    """Whether a square matrix, or every matrix of a stack, is Hermitian."""
    a = np.asarray(a)
    return a.ndim >= 2 and a.shape[-2] == a.shape[-1] and \
        np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))) <= tol


def check_hermitian(a, tol=DEFAULT_NUMERICS.hermitian_tol, name="matrix"):
    if not is_hermitian(a, tol):
        raise ValueError(f"{name} is not Hermitian within {tol:g}")
    return np.asarray(a, dtype=complex)


def min_eigenvalue(a):
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def psd_sqrt(a):
    """Square root of a numerically-PSD Hermitian matrix.

    Eigendecomposition with eigenvalues clipped at zero; states may be
    rank-deficient (pure states), so clipping is part of the contract.
    """
    w, v = np.linalg.eigh(hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def sym_sqrt_and_inv_sqrt(g, eig_floor=DEFAULT_NUMERICS.weight_eig_floor):
    """(G^{1/2}, G^{-1/2}) for a real symmetric positive-definite matrix or
    a stack of them."""
    g = np.asarray(g, dtype=float)
    w, v = np.linalg.eigh(0.5 * (g + np.swapaxes(g, -1, -2)))
    if np.any(w[..., 0] <= eig_floor):
        raise ValueError("matrix not positive-definite "
                         f"(min eigenvalue {np.min(w[..., 0]):.3e})")
    root = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    return (v * root) @ vt, (v / root) @ vt


def hermitian_basis(d):
    """Orthonormal basis of d x d Hermitian matrices under trace(AB), stacked
    as a (d^2, d, d) array.

    Ordering: identity/sqrt(d), then the generalized Gell-Mann family
    (symmetric pairs, antisymmetric pairs, diagonal).
    """
    return np.stack([np.eye(d, dtype=complex) / np.sqrt(d)]
                    + traceless_hermitian_basis(d))


def traceless_hermitian_basis(d):
    """The d^2 - 1 generalized Gell-Mann matrices, orthonormal and traceless."""
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1.0j / np.sqrt(2.0)
            m[j, i] = 1.0j / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag).astype(complex) / np.sqrt(k * (k + 1)))
    return mats


def haar_unitary(d, rng):
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def haar_unitaries(d, n, rng):
    """Batch of n Haar unitaries, shape (n, d, d)."""
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.einsum("nii->ni", r)
    return q * (ph / np.abs(ph))[:, None, :]


def random_hermitian(d, rng, traceless=False):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = hermitize(a)
    if traceless:
        a -= np.trace(a).real / d * np.eye(d)
    return a

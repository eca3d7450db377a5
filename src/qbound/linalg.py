"""Dense complex-Hermitian linear algebra and the ascents' step halving.

Everything here works on plain ``numpy`` arrays; dimensions stay small
(d <= 8), so dense eigendecompositions are used throughout.
"""

import numpy as np

HERMITIAN_TOL = 1e-12      # per-entry |A - A^H| of a Hermitian state
WEIGHT_EIG_FLOOR = 1e-10   # smallest admissible eigenvalue of a weight G, K or V0

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def hermitize(a):
    """Project onto the Hermitian part, (A + A^H)/2, of a matrix or a stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def check_hermitian(a, tol=HERMITIAN_TOL, name="matrix"):
    """A square matrix, or a stack, as complex; ValueError unless Hermitian."""
    a = np.asarray(a)
    if not (a.ndim >= 2 and a.shape[-2] == a.shape[-1]
            and np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))) <= tol):
        raise ValueError(f"{name} is not Hermitian within {tol:g}")
    return np.asarray(a, dtype=complex)


def psd_sqrt(a):
    """Square root of a numerically-PSD Hermitian matrix.

    Eigendecomposition with eigenvalues clipped at zero; states may be
    rank-deficient (pure states), so clipping is part of the contract.
    """
    w, v = np.linalg.eigh(hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def sym_sqrt_and_inv_sqrt(g):
    """(G^{1/2}, G^{-1/2}) for a real symmetric positive-definite matrix or
    a stack of them."""
    g = np.asarray(g, dtype=float)
    w, v = np.linalg.eigh(0.5 * (g + np.swapaxes(g, -1, -2)))
    if np.any(w[..., 0] <= WEIGHT_EIG_FLOOR):
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
    """One Haar-distributed unitary, the d x d case of :func:`haar_unitaries`."""
    return haar_unitaries(d, 1, rng)[0]


def haar_unitaries(d, n, rng):
    """Batch of n Haar unitaries, shape (n, d, d).

    The Q factor of a complex Ginibre matrix with a positive diagonal in R
    (Mezzadri, Notices AMS 54, 592 (2007)).  That Q is unique, so it is
    built by Gram-Schmidt with a second orthogonalisation pass, vectorised
    over the batch.  The scale of the Ginibre entries does not change Q.
    """
    re, im = rng.standard_normal((n, d, d)), rng.standard_normal((n, d, d))
    cols = np.empty((d, d, n), dtype=complex)  # cols[k]: column k of each
    cols.real, cols.imag = re.T, im.T
    for k in range(d):
        v = cols[k]
        for _ in range(2):
            for q in cols[:k]:
                v -= q * np.sum(q.conj() * v, axis=0)
        v /= np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=0))
    return cols.T


def random_hermitian(d, rng, traceless=False):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = hermitize(a)
    if traceless:
        a -= np.trace(a).real / d * np.eye(d)
    return a


# step halvings before an ascent counts a point as a maximum
_MAX_HALVINGS = 40


def _rise(f, x, steps, retract, loglik, live=True):
    """(f, x, rose): the first candidate retract(x + t step) whose loglik
    exceeds f, trying each step in turn with t = 1, 1/2, ... for
    _MAX_HALVINGS halvings; (f, x, False) where none does.  Points stacked
    as f (n,), x (n, p) and step rows rise one by one, with loglik taken at
    the whole stack and a point that rose or is not live left at x.  A step
    with a non-finite entry is skipped."""
    f, rose = np.asarray(f), np.zeros(np.shape(f), dtype=bool)
    for step in steps:
        trying = live & ~rose & np.all(np.isfinite(step), axis=-1)
        for _ in range(_MAX_HALVINGS):
            if not trying.any():
                break
            cand = retract(x + np.where(trying[..., None], step, 0.0))
            fc = loglik(cand)
            up = trying & (fc > f)
            f, x = np.where(up, fc, f), np.where(up[..., None], cand, x)
            rose, trying = rose | up, trying & ~up
            step = step * 0.5
    return f[()], x, rose[()]

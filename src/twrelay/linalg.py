"""Small dense linear-algebra kernels on numpy's LAPACK routines.

svd_tall fixes LAPACK's free phases by one rule: each pair of singular
vectors is turned so that V[1, 0] is real and >= 0 and V[0, 1] is real
and <= 0. model.effective builds the reduced frame in closed form under
the same rule: for pairs with a real h1^H h2 >= 0, as gen_channels draws
them, CSVs written in svd_tall's frame lift to the same A.
No routine here has a caller in the package; they stay only because the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidInputError


def eig_sym(S: np.ndarray, tol: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Args:
        S: n x n real symmetric matrix.
        tol: symmetry check threshold, relative to the magnitude of S.

    Returns:
        (w, V) with eigenvalues w sorted descending and orthonormal
        eigenvector columns V, so that S = V diag(w) V^T.

    Raises:
        InvalidInputError: if S is not symmetric within tol.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError("eig_sym expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(S))))
    if float(np.max(np.abs(S - S.T))) > tol * scale:
        raise InvalidInputError("eig_sym expects a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return w[::-1], V[:, ::-1]


def eig_herm2(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a 2x2 complex Hermitian matrix.

    Returns (w, V) with w descending and V unitary: H = V diag(w) V^H.
    """
    w, V = np.linalg.eigh(H)
    return w[::-1], V[:, ::-1]


def svd_tall(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of an M x 2 complex matrix under the module's phase rule.

    Args:
        H: M x 2 complex matrix, M >= 2.

    Returns:
        (U, sigma, V): U is M x 2 with orthonormal columns, sigma the
        descending pair of singular values, V a 2x2 unitary with V[1, 0]
        real >= 0 and V[0, 1] real <= 0 (a column whose entry is exactly
        0 keeps LAPACK's phase), and U diag(sigma) V^H reconstructs H.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[1] != 2 or H.shape[0] < 2:
        raise InvalidInputError("svd_tall expects an M x 2 matrix with M >= 2")
    U, sigma, Vh = np.linalg.svd(H, full_matrices=False)
    V = Vh.conj().T
    for k, pivot in enumerate((V[1, 0], -V[0, 1])):
        if pivot != 0:
            phase = pivot.conjugate() / abs(pivot)
            U[:, k] *= phase
            V[:, k] *= phase
    return U, sigma, V


def herm_sqrt_2x2(H: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a 2x2 Hermitian PSD matrix."""
    w, V = eig_herm2(H)
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)) @ V.conj().T

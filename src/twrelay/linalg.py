"""Small dense linear-algebra kernel.

Everything in this package works with matrices that are either 2x2, M x 2
with M <= 8-ish, or 8x8, so the routines here are written for that regime:
a closed-form 2x2 Hermitian eigensolver and a tall-matrix SVD built on
the 2x2 Gram matrix. Two routines have no caller in the package but
stay because the benchmark's tracer wraps them by name: the
cyclic-Jacobi symmetric eigensolver eig_sym (the SDP solver uses
numpy's eigh) and the 2x2 Hermitian square root herm_sqrt_2x2 (the
power-min build no longer forms a square root of its power matrix).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidInputError


def eig_sym(S: np.ndarray, tol: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi sweeps.

    Args:
        S: n x n real symmetric matrix.
        tol: symmetry check threshold and convergence target, relative to
            the magnitude of S.

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

    n = S.shape[0]
    A = 0.5 * (S + S.T)
    V = np.eye(n)
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return np.zeros(n), V
    thresh = max(tol, 1e-15) * fro

    for _ in range(60):  # sweep cap; 8x8 converges in a handful of sweeps
        # measure the off-diagonal mass directly: the difference-of-squares
        # form cancels catastrophically near convergence
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # rotation angle zeroing A[p,q]
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q

    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


def eig_herm2(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 complex Hermitian matrix.

    Returns (w, V) with w descending and V unitary: H = V diag(w) V^H.
    """
    a = float(np.real(H[0, 0]))
    d = float(np.real(H[1, 1]))
    b = complex(H[0, 1])
    m = 0.5 * (a + d)
    half = 0.5 * (a - d)
    radius = np.sqrt(max(0.0, half**2 + abs(b) ** 2))
    w1, w2 = m + radius, m - radius
    if abs(b) < 1e-300 * max(1.0, abs(a), abs(d)):
        if a >= d:
            return np.array([a, d]), np.eye(2, dtype=complex)
        return np.array([d, a]), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # w1 - a = radius - half cancels when |b| << half; the conjugate form
    # |b|^2 / (radius + half) does not
    gap = abs(b) ** 2 / (radius + half) if half > 0.0 else radius - half
    v1 = np.array([b, gap], dtype=complex)
    v1 /= np.linalg.norm(v1)
    # exact orthonormal complement keeps V unitary to rounding
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])], dtype=complex)
    V = np.column_stack([v1, v2])
    return np.array([w1, w2]), V


def svd_tall(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of an M x 2 complex matrix via its 2x2 Gram matrix.

    The right factor comes from the closed-form eigendecomposition of
    H^H H; left columns are H v_i renormalized, with a Gram-Schmidt pass
    (and a deflation branch when sigma_2 vanishes) so that U stays an
    isometry even for nearly parallel columns.

    Args:
        H: M x 2 complex matrix, M >= 2.

    Returns:
        (U, sigma, V): U is M x 2 with orthonormal columns, sigma the
        descending pair of singular values, V a 2x2 unitary, and
        U diag(sigma) V^H reconstructs H.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[1] != 2 or H.shape[0] < 2:
        raise InvalidInputError("svd_tall expects an M x 2 matrix with M >= 2")
    gram = H.conj().T @ H
    _, V = eig_herm2(gram)

    u1 = H @ V[:, 0]
    s1 = float(np.linalg.norm(u1))
    if s1 <= 1e-300:
        # zero matrix: any orthonormal pair works
        U = np.zeros((H.shape[0], 2), dtype=complex)
        U[0, 0] = 1.0
        U[1, 1] = 1.0
        return U, np.zeros(2), V
    u1 = u1 / s1

    u2 = H @ V[:, 1]
    s2 = float(np.linalg.norm(u2))
    if s2 > 1e-9 * s1:
        u2 = u2 / s2
        # one re-orthonormalization step; the Gram route loses orthogonality
        # of order eps*s1/s2 otherwise
        u2 = u2 - u1 * (u1.conj() @ u2)
        nrm = float(np.linalg.norm(u2))
        if nrm > 1e-6:
            u2 = u2 / nrm
        else:
            u2 = _orth_complement(u1)
    else:
        u2 = _orth_complement(u1)

    U = np.column_stack([u1, u2])
    sigma = np.array([s1, s2])
    return U, sigma, V


def _orth_complement(u1: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to u1 (deflation branch of svd_tall)."""
    k = int(np.argmin(np.abs(u1)))
    e = np.zeros(u1.shape[0], dtype=complex)
    e[k] = 1.0
    v = e - u1 * np.conj(u1[k])
    return v / np.linalg.norm(v)


def herm_sqrt_2x2(H: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a 2x2 Hermitian PSD matrix."""
    w, V = eig_herm2(H)
    w = np.maximum(w, 0.0)
    return (V * np.sqrt(w)) @ V.conj().T

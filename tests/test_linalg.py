"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay.errors import InvalidInputError
from twrelay.linalg import eig_herm2, eig_sym, herm_sqrt_2x2, svd_tall
from twrelay.model import gen_channels


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEigSym:
    def test_diagonal(self):
        w, V = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_exchange_matrix(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, V = eig_sym(S)
        assert np.allclose(w, [1.0, -1.0])
        ref = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(V), ref * np.ones((2, 2)))

    def test_reconstruction_descending(self, rng):
        for _ in range(20):
            X = rng.standard_normal((8, 8))
            S = X + X.T
            w, V = eig_sym(S)
            assert np.all(np.diff(w) <= 1e-12)
            err = np.max(np.abs((V * w) @ V.T - S))
            assert err <= 10 * 1e-12 * np.max(np.abs(S))
            assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-11

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInputError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_psd_input_stays_nonnegative(self, rng):
        X = rng.standard_normal((6, 3))
        w, _ = eig_sym(X @ X.T)
        assert np.all(w >= -1e-10)


class TestEigHerm2:
    def test_hand_case(self):
        H = np.array([[2.0, 1j], [-1j, 2.0]])
        w, V = eig_herm2(H)
        assert np.allclose(w, [3.0, 1.0])
        rec = (V * w) @ V.conj().T
        assert np.allclose(rec, H, atol=1e-14)

    def test_random_hermitian(self, rng):
        for _ in range(50):
            X = random_complex(rng, 2, 2)
            H = X + X.conj().T
            w, V = eig_herm2(H)
            assert w[0] >= w[1]
            assert np.allclose((V * w) @ V.conj().T, H, atol=1e-12)
            assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-13)

    def test_weak_coupling_keeps_eigenvectors(self):
        # |b| = 1e-9 (a - d): the top eigenvector's second entry is
        # |b|^2 / (a - d) to first order, far below rounding of a - d
        a, d = 2.0, 1.0
        b = 1e-9 * (a - d) * np.exp(0.3j)
        H = np.array([[a, b], [np.conj(b), d]])
        w, V = eig_herm2(H)
        for k in range(2):
            assert np.linalg.norm(H @ V[:, k] - w[k] * V[:, k]) <= 1e-15 * a
        assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= 1e-15


class TestSvdTall:
    def test_orthonormal_columns_input(self):
        H = np.eye(3, 2, dtype=complex)
        U, s, V = svd_tall(H)
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(np.abs(U), np.eye(3, 2))
        assert np.allclose(np.abs(V), np.eye(2))

    def test_parallel_columns(self):
        h = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        H = np.column_stack([h, 2.0 * h])
        U, s, V = svd_tall(H)
        assert s[1] <= 1e-12 * s[0]
        assert np.allclose((U * s) @ V.conj().T, H, atol=1e-12)

    def test_random_reconstruction(self, rng):
        for _ in range(50):
            H = random_complex(rng, 4, 2)
            U, s, V = svd_tall(H)
            assert s[0] >= s[1] >= 0.0
            rel = np.linalg.norm((U * s) @ V.conj().T - H) / np.linalg.norm(H)
            assert rel <= 1e-10
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-12
            assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= 1e-12

    def test_singular_values_match_gram_eigenvalues(self, rng):
        H = random_complex(rng, 5, 2)
        _, s, _ = svd_tall(H)
        w, _ = eig_herm2(H.conj().T @ H)
        assert np.allclose(s**2, w, atol=1e-9)

    def test_near_parallel_keeps_orthonormal_frame(self, rng):
        h = random_complex(rng, 4)
        h = h / np.linalg.norm(h)
        g = random_complex(rng, 4)
        g = g - h * (h.conj() @ g)
        g = g / np.linalg.norm(g)
        H = np.column_stack([h, h + 1e-7 * g])
        U, s, V = svd_tall(H)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-12
        rel = np.linalg.norm((U * s) @ V.conj().T - H) / np.linalg.norm(H)
        assert rel <= 1e-10

    def test_unnormalized_uncorrelated_pair(self):
        # orthogonal columns of unequal norm: the Gram off-diagonal is
        # rounding noise, about 1e-15 times the diagonal gap
        pair = gen_channels(2, 0.0, 104, normalize=False)
        H = np.column_stack([pair.h1, pair.h2])
        U, s, V = svd_tall(H)
        assert s[0] >= s[1]
        assert np.linalg.norm((U * s) @ V.conj().T - H) <= 1e-12 * np.linalg.norm(H)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_phase_rule_on_seeded_corpus(self, m, normalize):
        for rho in (0.1, 0.5, 0.9, 0.99):
            for seed in range(5):
                pair = gen_channels(m, rho, seed, normalize=normalize)
                H = np.column_stack([pair.h1, pair.h2])
                U, s, V = svd_tall(H)
                # real to rounding: the phase is applied in floating point
                assert abs(V[1, 0].imag) <= 1e-15 and V[1, 0].real >= 0.0
                assert abs(V[0, 1].imag) <= 1e-15 and V[0, 1].real <= 0.0
                assert s[0] >= s[1] >= 0.0
                rel = np.linalg.norm((U * s) @ V.conj().T - H) / np.linalg.norm(H)
                assert rel <= 1e-12
                assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-14
                assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= 1e-14

    @pytest.mark.parametrize("live", [[], [0], [1]])
    def test_zero_columns_keep_orthonormal_frame(self, rng, live):
        H = np.zeros((4, 2), dtype=complex)
        for k in live:
            H[:, k] = random_complex(rng, 4)
        U, s, V = svd_tall(H)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-15
        assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= 1e-15
        assert np.linalg.norm((U * s) @ V.conj().T - H) <= 1e-15 * max(1.0, np.linalg.norm(H))
        assert s[1] == 0.0

    def test_rejects_wide(self):
        with pytest.raises(InvalidInputError):
            svd_tall(np.zeros((1, 2), dtype=complex))


class TestHermSqrt:
    def test_random_psd(self, rng):
        for _ in range(20):
            X = random_complex(rng, 2, 2)
            H = X @ X.conj().T
            R = herm_sqrt_2x2(H)
            assert np.allclose(R @ R, H, atol=1e-11)
            assert np.allclose(R, R.conj().T, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_svd_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    U, s, V = svd_tall(H)
    assert np.linalg.norm((U * s) @ V.conj().T - H) <= 1e-10 * max(1.0, s[0])
    assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
    assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

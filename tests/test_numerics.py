import numpy as np
import pytest

from skewbounds.errors import NotHermitianError, NotPSDError
from skewbounds.numerics import (
    _fix_column_phases,
    as_complex_matrix,
    clamp_psd_spectrum,
    commutator,
    herm_eig,
    hermiticity_residual,
    hs_inner,
    mat_pow,
    psd_sqrt_factor,
    require_hermitian,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def random_hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2.0


def test_as_complex_matrix_accepts_lists():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_complex_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_complex_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])


def test_hermiticity_residual_zero_for_hermitian():
    assert hermiticity_residual(SX) == 0.0
    assert hermiticity_residual(np.array([[0, 1j], [1j, 0]])) == 2.0


def test_require_hermitian_raises():
    with pytest.raises(NotHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    require_hermitian(SY)


def test_herm_eig_descending_and_reconstructs():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        m = random_hermitian(rng, dim)
        eig = herm_eig(m)
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)
        assert np.allclose(eig.reconstruct(), m, atol=1e-12)


def test_herm_eig_pauli_x_oracle():
    eig = herm_eig(SX)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-14)
    # phase convention pins the largest-modulus entry real positive
    assert np.allclose(eig.eigenvectors, [[s, s], [s, -s]], atol=1e-14)


def reference_fix_column_phases(u):
    """The per-column loop the vectorized phase fix must match bit for bit."""
    u = np.array(u, copy=True)
    for col in range(u.shape[1]):
        v = u[:, col]
        j = int(np.argmax(np.abs(v)))
        pivot = v[j]
        mag = abs(pivot)
        if mag > 0.0:
            u[:, col] = v * (pivot.conjugate() / mag)
            u[j, col] = mag
    return u


def test_fix_column_phases_matches_loop_bitwise():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 9, 16, 36, 144):
        for kind in ("complex", "real", "unitary", "zero_columns"):
            u = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if kind == "real":
                u = u.real.astype(np.complex128)
            elif kind == "unitary":
                u = np.linalg.qr(u)[0]
            elif kind == "zero_columns":
                u[:, rng.integers(n)] = 0.0
                u[:, 0] = -0.0
            out = _fix_column_phases(u)
            assert out.tobytes() == reference_fix_column_phases(u).tobytes(), (n, kind)


def test_fix_column_phases_ties_and_zero_columns():
    u = np.array(
        [[3j, 0.0, -2.0], [-3.0, 0.0, 2j], [1.0, 0.0, 1.0]], dtype=np.complex128
    )
    out = _fix_column_phases(u)
    assert out.tobytes() == reference_fix_column_phases(u).tobytes()
    # the first of the tied largest entries is the one made real positive
    assert out[0, 0] == 3.0 and out[1, 0] == 3j
    assert out[0, 2] == 2.0 and out[1, 2] == -2j
    # a zero column, including the sign of its zeros, is left as it was
    assert np.array_equal(out[:, 1], u[:, 1])
    neg = np.full((2, 1), -0.0, dtype=np.complex128)
    assert np.signbit(_fix_column_phases(neg).real).all()


def test_herm_eig_deterministic_bits():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 3)
    e1 = herm_eig(m)
    e2 = herm_eig(m)
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)


def test_herm_eig_output_readonly():
    eig = herm_eig(SZ)
    with pytest.raises(ValueError):
        eig.eigenvalues[0] = 5.0


def test_clamp_psd_spectrum():
    w = np.array([1.0, -1e-10, 0.5])
    clamped = clamp_psd_spectrum(w)
    assert clamped[1] == 0.0
    assert clamped[0] == 1.0
    with pytest.raises(NotPSDError):
        clamp_psd_spectrum(np.array([1.0, -1e-3]))


def test_mat_pow_identity_exponent_copies():
    m = np.diag([0.25, 0.75]).astype(np.complex128)
    out = mat_pow(m, 1.0)
    assert np.array_equal(out, m)
    assert out is not m


def test_mat_pow_diagonal_oracle():
    m = np.diag([0.25, 0.75]).astype(np.complex128)
    out = mat_pow(m, 0.5)
    assert np.allclose(np.diag(out), [0.5, np.sqrt(0.75)], atol=1e-14)


def test_mat_pow_splits_multiply_back():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for p in (0.2, 0.5, 0.8):
        assert np.allclose(mat_pow(rho, p) @ mat_pow(rho, 1.0 - p), rho, atol=1e-12)


def test_commutator_oracles():
    assert np.allclose(commutator(SX, SY), 2j * SZ, atol=1e-14)
    assert np.allclose(commutator(SZ, SZ), np.zeros((2, 2)), atol=0)


def test_hs_inner_matches_trace():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert hs_inner(a, b) == pytest.approx(complex(np.trace(a.conj().T @ b)), abs=1e-12)


def test_psd_sqrt_factor_reconstructs():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = g @ g.conj().T
    c = psd_sqrt_factor(psd)
    assert np.allclose(c.conj().T @ c, psd, atol=1e-10 * (1 + np.abs(psd).max()))


def test_psd_sqrt_factor_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt_factor(np.diag([1.0, -1.0]).astype(np.complex128))

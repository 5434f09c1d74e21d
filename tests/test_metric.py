from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_observable, random_p
from skewbounds import (
    BlochNormExceededError,
    DimensionMismatchError,
    MetricParam,
    NotNormalizedError,
    NotPSDError,
    TraceNotOneError,
    as_metric_param,
    bloch_state,
    correlation,
    correlation_quadratic,
    gamma_matrix,
    pure_state,
    sampled_coords,
    skew_info_direct,
    skew_info_quadratic,
    validate_density,
    validate_observable,
    variance,
    wyd_kernel,
)
from skewbounds import metric, numerics
from skewbounds.errors import CrossCheckError, NotHermitianError
from skewbounds.metric import CROSS_CHECK_TOL, PAULI_X, PAULI_Y, PAULI_Z
from skewbounds.numerics import mat_pow

# I(diag(3/4, 1/4), sigma_x, p=1/2) worked out by hand from the kernel sum
QUBIT_SKEW_ORACLE = 0.13397459621556132
KERNEL_ORACLE = 0.06698729810778066


def test_metric_param_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            MetricParam(bad)
    assert as_metric_param(0.5).p == 0.5
    mp = MetricParam(0.25)
    assert as_metric_param(mp) is mp


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=10.0),
    y=st.floats(min_value=0.0, max_value=10.0),
    p=st.floats(min_value=0.01, max_value=0.99),
)
def test_kernel_symmetries(x, y, p):
    """h is symmetric in its arguments and under p -> 1-p, and vanishes on the diagonal."""
    assert wyd_kernel(x, y, p) == wyd_kernel(y, x, p)
    assert wyd_kernel(x, y, p) == pytest.approx(wyd_kernel(x, y, 1.0 - p), abs=1e-12)
    assert wyd_kernel(x, x, p) == 0.0
    assert wyd_kernel(x, y, p) >= 0.0


def test_kernel_frozen_value():
    assert wyd_kernel(0.75, 0.25, 0.5) == pytest.approx(KERNEL_ORACLE, abs=1e-15)


def test_kernel_rejects_negative_arguments():
    with pytest.raises(ValueError):
        wyd_kernel(-0.1, 0.5, 0.5)


def test_validate_density_failure_modes():
    with pytest.raises(NotHermitianError):
        validate_density([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(TraceNotOneError):
        validate_density(np.diag([0.9, 0.9]))
    with pytest.raises(NotPSDError):
        validate_density(np.diag([1.5, -0.5]))


def test_bloch_state_oracles():
    assert np.allclose(bloch_state([0, 0, 1]).matrix, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(bloch_state([0, 0, 0]).matrix, np.eye(2) / 2, atol=1e-15)
    with pytest.raises(BlochNormExceededError):
        bloch_state([0.8, 0.8, 0.0])


def test_pure_state_projector():
    psi = pure_state([1.0, 1.0j], normalize=True)
    m = psi.matrix
    assert np.allclose(m @ m, m, atol=1e-12)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotNormalizedError):
        pure_state([1.0, 1.0])


def test_gamma_diagonal_oracle():
    rho = validate_density(np.diag([0.75, 0.25]))
    gf = gamma_matrix(rho, 0.5)
    assert np.allclose(np.diag(gf.gamma).real, [0.0, KERNEL_ORACLE, KERNEL_ORACLE, 0.0], atol=1e-12)


def test_gamma_is_hermitian_psd_and_factored():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        gf = gamma_matrix(rho, random_p(rng))
        g = gf.gamma
        scale = 1.0 + float(np.abs(g).max())
        assert float(np.abs(g - g.conj().T).max()) < 1e-9 * scale
        w = np.linalg.eigvalsh(g)
        assert float(w.min()) >= -1e-8 * scale
        c = gf.factor_c
        assert float(np.abs(c.conj().T @ c - g).max()) < 1e-9 * scale


def reference_gamma_by_commutators(rho, p):
    """Entry (ij),(kl) = -1/2 Tr([rho^p, E_ji] [rho^(1-p), E_kl]), one basis matrix at a time."""
    d = rho.dim
    n = d * d
    rp = mat_pow(rho.matrix, p)
    rq = mat_pow(rho.matrix, 1.0 - p)
    comm_p = np.empty((n, d, d), dtype=np.complex128)
    comm_q = np.empty((n, d, d), dtype=np.complex128)
    basis = np.zeros((d, d), dtype=np.complex128)
    for a, (i, j) in enumerate(iter_product(range(d), range(d))):
        basis[j, i] = 1.0
        comm_p[a] = rp @ basis - basis @ rp
        basis[j, i] = 0.0
        basis[i, j] = 1.0
        comm_q[a] = rq @ basis - basis @ rq
        basis[i, j] = 0.0
    return -0.5 * np.einsum("aij,bji->ab", comm_p, comm_q)


def test_closed_form_commutator_gamma_matches_reference():
    rng = np.random.default_rng(91)
    for dim in range(1, 7):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for rho in (random_density(rng, dim), pure_state(v, normalize=True)):
            for p in (1e-3, 0.05, 0.5, random_p(rng), 0.95, 1.0 - 1e-3):
                ref = reference_gamma_by_commutators(rho, p)
                spectrum = metric._spectrum(rho)
                closed = metric._gamma_by_commutators(*metric._power_pair(rho, spectrum, p))
                scale = 1.0 + float(np.abs(ref).max())
                assert float(np.abs(closed - ref).max()) <= 1e-13 * scale, (dim, p)


def test_cross_check_raises_on_disagreement(monkeypatch):
    # rho is diagonal, so Gamma is diagonal with entries h(lam_i, lam_j) and
    # moving the (01),(10) entry and its mirror keeps it Hermitian and PSD.
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    kernel = metric._gamma_by_kernel

    def moved_entry(*args):
        gamma = kernel(*args)
        shift = 1e-6 * (1.0 + float(np.abs(gamma).max()))
        gamma[1, 3] += shift
        gamma[3, 1] += shift
        return gamma

    monkeypatch.setattr(metric, "_gamma_by_kernel", moved_entry)
    assert 1e-6 > CROSS_CHECK_TOL
    with pytest.raises(CrossCheckError):
        gamma_matrix(rho, 0.3)
    gf = gamma_matrix(rho, 0.3, cross_check=False)
    assert gf.gamma[1, 3] != 0.0


def test_cross_check_leaves_outputs_bitwise():
    rng = np.random.default_rng(95)
    for dim in (2, 3, 5):
        rho = random_density(rng, dim)
        p = random_p(rng)
        checked = gamma_matrix(rho, p, cross_check=True)
        unchecked = gamma_matrix(rho, p, cross_check=False)
        assert checked.gamma.tobytes() == unchecked.gamma.tobytes()
        assert checked.factor_c.tobytes() == unchecked.factor_c.tobytes()


def test_gamma_build_decomposes_rho_once(monkeypatch):
    calls = []
    herm_eig = numerics.herm_eig

    def spy(m, *args, **kwargs):
        calls.append(np.asarray(m).shape[0])
        return herm_eig(m, *args, **kwargs)

    rho = random_density(np.random.default_rng(97), 3)
    obs = random_observable(np.random.default_rng(98), 3)
    monkeypatch.setattr(numerics, "herm_eig", spy)
    monkeypatch.setattr(metric, "herm_eig", spy)
    gamma_matrix(rho, 0.4, cross_check=True)
    assert calls == [3, 9]  # rho, then Gamma in psd_sqrt_factor
    calls.clear()
    skew_info_direct(rho, obs, 0.4)
    correlation(rho, obs, obs, 0.4)
    assert calls == [3, 3]


def test_gamma_fingerprint_tracks_inputs():
    rho = validate_density(np.diag([0.75, 0.25]))
    a = gamma_matrix(rho, 0.5)
    b = gamma_matrix(rho, 0.5)
    c = gamma_matrix(rho, 0.25)
    assert a.state_fingerprint == b.state_fingerprint
    assert a.state_fingerprint != c.state_fingerprint


def test_skew_info_routes_agree():
    rng = np.random.default_rng(33)
    for _ in range(25):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        obs = random_observable(rng, dim)
        p = random_p(rng)
        direct = skew_info_direct(rho, obs, p)
        quad = skew_info_quadratic(gamma_matrix(rho, p), obs)
        assert quad == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_skew_info_frozen_qubit_value():
    rho = validate_density(np.diag([0.75, 0.25]))
    obs = validate_observable(PAULI_X)
    assert skew_info_direct(rho, obs, 0.5) == pytest.approx(QUBIT_SKEW_ORACLE, abs=1e-14)
    assert skew_info_quadratic(gamma_matrix(rho, 0.5), obs) == pytest.approx(QUBIT_SKEW_ORACLE, abs=1e-12)


def test_skew_info_below_variance_at_half():
    # the comparison with variance is asserted only for the symmetric parameter
    rng = np.random.default_rng(41)
    for _ in range(30):
        rho = random_density(rng, 2)
        obs = random_observable(rng, 2)
        assert skew_info_direct(rho, obs, 0.5) <= variance(rho, obs) + 1e-10


def test_pure_state_skew_equals_variance():
    rng = np.random.default_rng(55)
    for _ in range(10):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = pure_state(v, normalize=True)
        obs = random_observable(rng, 3)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert skew_info_direct(psi, obs, p) == pytest.approx(variance(psi, obs), rel=1e-9, abs=1e-9)


def test_skew_info_vanishes_when_commuting():
    rho = validate_density(np.diag([0.6, 0.4]))
    obs = validate_observable(PAULI_Z)
    assert skew_info_direct(rho, obs, 0.3) == pytest.approx(0.0, abs=1e-14)


def test_correlation_diagonal_and_conjugate_symmetry():
    rng = np.random.default_rng(61)
    rho = random_density(rng, 3)
    a = random_observable(rng, 3, "A")
    b = random_observable(rng, 3, "B")
    p = 0.35
    caa = correlation(rho, a, a, p)
    assert caa.imag == pytest.approx(0.0, abs=1e-12)
    assert caa.real == pytest.approx(skew_info_direct(rho, a, p), abs=1e-12)
    cab = correlation(rho, a, b, p)
    cba = correlation(rho, b, a, p)
    assert cab == pytest.approx(np.conj(cba), abs=1e-12)
    gf = gamma_matrix(rho, p)
    assert correlation_quadratic(gf, a, b) == pytest.approx(cab, abs=1e-10)


def test_sampled_coords_recover_skew_info():
    rng = np.random.default_rng(77)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        obs = random_observable(rng, dim)
        gf = gamma_matrix(rho, random_p(rng))
        x = sampled_coords(gf, obs)
        assert np.all(x >= 0.0)
        assert float(x @ x) == pytest.approx(skew_info_quadratic(gf, obs), rel=1e-9, abs=1e-12)


def test_dimension_mismatch_raises():
    rho = validate_density(np.diag([0.75, 0.25]))
    obs3 = validate_observable(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(DimensionMismatchError):
        skew_info_direct(rho, obs3, 0.5)
    gf = gamma_matrix(rho, 0.5)
    with pytest.raises(DimensionMismatchError):
        sampled_coords(gf, obs3)


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=1e-15)

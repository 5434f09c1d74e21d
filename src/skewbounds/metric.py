"""One-parameter family of metric-adjusted skew informations.

For a density matrix rho and Hermitian observable A the skew information at
parameter p in (0, 1) is

    I_rho(A) = -1/2 Tr([rho^p, A] [rho^(1-p), A]),

which reduces to the variance on pure states and, at p = 1/2, to the
classic Wigner-Yanase quantity.  The same quadratic form is carried by a
Gram matrix Gamma on vectorized observables, I_rho(A) = vecA^dag Gamma vecA,
whose entries in the eigenbasis of rho are given by the scalar kernel

    h(x, y) = (x^p - y^p) (x^(1-p) - y^(1-p)) / 2.

Gamma is built both ways from one eigendecomposition of rho and the two
constructions are cross-checked.  The commutator side expands the trace on
basis matrices E_ij in closed form: with rp = rho^p and rq = rho^(1-p),

    Gamma_comm[(ij),(kl)] = -1/2 [rq_ik rp_lj + rp_ik rq_lj
                                  - delta_ik (rq rp)_lj - delta_jl (rp rq)_ik],

an O(d^4) build, below the O(d^6) of the kernel side.  A canonical
positive-semidefinite factor C with C^dag C = Gamma supplies the
nonnegative "sampled" coordinate vectors consumed by the bound modules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BlochNormExceededError,
    CrossCheckError,
    DimensionMismatchError,
    NotNormalizedError,
    NotPSDError,
    TraceNotOneError,
)
from .numerics import (
    HERMITICITY_TOL,
    as_complex_matrix,
    clamp_psd_spectrum,
    commutator,
    herm_eig,
    psd_sqrt_factor,
    require_hermitian,
)

DENSITY_TRACE_TOL = 1e-9
DENSITY_PSD_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix (Hermitian, unit trace, PSD)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """A validated Hermitian observable with a display name."""

    matrix: np.ndarray
    name: str = "A"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MetricParam:
    """Skew information parameter, strictly inside (0, 1)."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"metric parameter p must lie strictly in (0, 1), got {self.p}")


def as_metric_param(p) -> MetricParam:
    return p if isinstance(p, MetricParam) else MetricParam(float(p))


@dataclass(frozen=True, eq=False)
class GammaFactorization:
    """Gram matrix of the skew-information form together with its factor.

    gamma is d^2 x d^2 Hermitian PSD over row-major vectorized observables;
    factor_c satisfies C^dag C = gamma with rows ordered by descending
    eigenvalue of gamma.  state_fingerprint ties the object back to the
    density matrix and p it was built from.
    """

    gamma: np.ndarray
    factor_c: np.ndarray
    p: MetricParam
    state_fingerprint: str

    @property
    def dim(self) -> int:
        n = self.gamma.shape[0]
        d = int(round(n**0.5))
        return d


def validate_density(m, tol: float = DENSITY_TRACE_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, in that order."""
    a = as_complex_matrix(m)
    require_hermitian(a, tol)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise TraceNotOneError(f"trace {tr:.12g} differs from 1 by more than {tol:.1e}")
    eig = herm_eig(a, tol)
    wmin = float(np.min(eig.eigenvalues))
    if wmin < -DENSITY_PSD_TOL:
        raise NotPSDError(f"density matrix has eigenvalue {wmin:.6e} < -{DENSITY_PSD_TOL:.1e}")
    return DensityMatrix(matrix=_frozen(a))


def validate_observable(m, name: str = "A", tol: float = HERMITICITY_TOL) -> Observable:
    a = as_complex_matrix(m)
    require_hermitian(a, tol)
    return Observable(matrix=_frozen(a), name=name)


def bloch_state(r: Sequence[float]) -> DensityMatrix:
    """Qubit state (I + r . sigma) / 2 for a Bloch vector inside the ball."""
    rv = np.asarray(r, dtype=np.float64)
    if rv.shape != (3,):
        raise ValueError(f"Bloch vector must have three real components, got shape {rv.shape}")
    norm = float(np.linalg.norm(rv))
    if norm > 1.0 + 1e-12:
        raise BlochNormExceededError(f"Bloch vector norm {norm:.12g} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=np.complex128) + rv[0] * PAULI_X + rv[1] * PAULI_Y + rv[2] * PAULI_Z)
    return DensityMatrix(matrix=_frozen(m))


def pure_state(amplitudes: Sequence[complex], normalize: bool = False) -> DensityMatrix:
    """Rank-one projector |psi><psi| from a state vector."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    if psi.ndim != 1 or psi.shape[0] < 1:
        raise ValueError(f"amplitudes must form a nonempty vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if normalize:
        if norm == 0.0:
            raise NotNormalizedError("cannot normalize the zero vector")
        psi = psi / norm
    elif abs(norm - 1.0) > 1e-9:
        raise NotNormalizedError(f"state vector norm {norm:.12g} differs from 1")
    return DensityMatrix(matrix=_frozen(np.outer(psi, psi.conj())))


def vec_coords(obs: Observable | np.ndarray) -> np.ndarray:
    """Row-major vectorization; entry d*(i-1)+j (1-based) is A[i, j]."""
    a = obs.matrix if isinstance(obs, Observable) else as_complex_matrix(obs)
    return a.reshape(-1).copy()


def wyd_kernel(x: float, y: float, p) -> float:
    """Scalar kernel h(x, y) = (x^p - y^p)(x^(1-p) - y^(1-p)) / 2.

    Finite everywhere on [0, inf)^2, zero on the diagonal and at the origin,
    symmetric in (x, y) and invariant under p -> 1-p.
    """
    pp = as_metric_param(p).p
    if x < 0.0 or y < 0.0:
        raise ValueError(f"kernel arguments must be nonnegative, got ({x}, {y})")
    return 0.5 * (x**pp - y**pp) * (x ** (1.0 - pp) - y ** (1.0 - pp))


def _kernel_matrix(lam: np.ndarray, p: float) -> np.ndarray:
    a = lam**p
    b = lam ** (1.0 - p)
    return 0.5 * np.subtract.outer(a, a) * np.subtract.outer(b, b)


def _spectrum(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Clamped eigenvalues and canonical eigenvectors of rho, from one herm_eig."""
    eig = herm_eig(rho.matrix)
    return clamp_psd_spectrum(eig.eigenvalues), eig.eigenvectors


def _power_pair(
    rho: DensityMatrix, spectrum: tuple[np.ndarray, np.ndarray], p: float
) -> tuple[np.ndarray, np.ndarray]:
    """rho^p and rho^(1-p) from one spectrum, with the bits of mat_pow."""
    lam, u = spectrum
    uh = u.conj().T

    def power(e: float) -> np.ndarray:
        return rho.matrix if e == 1.0 else (u * lam**e) @ uh

    return power(p), power(1.0 - p)


def _gamma_by_kernel(spectrum: tuple[np.ndarray, np.ndarray], p: float) -> np.ndarray:
    # vec(U^dag A U) = T vec(A) with T = kron(U^dag, U^T) for row-major vec,
    # so the quadratic form sum_ij h(lam_i, lam_j) |(U^dag A U)_ij|^2 is
    # carried by Gamma = T^dag diag(h) T.
    lam, u = spectrum
    h = _kernel_matrix(lam, p).reshape(-1)
    t = np.kron(u.conj().T, u.T)
    gamma = t.conj().T @ (h[:, None] * t)
    return 0.5 * (gamma + gamma.conj().T)


def _gamma_by_commutators(rp: np.ndarray, rq: np.ndarray) -> np.ndarray:
    # Entry (ij),(kl) is -1/2 Tr([rho^p, E_ji] [rho^(1-p), E_kl]) where the
    # row index pairs with the adjoint basis element E_ij^dag = E_ji.  The
    # four terms of the trace expand to
    #   rq_ik rp_lj + rp_ik rq_lj - delta_ik (rq rp)_lj - delta_jl (rp rq)_ik,
    # i.e. kron(rq, rp^T) + kron(rp, rq^T) - kron(I, (rq rp)^T) - kron(rp rq, I),
    # built by broadcasting over axes (i, j, k, l): O(d^4) instead of the
    # O(d^6) contraction of d^2 explicit commutators.
    d = rp.shape[0]
    eye = np.eye(d)
    ik = (slice(None), None, slice(None), None)
    jl = (None, slice(None), None, slice(None))
    g = (
        rq[ik] * rp.T[jl]
        + rp[ik] * rq.T[jl]
        - eye[ik] * (rq @ rp).T[jl]
        - (rp @ rq)[ik] * eye[jl]
    )
    return -0.5 * g.reshape(d * d, d * d)


def gamma_matrix(rho: DensityMatrix, p, cross_check: bool = True) -> GammaFactorization:
    """Gram matrix of the skew-information form, built two ways.

    The eigenbasis-kernel construction supplies the returned matrix; with
    cross_check enabled (the default, and mandatory under test) the
    commutator construction is evaluated from the same eigendecomposition
    of rho and the two must agree entrywise, else CrossCheckError.
    """
    param = as_metric_param(p)
    spectrum = _spectrum(rho)
    gamma = _gamma_by_kernel(spectrum, param.p)
    if cross_check:
        other = _gamma_by_commutators(*_power_pair(rho, spectrum, param.p))
        resid = float(np.max(np.abs(gamma - other)))
        scale = 1.0 + float(np.max(np.abs(gamma)))
        if resid > CROSS_CHECK_TOL * scale:
            raise CrossCheckError(
                f"gamma constructions disagree: residual {resid:.3e} at scale {scale:.3e}"
            )
    digest = hashlib.sha256()
    digest.update(rho.matrix.tobytes())
    digest.update(repr(param.p).encode())
    return GammaFactorization(
        gamma=_frozen(gamma),
        factor_c=_frozen(psd_sqrt_factor(gamma)),
        p=param,
        state_fingerprint=digest.hexdigest()[:16],
    )


def _require_dims(rho_dim: int, obs: Observable) -> None:
    if obs.dim != rho_dim:
        raise DimensionMismatchError(
            f"observable {obs.name} has dimension {obs.dim}, state has {rho_dim}"
        )


def skew_info_direct(rho: DensityMatrix, obs: Observable, p) -> float:
    """Skew information from the commutator trace formula."""
    param = as_metric_param(p)
    _require_dims(rho.dim, obs)
    rp, rq = _power_pair(rho, _spectrum(rho), param.p)
    val = -0.5 * complex(np.trace(commutator(rp, obs.matrix) @ commutator(rq, obs.matrix)))
    return float(val.real)


def skew_info_quadratic(gf: GammaFactorization, obs: Observable) -> float:
    """Skew information as the Gamma quadratic form on vec(A)."""
    _require_dims(gf.dim, obs)
    v = vec_coords(obs)
    return float((v.conj() @ gf.gamma @ v).real)


def correlation(rho: DensityMatrix, a: Observable, b: Observable, p) -> complex:
    """Metric-adjusted correlation, conjugate-linear in the first slot.

    Corr(A, B) = -1/2 Tr([rho^p, A] [rho^(1-p), B]); Corr(A, A) recovers the
    skew information.
    """
    param = as_metric_param(p)
    _require_dims(rho.dim, a)
    _require_dims(rho.dim, b)
    rp, rq = _power_pair(rho, _spectrum(rho), param.p)
    return -0.5 * complex(np.trace(commutator(rp, a.matrix) @ commutator(rq, b.matrix)))


def correlation_quadratic(gf: GammaFactorization, a: Observable, b: Observable) -> complex:
    """Correlation as the Gamma sesquilinear form vecA^dag Gamma vecB."""
    _require_dims(gf.dim, a)
    _require_dims(gf.dim, b)
    return complex(vec_coords(a).conj() @ gf.gamma @ vec_coords(b))


def sampled_coords(gf: GammaFactorization, obs: Observable) -> np.ndarray:
    """Nonnegative coordinates x_i = |(C vecA)_i|; their squares sum to I(A)."""
    _require_dims(gf.dim, obs)
    return _frozen(np.abs(gf.factor_c @ vec_coords(obs)))


def variance(rho: DensityMatrix, obs: Observable) -> float:
    """Tr(rho A^2) - Tr(rho A)^2."""
    _require_dims(rho.dim, obs)
    a = obs.matrix
    mean = complex(np.trace(rho.matrix @ a)).real
    second = complex(np.trace(rho.matrix @ a @ a)).real
    return second - mean * mean

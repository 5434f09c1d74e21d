"""Dense complex linear algebra helpers.

Everything downstream leans on a Hermitian eigendecomposition with a fixed
ordering and phase convention, so that factorizations derived from it are
deterministic: identical input bits produce identical output bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

HERMITICITY_TOL = 1e-9
# Eigenvalues in [-NEGATIVE_EIG_TOL, 0) are rounding noise and are clamped to
# zero before fractional powers; anything more negative is a real PSD failure.
NEGATIVE_EIG_TOL = 1e-8

# Band around 0 (relative to the spectral radius) snapped to exactly zero so
# that noise does not leak through fractional powers or kernel weights.
SPECTRUM_ZERO_TOL = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array, raising ValueError otherwise."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    res = hermiticity_residual(m)
    scale = 1.0 + float(np.max(np.abs(m)))
    if res > tol * scale:
        raise NotHermitianError(
            f"hermiticity residual {res:.3e} exceeds tolerance {tol:.1e} (scale {scale:.3e})"
        )


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending (stable sort, so exact ties
    keep the solver's order).  ``eigenvectors`` columns are orthonormal and
    carry a fixed phase: the largest-magnitude entry of each column is made
    real and nonnegative, the first such entry winning exact magnitude ties.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _fix_column_phases(u: np.ndarray) -> np.ndarray:
    u = np.array(u, copy=True)
    rows = np.argmax(np.abs(u), axis=0)  # argmax returns the lowest index on ties
    cols = np.arange(u.shape[1])
    pivot = u[rows, cols]
    # hypot, not np.abs: on complex arrays np.abs may differ from the scalar
    # abs() in the last bit, and these bits feed every factorization.
    mag = np.hypot(pivot.real, pivot.imag)
    live = mag > 0.0  # a zero column stays untouched
    u[:, live] *= pivot[live].conj() / mag[live]
    u[rows[live], cols[live]] = mag[live]  # exact, kills the O(eps) imaginary residue
    return u


def herm_eig(m, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with the canonical convention.

    Delegates the factorization itself to LAPACK via ``numpy.linalg.eigh``,
    then applies the descending order and the deterministic phase fix.
    """
    a = as_complex_matrix(m)
    require_hermitian(a, tol)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from None
    order = np.argsort(-w, kind="stable")
    w = np.ascontiguousarray(w[order])
    u = _fix_column_phases(u[:, order])
    w.setflags(write=False)
    u.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=u)


def clamp_psd_spectrum(
    w: np.ndarray, floor: float = NEGATIVE_EIG_TOL, zero_tol: float = SPECTRUM_ZERO_TOL
) -> np.ndarray:
    """Snap near-zero eigenvalues to exactly 0; reject genuinely negative ones.

    Fractional powers amplify rounding noise around 0 (noise^p is macroscopic
    for small p), so the whole band within zero_tol of 0, relative to the
    largest eigenvalue, is zeroed, not just the negative side.
    """
    v = np.asarray(w, dtype=np.float64)
    wmin = float(np.min(v))
    if wmin < -floor:
        raise NotPSDError(f"minimum eigenvalue {wmin:.6e} is below -{floor:.1e}")
    scale = max(1.0, float(np.max(v)))
    return np.where(v <= zero_tol * scale, 0.0, v)


def mat_pow(rho, p: float) -> np.ndarray:
    """Fractional power of a Hermitian PSD matrix, p in (0, 1].

    p = 1 returns the input unchanged.  Eigenvalues that are negative by no
    more than rounding noise are clamped to zero before powering.
    """
    a = as_complex_matrix(rho)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"power p must lie in (0, 1], got {p}")
    if p == 1.0:
        return a.copy()
    eig = herm_eig(a)
    lam = clamp_psd_spectrum(eig.eigenvalues)
    u = eig.eigenvectors
    return (u * lam**p) @ u.conj().T


def commutator(x, y) -> np.ndarray:
    a = as_complex_matrix(x)
    b = as_complex_matrix(y)
    require_same_shape(a, b)
    return a @ b - b @ a


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product Tr(X^dag Y), conjugate-linear in X."""
    a = as_complex_matrix(x)
    b = as_complex_matrix(y)
    require_same_shape(a, b)
    return complex(np.vdot(a, b))


def psd_sqrt_factor(g, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Canonical factor C with C^dag C = G for Hermitian PSD G.

    C = diag(sqrt(max(lambda, 0))) U^dag with the herm_eig convention, so the
    rows of C are ordered by descending eigenvalue of G.  The negative floor
    is relative to the spectral radius.
    """
    a = as_complex_matrix(g)
    eig = herm_eig(a, tol)
    radius = float(np.max(np.abs(eig.eigenvalues)))
    lam = clamp_psd_spectrum(eig.eigenvalues, floor=NEGATIVE_EIG_TOL * (1.0 + radius))
    return np.sqrt(lam)[:, None] * eig.eigenvectors.conj().T

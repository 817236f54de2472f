"""Matrix-pencil analysis: regularity, index classification and spectral projectors.

For a regular pencil lambda*A + B of index at most 1 the state space splits as
R^n = X1 (+) X2 and the image space as R^n = Y1 (+) Y2, realised by two pairs
of complementary projectors (P1, P2) and (Q1, Q2).  The auxiliary operator
G = A + B*P2 is then invertible and converts the implicit system into a
semi-explicit one.  Two independent construction routes are provided: a
nullspace-based algebraic construction and a contour-integral (residue)
quadrature; they cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "MatrixPencil",
    "PencilIndex",
    "SpectralDecomposition",
    "ValidationReport",
    "NotRegularError",
    "IndexTooHighError",
    "DecompositionFailedError",
    "PoleOnContourError",
    "ContourSolveFailedError",
    "regularity_probe",
    "classify_index",
    "projectors_algebraic",
    "projectors_residue",
    "contour_radius",
    "validate_decomposition",
]

_EPS = np.finfo(float).eps
# Rank decisions on products of the inputs see roundoff a few times above
# n*eps*sigma_max; the factor keeps a wide band between noise and signal.
_RANK_SAFETY = 50.0
# Smallest acceptable angle (as sigma_min of a stacked orthonormal basis)
# between the candidate subspaces X1 and X2 before the direct sum is refused.
_SPLIT_TOL = 1e-8


class NotRegularError(Exception):
    """The pencil appears singular: det(lambda*A + B) vanishes identically."""


class IndexTooHighError(Exception):
    """The pencil is regular but of index 2 or higher; unsupported downstream."""


class DecompositionFailedError(Exception):
    """Rank decisions were inconsistent; the input is too ill-conditioned."""


class PoleOnContourError(Exception):
    """A generalized eigenvalue lies inside the safety band of the contour."""


class ContourSolveFailedError(Exception):
    """The resolvent could not be evaluated reliably on the contour."""


class PencilIndex(Enum):
    INDEX0 = "index0"
    INDEX1 = "index1"
    INDEX_HIGHER = "index_higher"


def _as_square_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MatrixPencil:
    """The pair (A, B) of real n x n matrices defining lambda*A + B.

    Either matrix may be singular; only the pencil as a whole is required to
    be regular for downstream use.  Instances are immutable and safe to share
    between threads.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_square_matrix(self.a, "a")
        b = _as_square_matrix(self.b, "b")
        if a.shape != b.shape:
            raise ValueError(f"a and b must share a shape, got {a.shape} vs {b.shape}")
        if a.shape[0] < 1:
            raise ValueError("pencil dimension must be at least 1")
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def norm_scale(self) -> float:
        """1 + ||A||_2 + ||B||_2, the scale used for relative tolerances."""
        return 1.0 + np.linalg.norm(self.a, 2) + np.linalg.norm(self.b, 2)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Spectral projectors, auxiliary operator G and the algebraic subspace basis.

    ``x2_basis`` holds an orthonormal basis of X2 = range(P2) = kernel(A); it is
    empty (n x 0) for an index-0 pencil.  All arrays are read-only.
    """

    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    index: PencilIndex
    x2_basis: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "q1", "q2", "g", "g_inv", "x2_basis"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.p1.shape[0]

    @property
    def algebraic_dim(self) -> int:
        return self.x2_basis.shape[1]


def regularity_probe(pencil: MatrixPencil, sample_count: int = 16, seed: int = 0,
                     rcond_floor: float = 1e-10) -> float:
    """Probabilistic regularity test: find lambda0 with det(lambda0*A + B) != 0.

    Evaluates the pencil at ``sample_count`` pseudo-random real points and
    returns the best-conditioned one.  A regular pencil has at most n roots of
    det(lambda*A + B), so random samples miss them almost surely; if every
    sample is numerically singular the pencil is declared non-regular.

    Raises
    ------
    NotRegularError
        If no sample reaches ``rcond_floor`` in sigma_min/sigma_max.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    scale = (1.0 + np.linalg.norm(pencil.b, 2)) / (1.0 + np.linalg.norm(pencil.a, 2))
    samples = rng.uniform(-2.0, 2.0, size=sample_count) * scale
    best_lam, best_rcond = None, 0.0
    for lam in samples:
        s = np.linalg.svd(lam * pencil.a + pencil.b, compute_uv=False)
        if s[0] == 0.0:
            continue
        rcond = s[-1] / s[0]
        if rcond > best_rcond:
            best_lam, best_rcond = float(lam), float(rcond)
    if best_lam is None or best_rcond <= rcond_floor:
        raise NotRegularError(
            f"det(lambda*A + B) numerically singular at all {sample_count} probe points"
        )
    return best_lam


def _kernel_and_range(a: np.ndarray, rank_rtol: float | None):
    """Orthonormal kernel basis N (n x k) and range basis Ur (n x r) of A."""
    n = a.shape[0]
    u, s, vt = np.linalg.svd(a)
    rtol = rank_rtol if rank_rtol is not None else _RANK_SAFETY * n * _EPS
    tol = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T, u[:, :rank]


def _x1_basis(pencil: MatrixPencil, kernel: np.ndarray, range_a: np.ndarray,
              rank_rtol: float | None):
    """Orthonormal basis of X1 = {x : B x in range(A)}, or None if its dimension
    differs from n - dim kernel(A) (which forces index > 1)."""
    n = pencil.n
    k = kernel.shape[1]
    proj_complement = np.eye(n) - range_a @ range_a.T
    m = proj_complement @ pencil.b
    u2, s2, vt2 = np.linalg.svd(m)
    rtol = rank_rtol if rank_rtol is not None else _RANK_SAFETY * n * _EPS
    tol = rtol * max(s2[0] if s2.size else 0.0, np.linalg.norm(pencil.b, 2))
    rank2 = int(np.sum(s2 > tol))
    if rank2 != k:
        return None
    return vt2[rank2:].T


def classify_index(pencil: MatrixPencil, rank_rtol: float | None = None) -> PencilIndex:
    """Classify a regular pencil as index 0, index 1 or higher.

    Index 0 means A invertible.  Index 1 means A singular while
    kernel(A) (+) {x : B x in range(A)} spans R^n; anything else is higher.
    Total on regular pencils; a singular pencil typically lands in
    ``INDEX_HIGHER`` (run :func:`regularity_probe` first to distinguish).
    """
    kernel, range_a = _kernel_and_range(pencil.a, rank_rtol)
    if kernel.shape[1] == 0:
        return PencilIndex.INDEX0
    x1 = _x1_basis(pencil, kernel, range_a, rank_rtol)
    if x1 is None:
        return PencilIndex.INDEX_HIGHER
    stacked = np.hstack([x1, kernel])
    smin = np.linalg.svd(stacked, compute_uv=False)[-1]
    if smin <= _SPLIT_TOL:
        return PencilIndex.INDEX_HIGHER
    return PencilIndex.INDEX1


def projectors_algebraic(pencil: MatrixPencil,
                         rank_rtol: float | None = None) -> SpectralDecomposition:
    """Construct the spectral projectors and G by explicit subspace bases.

    For index 0 the decomposition is trivial (P1 = Q1 = I, G = A).  For index 1
    it builds X2 = kernel(A), X1 = {x : B x in range(A)}, Y1 = range(A),
    Y2 = B X2 and forms the oblique projectors onto each pair.

    Raises
    ------
    IndexTooHighError
        If the pencil has index 2 or higher.
    DecompositionFailedError
        If rank decisions are inconsistent or G cannot be inverted.
    """
    n = pencil.n
    kernel, range_a = _kernel_and_range(pencil.a, rank_rtol)
    k = kernel.shape[1]
    if k == 0:
        try:
            g_inv = np.linalg.inv(pencil.a)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rank said invertible
            raise DecompositionFailedError("A rank-deficient during inversion") from exc
        eye = np.eye(n)
        return SpectralDecomposition(
            p1=eye, p2=np.zeros((n, n)), q1=eye.copy(), q2=np.zeros((n, n)),
            g=pencil.a.copy(), g_inv=g_inv, index=PencilIndex.INDEX0,
            x2_basis=np.zeros((n, 0)),
        )

    x1 = _x1_basis(pencil, kernel, range_a, rank_rtol)
    if x1 is None:
        raise IndexTooHighError("dim{x : Bx in range(A)} != n - dim ker(A)")
    stacked = np.hstack([x1, kernel])
    smin = np.linalg.svd(stacked, compute_uv=False)[-1]
    if smin <= _SPLIT_TOL:
        raise IndexTooHighError("kernel(A) and {x : Bx in range(A)} are not transversal")

    # P2 maps M*c + N*d -> N*d, i.e. projection onto X2 along X1.
    selector = np.hstack([np.zeros((n, n - k)), kernel])
    try:
        p2 = selector @ np.linalg.inv(stacked)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError("X1/X2 basis matrix singular") from exc
    p1 = np.eye(n) - p2

    b_kernel = pencil.b @ kernel  # basis of Y2 (B restricted to X2 is invertible)
    image_stacked = np.hstack([pencil.a @ x1, b_kernel])
    try:
        q2 = np.hstack([np.zeros((n, n - k)), b_kernel]) @ np.linalg.inv(image_stacked)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError("Y1/Y2 basis matrix singular") from exc
    q1 = np.eye(n) - q2

    g = pencil.a + pencil.b @ p2
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError("G = A + B*P2 singular") from exc
    if not np.all(np.isfinite(g_inv)):
        raise DecompositionFailedError("G inverse is non-finite")
    return SpectralDecomposition(p1=p1, p2=p2, q1=q1, q2=q2, g=g, g_inv=g_inv,
                                 index=PencilIndex.INDEX1, x2_basis=kernel)


def contour_radius(pencil: MatrixPencil, safety: float = 0.5) -> float:
    """Default contour radius for :func:`projectors_residue`.

    Half the smallest nonzero modulus of the mu-roots of det(A + mu*B) = 0
    (the finite generalized eigenvalues of A v = -mu B v); 1.0 when no nonzero
    finite root exists, since then mu = 0 is the only candidate pole.
    """
    import scipy.linalg  # lazily: the solve path never needs it

    mus = scipy.linalg.eig(pencil.a, -pencil.b, right=False)
    finite = mus[np.isfinite(mus)]
    if finite.size == 0:
        return 1.0
    mags = np.abs(finite)
    nonzero = mags[mags > 1e-12 * (1.0 + mags.max())]
    if nonzero.size == 0:
        return 1.0
    return float(safety * nonzero.min())


def projectors_residue(pencil: MatrixPencil, radius: float | None = None,
                       node_count: int = 64):
    """Approximate P1 and Q1 by the residue of the resolvent at mu = 0.

    The integrals (1/2*pi*i) * contour-int (A + mu B)^-1 A dmu/mu and its
    transpose-ordered counterpart are evaluated with the trapezoidal rule on
    ``node_count`` equispaced nodes of the circle |mu| = radius, which is
    spectrally accurate for this analytic integrand.  Imaginary parts are
    checked to be negligible and dropped.

    Returns
    -------
    (p1, q1) : pair of real n x n arrays
    """
    if node_count < 8:
        raise ValueError("node_count must be at least 8")
    if radius is None:
        radius = contour_radius(pencil)
    if radius <= 0.0:
        raise ValueError("radius must be positive")

    import scipy.linalg  # lazily: the solve path never needs it

    mus = scipy.linalg.eig(pencil.a, -pencil.b, right=False)
    finite = mus[np.isfinite(mus)]
    if finite.size:
        mags = np.abs(finite)
        near = mags[np.abs(mags - radius) < 0.1 * radius]
        if near.size:
            raise PoleOnContourError(
                f"generalized eigenvalue modulus {near[0]:.6g} within 10% of radius {radius:.6g}"
            )

    n = pencil.n
    p_acc = np.zeros((n, n), dtype=complex)
    q_acc = np.zeros((n, n), dtype=complex)
    for j in range(node_count):
        mu = radius * np.exp(2j * np.pi * j / node_count)
        try:
            resolvent = np.linalg.inv(pencil.a + mu * pencil.b)
        except np.linalg.LinAlgError as exc:
            raise ContourSolveFailedError(f"(A + mu B) singular at node {j}") from exc
        if not np.all(np.isfinite(resolvent)):
            raise ContourSolveFailedError(f"resolvent non-finite at node {j}")
        p_acc += resolvent @ pencil.a
        q_acc += pencil.a @ resolvent
    p_acc /= node_count
    q_acc /= node_count

    imag_tol = 1e-9 * pencil.norm_scale()
    imag_max = max(np.abs(p_acc.imag).max(), np.abs(q_acc.imag).max())
    if imag_max > imag_tol:
        raise ContourSolveFailedError(
            f"imaginary residue {imag_max:.3e} exceeds tolerance {imag_tol:.3e}"
        )
    return p_acc.real, q_acc.real


#: identity name -> residual matrix, evaluated by validate_decomposition
def _identity_residuals(pencil: MatrixPencil, d: SpectralDecomposition) -> dict:
    eye = np.eye(pencil.n)
    a, b = pencil.a, pencil.b
    res = {
        "P1+P2=I": d.p1 + d.p2 - eye,
        "Q1+Q2=I": d.q1 + d.q2 - eye,
        "P1^2=P1": d.p1 @ d.p1 - d.p1,
        "P2^2=P2": d.p2 @ d.p2 - d.p2,
        "Q1^2=Q1": d.q1 @ d.q1 - d.q1,
        "Q2^2=Q2": d.q2 @ d.q2 - d.q2,
        "P1*P2=0": d.p1 @ d.p2,
        "A*P1=A": a @ d.p1 - a,
        "Q1*A=A": d.q1 @ a - a,
        "A*P2=0": a @ d.p2,
        "Q2*A=0": d.q2 @ a,
        "B*P1=Q1*B": b @ d.p1 - d.q1 @ b,
        "B*P2=Q2*B": b @ d.p2 - d.q2 @ b,
        "G=A+B*P2": d.g - (a + b @ d.p2),
        "G*Ginv=I": d.g @ d.g_inv - eye,
        "Ginv*A*P1=P1": d.g_inv @ a @ d.p1 - d.p1,
        "Ginv*B*P2=P2": d.g_inv @ b @ d.p2 - d.p2,
        "A*Ginv*Q1=Q1": a @ d.g_inv @ d.q1 - d.q1,
        "B*Ginv*Q2=Q2": b @ d.g_inv @ d.q2 - d.q2,
    }
    if d.x2_basis.shape[1]:
        res["A*x2_basis=0"] = a @ d.x2_basis
        res["P2*x2_basis=x2_basis"] = d.p2 @ d.x2_basis - d.x2_basis
    return res


@dataclass(frozen=True)
class ValidationReport:
    """Max-norm residual of every decomposition identity, plus a verdict."""

    residuals: dict = field(default_factory=dict)
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def failing(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v > self.tol]

    def to_json(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "identities": dict(self.residuals),
        }


def validate_decomposition(pencil: MatrixPencil, decomp: SpectralDecomposition,
                           tol: float) -> ValidationReport:
    """Report the max-norm residual of every projector/G identity."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    residuals = {name: float(np.abs(mat).max())
                 for name, mat in _identity_residuals(pencil, decomp).items()}
    return ValidationReport(residuals=residuals, tol=tol)

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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "MatrixPencil", "PencilIndex", "SpectralDecomposition", "ValidationReport",
    "ResidueProjectors", "NotRegularError", "IndexTooHighError", "DecompositionFailedError",
    "PoleOnContourError", "ContourSolveFailedError", "regularity_probe", "classify_index",
    "projectors_algebraic", "projectors_residue", "contour_radius", "validate_decomposition",
    "MAX_NODE_COUNT",
]

_EPS = np.finfo(float).eps
# Rank decisions on products of the inputs see roundoff a few times above
# n*eps*sigma_max; the factor keeps a wide band between noise and signal.
_RANK_SAFETY = 50.0
# Smallest acceptable angle (as sigma_min of a stacked orthonormal basis)
# between the candidate subspaces X1 and X2 before the direct sum is refused.
_SPLIT_TOL = 1e-8
# sigma_min/sigma_max below which a probe point counts as a root of det
_RCOND_FLOOR = 1e-10
# Most quadrature nodes of projectors_residue; the rule converges geometrically
MAX_NODE_COUNT = 2 ** 16
# Complex entries (16 MB) per stacked inverse of projectors_residue's nodes
_STACK_ENTRIES = 2 ** 20
# fractional parts of the golden ratio and of sqrt(2) in 53-bit fixed point
_PHI, _ROOT2 = (math.isqrt(5 << 106) - 2 ** 53) >> 1, math.isqrt(2 << 106) - 2 ** 53


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


def _probe_points(sample_count: int, seed: int) -> np.ndarray:
    """4 frac(seed sqrt(2) + j phi) - 2, j < sample_count, in exact 53-bit fixed point:
    Weyl's golden-ratio sequence on [-2, 2), distinct, evenly spread, offset per seed."""
    fractions = [(seed * _ROOT2 + j * _PHI) % 2 ** 53 for j in range(sample_count)]
    return np.array(fractions) * 2.0 ** -51 - 2.0


def _best_shift(pencil: MatrixPencil, sample_count: int, seed: int) -> tuple[float, float]:
    """``(lambda, sigma_min/sigma_max)`` of the best-conditioned lambda*A + B
    over the scaled probe points (rcond 0 if all vanish)."""
    scale = (1.0 + np.linalg.norm(pencil.b, 2)) / (1.0 + np.linalg.norm(pencil.a, 2))
    samples = _probe_points(sample_count, seed) * scale
    s = np.linalg.svd(samples[:, None, None] * pencil.a + pencil.b, compute_uv=False)
    rcond = np.divide(s[:, -1], s[:, 0], out=np.zeros(sample_count), where=s[:, 0] > 0.0)
    best = int(np.argmax(rcond))
    return float(samples[best]), float(rcond[best])


def regularity_probe(pencil: MatrixPencil, sample_count: int = 16, seed: int = 0) -> float:
    """Regularity test: find lambda0 with det(lambda0*A + B) != 0.

    Evaluates the pencil at ``sample_count`` distinct real points (a golden-ratio
    sequence, offset by ``seed``) and returns the best-conditioned one.  A regular
    pencil has at most n roots of det(lambda*A + B), so more than n points include
    a regular one; if every point is numerically singular the pencil is non-regular.

    Raises
    ------
    NotRegularError
        If no sample reaches ``_RCOND_FLOOR`` in sigma_min/sigma_max.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    lam, rcond = _best_shift(pencil, sample_count, seed)
    if rcond <= _RCOND_FLOOR:
        raise NotRegularError(
            f"det(lambda*A + B) numerically singular at all {sample_count} probe points")
    return lam


def _split(pencil: MatrixPencil):
    """The index decision: ``(index, kernel, x1, why)``.

    ``kernel`` is an orthonormal basis N (n x k) of X2 = kernel(A).  ``x1`` is
    an orthonormal basis of X1 = {x : B x in range(A)} when the index is 1 and
    None otherwise; ``why`` says which test a higher index failed.
    """
    n = pencil.n
    rtol = _RANK_SAFETY * n * _EPS
    u, s, vt = np.linalg.svd(pencil.a)
    rank = int(np.sum(s > rtol * s[0]))
    kernel = vt[rank:].T
    if rank == n:
        return PencilIndex.INDEX0, kernel, None, None
    range_a = u[:, :rank]
    m = (np.eye(n) - range_a @ range_a.T) @ pencil.b
    _, s2, vt2 = np.linalg.svd(m)
    rank2 = int(np.sum(s2 > rtol * max(s2[0], np.linalg.norm(pencil.b, 2))))
    if rank2 != n - rank:
        return (PencilIndex.INDEX_HIGHER, kernel, None,
                "dim{x : Bx in range(A)} != n - dim ker(A)")
    x1 = vt2[rank2:].T
    if np.linalg.svd(np.hstack([x1, kernel]), compute_uv=False)[-1] <= _SPLIT_TOL:
        return (PencilIndex.INDEX_HIGHER, kernel, None,
                "kernel(A) and {x : Bx in range(A)} are not transversal")
    return PencilIndex.INDEX1, kernel, x1, None


def classify_index(pencil: MatrixPencil) -> PencilIndex:
    """Classify a regular pencil as index 0, index 1 or higher.

    Index 0 means A invertible.  Index 1 means A singular while
    kernel(A) (+) {x : B x in range(A)} spans R^n; anything else is higher.
    Total on regular pencils; a singular pencil typically lands in
    ``INDEX_HIGHER`` (run :func:`regularity_probe` first to distinguish).
    """
    return _split(pencil)[0]


def _inverse(m: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError(f"{what} singular") from exc


def projectors_algebraic(pencil: MatrixPencil) -> SpectralDecomposition:
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
    index, kernel, x1, why = _split(pencil)
    if index is PencilIndex.INDEX0:
        eye = np.eye(n)
        return SpectralDecomposition(
            p1=eye, p2=np.zeros((n, n)), q1=eye.copy(), q2=np.zeros((n, n)),
            g=pencil.a.copy(), g_inv=_inverse(pencil.a, "A"), index=PencilIndex.INDEX0,
            x2_basis=np.zeros((n, 0)))
    if index is PencilIndex.INDEX_HIGHER:
        raise IndexTooHighError(why)

    # P2 maps M*c + N*d -> N*d, i.e. projection onto X2 along X1.
    k = kernel.shape[1]
    selector = np.hstack([np.zeros((n, n - k)), kernel])
    p2 = selector @ _inverse(np.hstack([x1, kernel]), "X1/X2 basis matrix")
    p1 = np.eye(n) - p2

    b_kernel = pencil.b @ kernel  # basis of Y2 (B restricted to X2 is invertible)
    image_stacked = np.hstack([pencil.a @ x1, b_kernel])
    q2 = np.hstack([np.zeros((n, n - k)), b_kernel]) @ _inverse(image_stacked,
                                                                 "Y1/Y2 basis matrix")
    q1 = np.eye(n) - q2

    g = pencil.a + pencil.b @ p2
    g_inv = _inverse(g, "G = A + B*P2")
    if not np.all(np.isfinite(g_inv)):
        raise DecompositionFailedError("G inverse is non-finite")
    return SpectralDecomposition(p1=p1, p2=p2, q1=q1, q2=q2, g=g, g_inv=g_inv,
                                 index=PencilIndex.INDEX1, x2_basis=kernel)


def _eigenvalue_moduli(pencil: MatrixPencil) -> np.ndarray:
    """Moduli of the finite mu-roots of det(A + mu*B) = 0 (A v = -mu B v).

    For S = tau*A + B well conditioned, each eigenvalue phi of S^-1 A pairs
    with kappa = 1 - tau*phi of S^-1 B, and mu = -phi/kappa; kappa ~ 0 (B v = 0)
    is an infinite root, dropped.  Each list holds every root, so mu is taken
    from S^-1 A where |tau*mu| <= 2 and from S^-1 B where |tau*mu| >= 1/2, and
    neither 1 - tau*phi nor 1 - kappa cancels.  A singular pencil gets none.
    """
    n, tau = pencil.n, _best_shift(pencil, 16, 0)[0]
    try:
        s = np.linalg.solve(tau * pencil.a + pencil.b, np.hstack([pencil.a, pencil.b]))
        phi, kappa = np.linalg.eigvals(s[:, :n]), np.linalg.eigvals(s[:, n:])
    except np.linalg.LinAlgError:  # tau*A + B exactly singular, or overflowed
        return np.zeros(0)
    phi, kappa = (np.concatenate([phi, (1.0 - kappa) / tau]),
                  np.concatenate([1.0 - tau * phi, kappa]))
    keep = np.abs(kappa) > _RANK_SAFETY * n * _EPS
    mags = np.abs(phi[keep] / kappa[keep])
    scaled = abs(tau) * mags
    return mags[np.where(np.arange(2 * n)[keep] < n, scaled <= 2.0, scaled >= 0.5)]


def _radius(mags: np.ndarray, safety: float) -> float:
    nonzero = mags[mags > 1e-12 * (1.0 + mags.max())] if mags.size else mags
    return float(safety * nonzero.min()) if nonzero.size else 1.0


def contour_radius(pencil: MatrixPencil, safety: float = 0.5) -> float:
    """Default contour radius for :func:`projectors_residue`: ``safety`` times
    the smallest nonzero modulus of the mu-roots of det(A + mu*B) = 0; 1.0 when
    no nonzero finite root exists, since then mu = 0 is the only candidate pole."""
    return _radius(_eigenvalue_moduli(pencil), safety)


class ResidueProjectors(tuple):
    """``(p1, q1)`` of :func:`projectors_residue`, with ``quadrature_error``:
    max |S_N - S_N/2| over both, the N-node rule against the rule on its even
    nodes (an upper estimate of the N-node error; nan for odd N)."""

    def __new__(cls, p1: np.ndarray, q1: np.ndarray, quadrature_error: float):
        pair = super().__new__(cls, (p1, q1))
        pair.quadrature_error = quadrature_error
        return pair


def projectors_residue(pencil: MatrixPencil, radius: float | None = None,
                       node_count: int = 64) -> ResidueProjectors:
    """Approximate P1 and Q1 by the residue of the resolvent at mu = 0.

    The integrals (1/2*pi*i) * contour-int (A + mu B)^-1 A dmu/mu and its
    transpose-ordered counterpart are evaluated with the trapezoidal rule on
    ``node_count`` equispaced nodes of the circle |mu| = radius (default
    :func:`contour_radius`), spectrally accurate for this analytic integrand:
    P1 = R A and Q1 = A R for R the mean of the resolvents, inverted in stacks.
    Imaginary parts are checked to be negligible and dropped.
    """
    if not 8 <= node_count <= MAX_NODE_COUNT:
        raise ValueError(f"node_count must be between 8 and {MAX_NODE_COUNT}")
    if radius is not None and radius <= 0.0:
        raise ValueError("radius must be positive")
    mags = _eigenvalue_moduli(pencil)
    if radius is None:
        radius = _radius(mags, 0.5)
    near = mags[np.abs(mags - radius) < 0.1 * radius]
    if near.size:
        raise PoleOnContourError(
            f"generalized eigenvalue modulus {near[0]:.6g} within 10% of radius {radius:.6g}")

    a, b, n = pencil.a, pencil.b, pencil.n
    mus = radius * np.exp(2j * np.pi * np.arange(node_count) / node_count)
    block = max(2, _STACK_ENTRIES // (2 * n * n) * 2)  # even, so [::2] keeps even nodes
    total, even = np.zeros((2, n, n), dtype=complex)
    for start in range(0, node_count, block):
        stack = a + mus[start:start + block, None, None] * b
        try:
            resolvents = np.linalg.inv(stack)
        except np.linalg.LinAlgError as exc:
            j = start + int(np.argmax(np.linalg.slogdet(stack)[0] == 0))
            raise ContourSolveFailedError(f"(A + mu B) singular at node {j}") from exc
        bad = np.flatnonzero(~np.isfinite(resolvents).all(axis=(1, 2)))
        if bad.size:
            raise ContourSolveFailedError(f"resolvent non-finite at node {start + bad[0]}")
        total += resolvents.sum(axis=0)
        even += resolvents[::2].sum(axis=0)
    mean = total / node_count
    p1, q1 = mean @ a, a @ mean

    imag_tol = 1e-9 * pencil.norm_scale()
    imag_max = max(np.abs(p1.imag).max(), np.abs(q1.imag).max())
    if imag_max > imag_tol:
        raise ContourSolveFailedError(
            f"imaginary residue {imag_max:.3e} exceeds tolerance {imag_tol:.3e}")
    gap = mean - even / (node_count // 2)  # S_N - S_N/2 (of R; times A for P1 and Q1)
    error = np.nan if node_count % 2 else max(np.abs(gap @ a).max(), np.abs(a @ gap).max())
    return ResidueProjectors(p1.real, q1.real, float(error))


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
        return {"tol": self.tol, "passed": self.passed, "max_residual": self.max_residual,
                "identities": dict(self.residuals)}


def validate_decomposition(pencil: MatrixPencil, decomp: SpectralDecomposition,
                           tol: float) -> ValidationReport:
    """Report the max-norm residual of every projector/G identity."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d, eye = decomp, np.eye(pencil.n)
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
    return ValidationReport({name: float(np.abs(m).max()) for name, m in res.items()}, tol)

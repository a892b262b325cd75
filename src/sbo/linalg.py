"""Dense linear algebra kernel: validated vectors/matrices, spectral-norm
estimation, a minimum-norm least-squares oracle, and the whitespace text
format of the matrix and vector blocks in instance files.

Vectors are 1-D float64 ndarrays and matrices are 2-D row-major float64
ndarrays; `as_vector` / `as_matrix` are the validating constructors used at
module boundaries (no NaN/Inf is admitted into solver state).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, ParseError, PowerIterationError

# Largest-eigenvalue estimates are inflated by this factor before they are
# used as Lipschitz constants, so that stepsize bounds gamma <= 1/L survive
# the estimation tolerance.
LIPSCHITZ_SAFETY = 1.01

# Singular values below CUTOFF * sigma_max are treated as zero when forming
# the pseudoinverse; fixed so ill-conditioned reference solutions are
# reproducible.
SVD_CUTOFF = 1e-10


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractViolation("vector contains non-finite entries")
    return v


def as_matrix(a) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=float)
    if m.ndim != 2 or m.size < 1:
        raise ContractViolation(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation("matrix contains non-finite entries")
    return m


def spectral_norm_sq(a: np.ndarray, tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Largest eigenvalue of A.T A by power iteration on v -> A.T (A v).

    Starts from the normalized all-ones vector (deterministic). Stops when
    the eigen-residual ||A.T A v - lam v|| <= tol * lam. Raises
    PowerIterationError carrying the best estimate if max_iter is exhausted.
    """
    if tol <= 0:
        raise ContractViolation("spectral_norm_sq: tol must be positive")
    m, n = a.shape
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        bv = a.T @ w
        norm_bv = float(np.linalg.norm(bv))
        if norm_bv == 0.0:
            # start vector fell in null(A); deterministic restart
            v = np.arange(1.0, n + 1.0)
            v /= np.linalg.norm(v)
            continue
        lam = float(v @ bv)
        residual = float(np.linalg.norm(bv - lam * v))
        if residual <= tol * max(lam, np.finfo(float).tiny):
            return lam
        v = bv / norm_bv
    raise PowerIterationError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations",
        best_estimate=lam,
    )


def lipschitz_from_matrix(a: np.ndarray, tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Safe Lipschitz constant for x -> A.T(Ax - b): inflated lambda_max(A.T A)."""
    return LIPSCHITZ_SAFETY * spectral_norm_sq(a, tol=tol, max_iter=max_iter)


def min_norm_ls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm solution of min_x ||A x - b||_2.

    Computed from the SVD with singular values below SVD_CUTOFF * sigma_max
    truncated to zero, so severely ill-conditioned inputs give a
    reproducible answer.
    """
    if a.shape[0] != b.shape[0]:
        raise ContractViolation(
            f"min_norm_ls: matrix has {a.shape[0]} rows but vector has length {b.shape[0]}"
        )
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.shape[1])
    keep = s > SVD_CUTOFF * s[0]
    coeff = (u.T @ b)[keep] / s[keep]
    return vt[keep].T @ coeff


# ---------------------------------------------------------------------------
# Text format of the instance files' matrix and vector blocks.
#
# Line 1: "m n". Then m lines of n space-separated decimal reals. Floats are
# printed with Python's shortest round-trip representation, so write/read is
# bit-exact. A vector is stored with an "1 n" header.
# ---------------------------------------------------------------------------


def format_matrix(a: np.ndarray) -> str:
    a = as_matrix(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def format_vector(x: np.ndarray) -> str:
    x = as_vector(x)
    return f"1 {x.shape[0]}\n" + " ".join(repr(float(v)) for v in x) + "\n"


def parse_matrix_lines(lines: list[str], first_lineno: int = 1) -> np.ndarray:
    """Parse the text-format block; raises ParseError with a 1-based line number."""
    if not lines:
        raise ParseError("empty matrix block", first_lineno)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"expected 'm n' header, got {lines[0]!r}", first_lineno)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"non-integer dimensions in header {lines[0]!r}", first_lineno)
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m} x {n}", first_lineno)
    if len(lines) < 1 + m:
        raise ParseError(f"expected {m} data rows, found {len(lines) - 1}", first_lineno)
    out = np.empty((m, n))
    for i in range(m):
        lineno = first_lineno + 1 + i
        parts = lines[1 + i].split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, found {len(parts)}", lineno)
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-numeric entry in {lines[1 + i]!r}", lineno)
    if not np.isfinite(out).all():
        raise ParseError("non-finite entry in matrix block", first_lineno)
    return out

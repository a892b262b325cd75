"""Dense linear algebra kernel: validated vectors/matrices, spectral-norm
estimation, a minimum-norm least-squares oracle, and the whitespace text
format of the matrix and vector blocks in instance files.

Vectors are 1-D float64 ndarrays and matrices are 2-D row-major float64
ndarrays; `as_vector` / `as_matrix` are the validating constructors used at
module boundaries (no NaN/Inf is admitted into solver state).
"""

from __future__ import annotations

import math

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


def spectral_norm_sq(a: np.ndarray) -> float:
    """Largest eigenvalue of A.T A by power iteration on v -> A.T (A v).

    Starts from the normalized all-ones vector (deterministic); 0.0 exactly
    for A = 0. Stops when the eigen-residual ||A.T A v - lam v|| <= 1e-8 * lam
    and raises PowerIterationError carrying the best estimate after 5000
    steps. The iteration runs on A * 2^-e, where 2^e is the power of two
    just above max |a_ij|, and scales lam back by 2^2e. Scaling by a power
    of two is exact in binary floating point, so the result is bit for bit
    that of the unscaled iteration wherever that one stays in the normal
    range, and no start underflows or overflows for tiny or huge entries. A
    lam_max beyond the float range raises PowerIterationError at once.
    """
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return 0.0
    e = math.frexp(scale)[1]
    a = np.ldexp(a, -e)
    m, n = a.shape
    v = np.ones(n) / np.sqrt(n)
    restarts = 0
    lam = 0.0
    for _ in range(5000):
        w = a @ v
        bv = a.T @ w
        norm_bv = float(np.linalg.norm(bv))
        if norm_bv == 0.0:
            # v lies in null(A): restart from (1, 2, ..., n), then from
            # A.T u with u = a_j / |a_ij| for the largest entry a_ij of A.
            # That vector lies in range(A.T), off null(A), and is nonzero:
            # its entry j is ||a_j||^2 / |a_ij|, at least |a_ij|
            restarts += 1
            if restarts == 1:
                v = np.arange(1.0, n + 1.0)
            else:
                i, j = np.unravel_index(np.argmax(np.abs(a)), a.shape)
                v = a.T @ (a[:, j] / abs(a[i, j]))
                v /= np.abs(v).max()
            v /= np.linalg.norm(v)
            continue
        lam = float(v @ bv)
        residual = float(np.linalg.norm(bv - lam * v))
        if residual <= 1e-8 * max(lam, np.finfo(float).tiny):
            return _unscaled(lam, e)
        v = bv / norm_bv
    raise PowerIterationError(
        "power iteration did not reach tol=1e-08 within 5000 iterations",
        best_estimate=_unscaled(lam, e),
    )


def _unscaled(lam: float, e: int) -> float:
    """lam * 2^2e, the estimate for A from the one for A * 2^-e."""
    try:
        return math.ldexp(lam, 2 * e)
    except OverflowError:
        log10 = math.log10(lam) + 2 * e * math.log10(2.0)
        raise PowerIterationError(
            f"power iteration: lambda_max(A.T A) overflows, at about 10^{log10:.1f}",
            best_estimate=math.inf) from None


def lipschitz_from_matrix(a: np.ndarray) -> float:
    """Safe Lipschitz constant for x -> A.T(Ax - b): inflated lambda_max(A.T A)."""
    return LIPSCHITZ_SAFETY * spectral_norm_sq(a)


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

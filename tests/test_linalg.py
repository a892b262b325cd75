import math

import numpy as np
import pytest

from sbo.errors import ContractViolation, ParseError, PowerIterationError
from sbo.linalg import (as_matrix, as_vector, format_matrix, format_vector,
                        min_norm_ls, parse_matrix_lines, spectral_norm_sq)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        as_vector([1.0, float("nan")])
    with pytest.raises(ContractViolation):
        as_matrix([[1.0, float("inf")]])


def test_spectral_norm_sq_identity_and_diag():
    assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-8)
    d = np.diag([1.0, 2.0, 3.0])
    assert spectral_norm_sq(d) == pytest.approx(9.0, rel=1e-8)


def test_spectral_norm_sq_vs_dense_eigensolver():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 8))
    expected = float(np.linalg.eigvalsh(a.T @ a).max())
    got = spectral_norm_sq(a, tol=1e-10)
    assert got == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_sq_sign_and_scale_invariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    base = spectral_norm_sq(a, tol=1e-10)
    assert spectral_norm_sq(-a, tol=1e-10) == pytest.approx(base, rel=1e-8)
    assert spectral_norm_sq(2.5 * a, tol=1e-10) == pytest.approx(
        2.5**2 * base, rel=1e-8)


def test_spectral_norm_sq_max_iter_error_carries_estimate():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    with pytest.raises(PowerIterationError) as err:
        spectral_norm_sq(a, tol=1e-15, max_iter=2)
    assert err.value.best_estimate > 0.0


def test_spectral_norm_sq_rejects_bad_tol():
    with pytest.raises(ContractViolation):
        spectral_norm_sq(np.eye(2), tol=0.0)


def test_min_norm_ls_identity_and_rank_deficient():
    b = np.array([2.0, 5.0])
    assert np.allclose(min_norm_ls(np.eye(2), b), b)
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(min_norm_ls(a, b), [2.0, 0.0])


def test_min_norm_ls_seeded_against_eigen_oracle():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    a = (u * s) @ v.T
    b = rng.standard_normal(6)
    x = min_norm_ls(a, b)

    # residual orthogonal to range(A)
    r = a @ x - b
    assert abs(a.T @ r).max() < 1e-10
    # solution orthogonal to null(A)
    null = v[:, 3:]
    assert abs(null.T @ x).max() < 1e-10

    # brute-force oracle through the normal-equations eigensystem
    gram = a.T @ a
    w, q = np.linalg.eigh(gram)
    keep = w > 1e-12 * w.max()
    oracle = q[:, keep] @ ((q[:, keep].T @ (a.T @ b)) / w[keep])
    assert np.allclose(x, oracle, atol=1e-10)


def test_min_norm_ls_is_minimum_norm_among_solutions():
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    s = np.array([2.0, 1.0, 0.5, 0.0, 0.0])
    a = (u * s) @ v.T
    b = a @ rng.standard_normal(5)
    x = min_norm_ls(a, b)
    for _ in range(20):
        other = x + v[:, 3:] @ rng.standard_normal(2)
        assert np.linalg.norm(a @ other - b) < 1e-9  # still a solution
        assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12


def test_min_norm_ls_dimension_check():
    with pytest.raises(ContractViolation):
        min_norm_ls(np.eye(3), np.ones(2))


def test_matrix_text_roundtrip_exact():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3)) * np.array([1e-17, 1.0, 1e14])
    back = parse_matrix_lines(format_matrix(a).splitlines())
    assert np.array_equal(a, back)


def test_vector_text_roundtrip_exact():
    x = np.array([0.1, -1e-300, 3.0, math.pi])
    lines = format_vector(x).splitlines()
    assert lines[0] == "1 4"
    assert np.array_equal(parse_matrix_lines(lines)[0], x)


def test_parse_matrix_reports_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix_lines(["bogus header"])
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix_lines(["2 2", "1.0 2.0", "3.0"])
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix_lines(["1 2", "1.0 oops"])


def test_format_matrix_shortest_repr():
    text = format_matrix(np.array([[0.1, 1e-5]]))
    assert text == "1 2\n0.1 1e-05\n"

import math
import time

import numpy as np
import pytest

from sbo.errors import ContractViolation, ParseError, PowerIterationError
from sbo.functions import LeastSquares
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
    got = spectral_norm_sq(a)
    assert got == pytest.approx(expected, rel=1e-8)


def test_spectral_norm_sq_sign_and_scale_invariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    base = spectral_norm_sq(a)
    assert spectral_norm_sq(-a) == pytest.approx(base, rel=1e-8)
    assert spectral_norm_sq(2.5 * a) == pytest.approx(
        2.5**2 * base, rel=1e-8)


def test_spectral_norm_sq_max_iter_error_carries_estimate():
    # eigenvalues 1 and 0.9998: the residual shrinks by 0.9998 per step and
    # is still above 1e-8 after the 5000-step cap
    with pytest.raises(PowerIterationError, match="within 5000 iterations") as err:
        spectral_norm_sq(np.diag([1.0, 0.9999]))
    assert err.value.best_estimate == pytest.approx(0.99998, rel=1e-5)


def test_spectral_norm_sq_of_a_zero_matrix_is_exactly_zero():
    assert spectral_norm_sq(np.zeros((3, 2))) == 0.0
    assert LeastSquares(np.zeros((3, 2)), np.ones(3)).lipschitz == 0.0


def test_spectral_norm_sq_when_both_start_vectors_lie_in_the_null_space():
    # A (1, 1, 1) = A (1, 2, 3) = 0; A.T A = 2 c c.T with c = (1, -2, 1)
    a = np.array([[1.0, -2.0, 1.0], [1.0, -2.0, 1.0]])
    assert spectral_norm_sq(a) == pytest.approx(12.0, rel=1e-8)


def test_spectral_norm_sq_of_tiny_entries():
    # unscaled, A.T A v = 1e-240 * v and its squared norm underflow to 0
    assert spectral_norm_sq(np.array([[1e-120, 0.0], [0.0, 1e-121]])) == pytest.approx(
        1e-240, rel=1e-12)
    assert spectral_norm_sq(np.array([[4.77e-113]])) == pytest.approx(
        4.77e-113**2, rel=1e-12)


def test_spectral_norm_sq_of_huge_entries():
    # unscaled, the squares of A v overflow although lambda_max = 1e300 does not
    assert spectral_norm_sq(1e150 * np.eye(2)) == pytest.approx(1e300, rel=1e-12)


def test_spectral_norm_sq_refuses_at_once_when_lambda_max_overflows():
    start = time.perf_counter()
    with pytest.raises(PowerIterationError, match="overflows, at about 10\\^320.0"):
        spectral_norm_sq(np.array([[1e160]]))
    assert time.perf_counter() - start < 0.05  # not 5000 steps


def test_spectral_norm_sq_scaling_by_powers_of_two_is_exact():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 5))
    base = spectral_norm_sq(a)
    for e in (-300, -40, 40, 300):
        assert spectral_norm_sq(np.ldexp(a, e)) == math.ldexp(base, 2 * e)


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

import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbo.errors import ContractViolation, ParseError, PowerIterationError
from sbo.functions import LeastSquares
from sbo.linalg import (as_matrix, as_vector, format_matrix, format_vector,
                        min_norm_ls, parse_matrix_lines, spectral_norm_sq)
from sbo.problems import inverse_problem


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


def test_spectral_norm_sq_when_the_top_two_singular_values_are_close():
    # eigenvalues 1 and 1 - g: the residual shrinks by 1 - g per step and is
    # still above 1e-8 after the 5000-step cap, where the dense
    # eigensolver answers
    for g in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        a = np.diag([1.0, math.sqrt(1.0 - g)])
        assert abs(spectral_norm_sq(a) - 1.0) <= 1e-15
        assert LeastSquares(a, np.ones(2)).lipschitz == pytest.approx(1.01, rel=1e-15)


def test_spectral_norm_sq_of_a_zero_matrix_is_exactly_zero():
    assert spectral_norm_sq(np.zeros((3, 2))) == 0.0
    assert LeastSquares(np.zeros((3, 2)), np.ones(3)).lipschitz == 0.0


def test_spectral_norm_sq_when_both_start_vectors_lie_in_the_null_space():
    # A (1, 1, 1) = A (1, 2, 3) = 0; A.T A = 2 c c.T with c = (1, -2, 1)
    a = np.array([[1.0, -2.0, 1.0], [1.0, -2.0, 1.0]])
    assert spectral_norm_sq(a) == pytest.approx(12.0, rel=1e-8)


def test_spectral_norm_sq_when_the_start_vector_lies_in_the_null_space():
    # A (1, 1) = 0; A.T A has eigenvalues 0 and 2
    assert spectral_norm_sq(np.array([[1.0, -1.0]])) == pytest.approx(2.0, abs=1e-15)


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


def test_lipschitz_refuses_an_inflation_that_overflows():
    # lambda_max = 1.7956e308 is finite, 1.01 times it is not
    with pytest.raises(PowerIterationError, match="Lipschitz constant 1.01") as err:
        LeastSquares(np.array([[1.34e154]]), np.array([1.0]))
    assert err.value.best_estimate == pytest.approx(1.34e154**2, rel=1e-15)


def _reference_spectral_norm_sq(a):
    """The power iteration written with np.linalg.norm, @ and a per-step
    np.finfo, as spectral_norm_sq was before it took its norms as
    sqrt(v.dot(v))."""
    e = math.frexp(float(np.abs(a).max()))[1]
    a = np.ldexp(a, -e)
    n = a.shape[1]
    v = np.ones(n) / np.sqrt(n)
    for _ in range(5000):
        w = a @ v
        bv = a.T @ w
        norm_bv = float(np.linalg.norm(bv))
        if norm_bv == 0.0:
            break
        lam = float(v @ bv)
        residual = float(np.linalg.norm(bv - lam * v))
        if residual <= 1e-8 * max(lam, np.finfo(float).tiny):
            return math.ldexp(lam, 2 * e)
        v = bv / norm_bv
    return math.ldexp(float(np.linalg.eigvalsh(a.T @ a)[-1]), 2 * e)


def _scaled_gaussian(m, n, seed, decade):
    return 10.0 ** decade * np.random.default_rng(seed).standard_normal((m, n))


MATRICES = st.builds(_scaled_gaussian, st.integers(1, 12), st.integers(1, 12),
                     st.integers(0, 2**32 - 1), st.integers(-150, 150))


@settings(max_examples=200, deadline=None)
@given(a=MATRICES)
@example(a=inverse_problem("phillips", 32)[0])
@example(a=inverse_problem("baart", 32)[0])
@example(a=inverse_problem("foxgood", 32)[0])
def test_spectral_norm_sq_is_the_double_of_the_norm_dispatching_loop(a):
    assert spectral_norm_sq(a) == _reference_spectral_norm_sq(a)


@settings(max_examples=200, deadline=None)
@given(a=MATRICES, k=st.integers(-1100, 1100))
@example(a=np.random.default_rng(9).standard_normal((7, 5)), k=-300)
@example(a=np.random.default_rng(9).standard_normal((7, 5)), k=-40)
@example(a=np.random.default_rng(9).standard_normal((7, 5)), k=40)
@example(a=np.random.default_rng(9).standard_normal((7, 5)), k=300)
def test_spectral_norm_sq_scaling_by_powers_of_two_is_exact(a, k):
    # k is clamped to the range that keeps every entry of A * 2^k and the
    # result * 4^k normal and finite, so the range's ends are drawn often
    base = spectral_norm_sq(a)
    e_min = math.frexp(float(np.abs(a).min()))[1]
    e_max = math.frexp(float(np.abs(a).max()))[1]
    e_base = math.frexp(base)[1]
    k = min(max(k, -1021 - e_min, (-1020 - e_base) // 2), 1024 - e_max, (1024 - e_base) // 2)
    assert spectral_norm_sq(np.ldexp(a, k)) == math.ldexp(base, 2 * k)


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


@pytest.mark.parametrize("lines,message", [
    ([], "line 1: empty matrix block"),
    (["2 2 2", "1 2"], "line 1: expected 'm n' header"),
    (["two 2", "1 2"], "line 1: non-integer dimensions"),
    (["0 2"], "line 1: dimensions must be positive, got 0 x 2"),
    (["2 -1", "1", "2"], "line 1: dimensions must be positive, got 2 x -1"),
    (["3 1", "1.0", "2.0"], "line 1: expected 3 data rows, found 2"),
    (["2 2", "1.0 2.0", "3.0 nan"], "line 1: non-finite entry"),
    (["1 2", "1.0 -inf"], "line 1: non-finite entry"),
])
def test_parse_matrix_refuses_a_malformed_block_naming_the_line(lines, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_matrix_lines(lines)


def test_parse_matrix_checks_the_rows_before_it_allocates():
    # an array of 1 x 99999999999999 floats is past what numpy can allocate:
    # the header alone must not size it
    with pytest.raises(ParseError, match="line 6: expected 99999999999999 entries, found 3"):
        parse_matrix_lines(["1 99999999999999", "1.0 2.0 3.0"], first_lineno=5)


def test_format_matrix_shortest_repr():
    text = format_matrix(np.array([[0.1, 1e-5]]))
    assert text == "1 2\n0.1 1e-05\n"

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoha import (DomainError, EigenData, LegData, LimitExceededError,
                        StructuralViolationError, attach_legs, double,
                        is_generic, lambda_from_eigenvalues, sample_generic)

from conftest import S1, S3, SUITE_HALVES, arrow_matrix, from_rows


def test_attach_legs_two_loops_gamma_three():
    q0 = from_rows([[1]])
    legs = attach_legs(q0, (3,))
    assert legs.vertex_labels == ((0, 0), (0, 1), (0, 2))
    assert legs.tilde_gamma == (3, 2, 1)
    # two loops at the base vertex plus doubled leg edges
    assert arrow_matrix(double(legs.half_quiver)) == [[2, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert legs.half_quiver.arrows == ((0, 0, 1), (0, 1, 1), (1, 2, 1))


def test_attach_legs_length_zero_is_identity():
    legs = attach_legs(from_rows([[0, 1], [0, 0]]), (1, 1))
    assert double(legs.half_quiver) == S3
    assert legs.tilde_gamma == (1, 1)


def test_attach_legs_double_a2_mixed_gamma():
    legs = attach_legs(from_rows([[0, 1], [0, 0]]), (2, 1))
    assert legs.vertex_labels == ((0, 0), (1, 0), (0, 1))
    assert legs.tilde_gamma == (2, 1, 1)
    # q0 plus one leg edge from [0, 0] to [0, 1]
    assert arrow_matrix(legs.half_quiver) == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("name,q0", SUITE_HALVES)
def test_attach_legs_structural_invariants(name, q0):
    for gamma in [(1,) * q0.vertex_count, (3,) + (1,) * (q0.vertex_count - 1)]:
        legs = attach_legs(q0, gamma)
        for v, (i, j) in enumerate(legs.vertex_labels):
            assert legs.tilde_gamma[v] == gamma[i] - j
        # the half quiver is q0 on the base vertices plus one arrow
        # [i, j] -> [i, j + 1] per leg edge
        base, half = arrow_matrix(q0), arrow_matrix(legs.half_quiver)
        for u, (i, j) in enumerate(legs.vertex_labels):
            for v, (k, m) in enumerate(legs.vertex_labels):
                expected = (base[i][k] if j == m == 0
                            else int(i == k and m == j + 1))
                assert half[u][v] == expected


# -- lambda ---------------------------------------------------------------------

def test_lambda_example():
    legs = attach_legs(S1, (2,))
    t = EigenData(((Fraction(1), Fraction(-1)),))
    lam = lambda_from_eigenvalues(t, legs)
    assert lam == (Fraction(-1), Fraction(2))
    assert sum(g * l for g, l in zip(legs.tilde_gamma, lam)) == 0


def test_lambda_equal_eigenvalues_allowed():
    legs = attach_legs(S1, (2,))
    lam = lambda_from_eigenvalues(EigenData(((0, 0),)), legs)
    assert lam == (0, 0)


def test_lambda_two_vertices():
    half = from_rows([[0, 1], [0, 0]])
    legs = attach_legs(half, (1, 1))
    a = Fraction(5, 3)
    lam = lambda_from_eigenvalues(EigenData(((a,), (-a,))), legs)
    assert lam == (-a, a)


def test_lambda_rejects_nonzero_pairing():
    # a leg entry off by one keeps the base sizes but breaks the pairing
    legs = attach_legs(S1, (2,))
    broken = LegData((2, 2), legs.vertex_labels, legs.half_quiver)
    with pytest.raises(StructuralViolationError):
        lambda_from_eigenvalues(EigenData(((Fraction(1), Fraction(-1)),)), broken)


def test_eigendata_requires_zero_trace():
    with pytest.raises(DomainError):
        EigenData(((Fraction(1),),))


# -- genericity --------------------------------------------------------------------

def test_is_generic_examples():
    assert is_generic(EigenData(((1, -1),))) is True
    # a repeated eigenvalue at one vertex, and a zero sum across vertices
    assert is_generic(EigenData(((0, 0),))) is False
    assert is_generic(EigenData(((Fraction(1, 2),), (Fraction(-1, 2),)))) is True
    assert is_generic(EigenData(((0,), (0,)))) is False


def test_single_vertex_gamma_one_always_generic():
    assert is_generic(EigenData(((0,),)))


def test_generic_size_limit():
    t = EigenData(((1, 2, 3, 4, 5, 6, 7, 8, -36),))
    with pytest.raises(LimitExceededError):
        is_generic(t)


@given(st.permutations(list(range(4))))
def test_is_generic_invariant_under_reordering(perm):
    base = [Fraction(3), Fraction(-1), Fraction(5, 2), Fraction(-9, 2)]
    t1 = EigenData((tuple(base),))
    t2 = EigenData((tuple(base[i] for i in perm),))
    assert is_generic(t1) == is_generic(t2)


def test_is_generic_finds_a_hidden_zero_subset():
    # 1 + 2 - 3 = 0 hidden inside a trace-zero tuple; no pair collides
    assert is_generic(EigenData(((1, 2, -3, 5, -5),))) is False
    assert is_generic(EigenData(((1, 2, -7, 9, -5),))) is True


# -- sampling ----------------------------------------------------------------------

def test_sample_generic_deterministic_and_verified(suite_quiver):
    n = suite_quiver.vertex_count
    gamma = (2,) + (1,) * (n - 1)
    t1 = sample_generic(gamma, 1)
    t2 = sample_generic(gamma, 1)
    assert t1 == t2
    assert is_generic(t1)
    t3 = sample_generic(gamma, 2)
    assert is_generic(t3)


def test_sample_generic_nonzero_entries_for_unit_pairs():
    t = sample_generic((1, 1), 3)
    assert all(vs[0] != 0 for vs in t.values)
    assert sum(vs[0] for vs in t.values) == 0


def test_sample_generic_rejects_a_zero_or_negative_gamma():
    for gamma in ((0,), (0, 0), (2, -1)):
        with pytest.raises(DomainError):
            sample_generic(gamma, 0)


def test_sampled_lambda_pairing_vanishes():
    for name, q0 in SUITE_HALVES:
        n = q0.vertex_count
        for seed in range(10):
            gamma = ((seed % 3) + 1,) + (1,) * (n - 1)
            t = sample_generic(gamma, seed)
            legs = attach_legs(q0, gamma)
            lam = lambda_from_eigenvalues(t, legs)
            assert sum(g * l for g, l in zip(legs.tilde_gamma, lam)) == 0

import pytest
from hypothesis import given, strategies as st

from quivercoha import DomainError, double, euler_form, quiver_from_spec, sign_twist

from conftest import S1, S2, S3, from_rows


def small_quivers():
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n).map(from_rows))


def symmetric_quivers():
    def symmetrize(q):
        return double(q) if not q.is_symmetric else q
    return small_quivers().map(symmetrize)


def dim_vectors(n, bound=5):
    return st.tuples(*[st.integers(0, bound) for _ in range(n)])


# -- euler_form ---------------------------------------------------------------

def test_euler_form_examples():
    assert euler_form(S2, (1,), (1,)) == -1
    assert euler_form(S1, (4,), (3,)) == 12
    assert euler_form(S3, (1, 0), (0, 1)) == -1


def test_euler_form_rejects_length_mismatch():
    with pytest.raises(DomainError):
        euler_form(S3, (1,), (1, 0))


@given(small_quivers(), st.data())
def test_euler_form_bilinear(q, data):
    n = q.vertex_count
    g1 = data.draw(dim_vectors(n))
    g2 = data.draw(dim_vectors(n))
    g3 = data.draw(dim_vectors(n))
    lhs = euler_form(q, tuple(a + b for a, b in zip(g1, g2)), g3)
    assert lhs == euler_form(q, g1, g3) + euler_form(q, g2, g3)
    rhs = euler_form(q, g1, tuple(a + b for a, b in zip(g2, g3)))
    assert rhs == euler_form(q, g1, g2) + euler_form(q, g1, g3)


@given(symmetric_quivers(), st.data())
def test_euler_form_symmetric_for_symmetric_quivers(q, data):
    n = q.vertex_count
    g1 = data.draw(dim_vectors(n))
    g2 = data.draw(dim_vectors(n))
    assert euler_form(q, g1, g2) == euler_form(q, g2, g1)


# -- double -------------------------------------------------------------------

def test_double_examples():
    assert double(from_rows([[1]])) == from_rows([[2]])
    one_arrow = from_rows([[0, 1], [0, 0]])
    assert double(one_arrow) == S3
    empty = from_rows([[0, 0], [0, 0]])
    assert double(empty) == empty


@given(small_quivers())
def test_double_is_symmetric(q):
    assert double(q).is_symmetric


# -- sign_twist ---------------------------------------------------------------

def _rhs_mod2(q, g1, g2):
    return (euler_form(q, g1, g2)
            + euler_form(q, g1, g1) * euler_form(q, g2, g2)) % 2


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


@pytest.mark.parametrize("loops", [0, 1, 2, 3, 5])
def test_sign_form_single_vertex_any_loops_is_zero(loops):
    q = from_rows([[loops]])
    for g1 in range(6):
        for g2 in range(6):
            assert sign_twist(q, (g1,), (g2,)) == 0
            # oracle: the congruence must then say rhs == 0 for all pairs
            assert _rhs_mod2(q, (g1,), (g2,)) == 0


def test_sign_form_double_a2_is_zero():
    for i in range(2):
        for j in range(2):
            assert sign_twist(S3, _unit(2, i), _unit(2, j)) == 0
            assert _rhs_mod2(S3, _unit(2, i), _unit(2, j)) == 0


def test_sign_form_upper_triangular_convention():
    # loops at vertex 0 flip the diagonal term: rhs(e0, e1) = 1 here
    q = from_rows([[1, 1], [1, 0]])
    assert _rhs_mod2(q, (1, 0), (0, 1)) == 1
    assert sign_twist(q, (1, 0), (0, 1)) == 1
    assert sign_twist(q, (0, 1), (1, 0)) == 0


def test_sign_form_rejects_non_symmetric():
    with pytest.raises(DomainError):
        sign_twist(from_rows([[0, 1], [0, 0]]), (1, 0), (0, 1))
    with pytest.raises(DomainError):
        sign_twist(S3, (1, 0), (1,))


@given(symmetric_quivers(), st.data())
def test_sign_form_congruence_on_random_pairs(q, data):
    n = q.vertex_count
    g1 = data.draw(dim_vectors(n))
    g2 = data.draw(dim_vectors(n))
    lhs = (sign_twist(q, g1, g2) + sign_twist(q, g2, g1)) % 2
    assert lhs == _rhs_mod2(q, g1, g2)


def test_sign_form_congruence_sampled_100_pairs():
    import random
    rng = random.Random(7)
    for q in (S1, S2, S3):
        n = q.vertex_count
        for _ in range(100):
            g1 = tuple(rng.randint(0, 5) for _ in range(n))
            g2 = tuple(rng.randint(0, 5) for _ in range(n))
            assert (sign_twist(q, g1, g2) + sign_twist(q, g2, g1)) % 2 == _rhs_mod2(q, g1, g2)


# -- spec parsing ---------------------------------------------------------------

def test_quiver_from_spec_sums_duplicates():
    q = quiver_from_spec({"vertices": 2, "arrows": [[0, 1, 1], [0, 1, 2], [1, 0, 3]]})
    assert q.arrows == ((0, 1, 3), (1, 0, 3))


def test_quiver_from_spec_errors_carry_location():
    with pytest.raises(DomainError, match=r"\(at arrows\[0\]\)$"):
        quiver_from_spec({"vertices": 2, "arrows": [[0, 5, 1]]})
    with pytest.raises(DomainError, match=r"\(at top level\)$"):
        quiver_from_spec({"arrows": []})
    with pytest.raises(DomainError, match=r"\(at arrows\[0\]\)$"):
        quiver_from_spec({"vertices": 2, "arrows": [[0, 1]]})
    # bool is a subclass of int, but JSON true is not a vertex count or index
    with pytest.raises(DomainError, match=r"\(at vertices\)$"):
        quiver_from_spec({"vertices": True, "arrows": [[0, 0, True]]})
    with pytest.raises(DomainError, match=r"\(at arrows\[0\]\)$"):
        quiver_from_spec({"vertices": 1, "arrows": [[0, 0, True]]})

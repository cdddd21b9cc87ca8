import pytest
from hypothesis import given, strategies as st

from quivercoha import CartanData, DomainError, Quiver, is_positive_root, tits_form
from quivercoha.roots import nonvanishing_certificate

from conftest import S1_HALF, S2_HALF, S3_HALF, S4_HALF

A2 = CartanData.from_quiver(Quiver.from_lists([[0, 1], [0, 0]]))
LOOP = CartanData.from_quiver(Quiver.loop_quiver(1))
LEG_A2 = A2   # the leg graph of one loop-free vertex with gamma = 2


# -- Tits form ---------------------------------------------------------------------

def test_tits_form_examples():
    assert tits_form(A2, (1, 1)) == 1
    for n in range(5):
        assert tits_form(LOOP, (n,)) == 0
    assert tits_form(LEG_A2, (2, 1)) == 3


def test_bilinear_vs_quadratic_identity():
    graphs = [A2, LOOP, CartanData.from_quiver(Quiver.from_lists([[1, 2], [0, 0]]))]
    vectors = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]
    for cartan in graphs:
        n = cartan.vertex_count
        for beta in vectors:
            beta = beta[:n] if n <= len(beta) else beta + (1,) * (n - len(beta))
            pair = sum(beta[v] * cartan.pairing(beta, v) for v in range(n))
            assert pair == 2 * tits_form(cartan, beta)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_reflection_preserves_tits_form(beta):
    if not any(beta):
        return
    for cartan in (A2, CartanData.from_quiver(Quiver.from_lists([[0, 2], [0, 0]]))):
        for v in range(2):
            if cartan.loops[v]:
                continue
            reflected = list(beta)
            reflected[v] -= cartan.pairing(beta, v)
            assert tits_form(cartan, reflected) == tits_form(cartan, beta)


# -- positive-root decision -----------------------------------------------------------

def test_root_a2_examples():
    ok, cert = is_positive_root(A2, (1, 1))
    assert ok and cert.kind == "real" and cert.reflections == (0,)
    ok, cert = is_positive_root(A2, (2, 1))
    assert not ok and cert.kind == "not_root"
    assert min(cert.witness) < 0


def test_root_single_loop_vertex_all_imaginary():
    for n in range(1, 6):
        ok, cert = is_positive_root(LOOP, (n,))
        assert ok and cert.kind == "imaginary"


def test_root_simple_real():
    ok, cert = is_positive_root(A2, (1, 0))
    assert ok and cert.kind == "real" and cert.reflections == ()


def test_root_rejects_bad_input():
    with pytest.raises(DomainError):
        is_positive_root(A2, (0, 0))
    with pytest.raises(DomainError):
        is_positive_root(A2, (1, -1))


def test_root_disconnected_support_rejected():
    path3 = CartanData.from_quiver(Quiver.from_lists(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    ok, cert = is_positive_root(path3, (1, 0, 1))
    assert not ok and cert.kind == "not_root"


def test_root_disconnected_fundamental_candidate_rejected():
    # loops at the two ends, loop-free middle: (1, 0, 1) has all pairings <= 0
    # but disconnected support, hence is not a root
    graph = CartanData.from_quiver(Quiver.from_lists(
        [[1, 1, 0], [0, 0, 1], [0, 0, 1]]))
    ok, cert = is_positive_root(graph, (1, 0, 1))
    assert not ok
    # and the vector reflecting onto it is not a root either
    ok2, _ = is_positive_root(graph, (1, 2, 1))
    assert not ok2


def _replay(cartan, beta, cert):
    current = list(beta)
    for v in cert.reflections:
        assert cartan.loops[v] == 0
        current[v] -= cartan.pairing(current, v)
    return tuple(current)


def test_certificates_replay():
    cases = [(A2, (1, 1)), (A2, (2, 1)), (A2, (3, 2)), (LOOP, (4,)),
             (CartanData.from_quiver(Quiver.from_lists([[0, 2], [0, 0]])), (1, 1)),
             (CartanData.from_quiver(Quiver.from_lists([[0, 2], [0, 0]])), (2, 1))]
    for cartan, beta in cases:
        ok, cert = is_positive_root(cartan, beta)
        final = _replay(cartan, beta, cert)
        assert final == cert.witness
        if cert.kind == "real":
            assert sorted(final, reverse=True)[0] == 1 and sum(final) == 1
        elif cert.kind == "imaginary":
            n = cartan.vertex_count
            assert all(cartan.pairing(final, v) <= 0
                       for v in range(n) if final[v] and not cartan.loops[v])
        else:
            assert min(final) < 0 or not ok


# -- the nonvanishing criterion ----------------------------------------------------

def test_nonvanishing_loop_free_vertex():
    assert nonvanishing_certificate(S1_HALF, (1,))[0] is True
    assert nonvanishing_certificate(S1_HALF, (2,))[0] is False
    ok, cert = nonvanishing_certificate(S1_HALF, (2,))
    assert cert.kind == "not_root"


def test_nonvanishing_one_loop_all_gamma():
    for n in range(1, 5):
        assert nonvanishing_certificate(S2_HALF, (n,))[0] is True
        ok, cert = nonvanishing_certificate(S2_HALF, (n,))
        assert cert.kind == "imaginary"


def test_nonvanishing_a2_and_kronecker():
    assert nonvanishing_certificate(S3_HALF, (1, 1))[0] is True
    assert nonvanishing_certificate(S3_HALF, (2, 1))[0] is False
    assert nonvanishing_certificate(S4_HALF, (1, 1))[0] is True
    assert nonvanishing_certificate(S4_HALF, (2, 2))[0] is True


def test_nonvanishing_rejects_zero():
    with pytest.raises(DomainError):
        nonvanishing_certificate(S1_HALF, (0,))

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quivercoha import DomainError, Quiver, double, dt_report, euler_form, is_positive_root
from quivercoha.roots import nonvanishing_certificate

from conftest import S1_HALF, S2_HALF, S3_HALF, S4_HALF, random_half_quivers

A2 = Quiver.from_lists([[0, 1], [0, 0]])
LOOP = Quiver(((1,),))
LEG_A2 = A2   # the leg graph of one loop-free vertex with gamma = 2
KRONECKER = Quiver.from_lists([[0, 2], [0, 0]])


def _unit(n, v):
    return tuple(int(u == v) for u in range(n))


def tits(q, x):
    """chi(x, x) through euler_form, which takes vectors >= 0 only: split x
    into its positive and negative parts and expand bilinearly."""
    p = tuple(max(c, 0) for c in x)
    m = tuple(max(-c, 0) for c in x)
    return (euler_form(q, p, p) - euler_form(q, p, m)
            - euler_form(q, m, p) + euler_form(q, m, m))


def pairing(q, beta, v):
    """(beta, e_v) = chi(beta, e_v) + chi(e_v, beta), for beta >= 0."""
    e = _unit(q.vertex_count, v)
    return euler_form(q, tuple(beta), e) + euler_form(q, e, tuple(beta))


# -- Tits form ---------------------------------------------------------------------

def test_tits_form_examples():
    assert tits(A2, (1, 1)) == 1
    for n in range(5):
        assert tits(LOOP, (n,)) == 0
    assert tits(LEG_A2, (2, 1)) == 3


def test_bilinear_vs_quadratic_identity():
    graphs = [A2, LOOP, Quiver.from_lists([[1, 2], [0, 0]])]
    vectors = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]
    for q in graphs:
        n = q.vertex_count
        for beta in vectors:
            beta = beta[:n] if n <= len(beta) else beta + (1,) * (n - len(beta))
            pair = sum(beta[v] * pairing(q, beta, v) for v in range(n))
            assert pair == 2 * tits(q, beta)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_reflection_preserves_tits_form(beta):
    if not any(beta):
        return
    for q in (A2, KRONECKER):
        for v in range(2):
            if q.arrows[v][v]:
                continue
            reflected = list(beta)
            reflected[v] -= pairing(q, beta, v)
            assert tits(q, reflected) == tits(q, beta)


# -- positive-root decision -----------------------------------------------------------

def test_root_a2_examples():
    cert = is_positive_root(A2, (1, 1))
    assert cert.result and cert.kind == "real" and cert.reflections == (0,)
    cert = is_positive_root(A2, (2, 1))
    assert not cert.result and cert.kind == "not_root"
    assert min(cert.witness) < 0


def test_root_single_loop_vertex_all_imaginary():
    for n in range(1, 6):
        cert = is_positive_root(LOOP, (n,))
        assert cert.result and cert.kind == "imaginary"


def test_root_simple_real():
    cert = is_positive_root(A2, (1, 0))
    assert cert.result and cert.kind == "real" and cert.reflections == ()


def test_root_rejects_bad_input():
    with pytest.raises(DomainError):
        is_positive_root(A2, (0, 0))
    with pytest.raises(DomainError):
        is_positive_root(A2, (1, -1))


def test_root_disconnected_support_rejected():
    path3 = Quiver.from_lists([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cert = is_positive_root(path3, (1, 0, 1))
    assert not cert.result and cert.kind == "not_root"


def test_root_disconnected_fundamental_candidate_rejected():
    # loops at the two ends, loop-free middle: (1, 0, 1) has all pairings <= 0
    # but disconnected support, hence is not a root
    graph = Quiver.from_lists([[1, 1, 0], [0, 0, 1], [0, 0, 1]])
    assert not is_positive_root(graph, (1, 0, 1)).result
    # and the vector reflecting onto it is not a root either
    assert not is_positive_root(graph, (1, 2, 1)).result


def _replay(q, beta, cert):
    current = list(beta)
    for v in cert.reflections:
        assert q.arrows[v][v] == 0
        current[v] -= pairing(q, current, v)
    return tuple(current)


def test_certificates_replay():
    cases = [(A2, (1, 1)), (A2, (2, 1)), (A2, (3, 2)), (LOOP, (4,)),
             (KRONECKER, (1, 1)), (KRONECKER, (2, 1))]
    for q, beta in cases:
        cert = is_positive_root(q, beta)
        final = _replay(q, beta, cert)
        assert final == cert.witness
        if cert.kind == "real":
            assert sorted(final, reverse=True)[0] == 1 and sum(final) == 1
        elif cert.kind == "imaginary":
            n = q.vertex_count
            assert all(pairing(q, final, v) <= 0
                       for v in range(n) if final[v] and not q.arrows[v][v])
        else:
            assert min(final) < 0 or not cert.result


# -- literature anchor: Gabriel and Kac ------------------------------------------------

def _arrows(n, edges):
    mat = [[0] * n for _ in range(n)]
    for i, j in edges:
        mat[i][j] += 1
    return Quiver.from_lists(mat)


# Gabriel: the positive roots of a Dynkin quiver are the beta > 0 with
# chi(beta, beta) = 1 (Manuscripta Math. 6 (1972)).
DYNKIN = [
    ("A3", _arrows(3, [(0, 1), (1, 2)])),
    ("D4", _arrows(4, [(0, 3), (1, 3), (2, 3)])),
    ("A4-alternating", _arrows(4, [(0, 1), (2, 1), (2, 3)])),
]
# Kac: the positive roots of a Euclidean quiver are the beta > 0 with
# chi(beta, beta) <= 1, real for 1 and imaginary (multiples of delta) for 0
# (Invent. Math. 56 (1980)); the Jordan quiver (one loop) has every beta > 0.
EUCLIDEAN = [
    ("Kronecker", KRONECKER),
    ("A2-tilde", _arrows(3, [(0, 1), (1, 2), (2, 0)])),
    ("D4-tilde", _arrows(5, [(0, 4), (1, 4), (2, 4), (4, 3)])),
    ("Jordan", LOOP),
]


@pytest.mark.parametrize("name,q,bound", [(name, q, 1) for name, q in DYNKIN]
                         + [(name, q, 0) for name, q in EUCLIDEAN],
                         ids=[name for name, _ in DYNKIN + EUCLIDEAN])
def test_roots_match_gabriel_and_kac(name, q, bound):
    # roots are the beta with bound <= chi(beta, beta) <= 1, on the box with
    # entries <= 4 (up to 3 vertices) or <= 3
    n = q.vertex_count
    top = 4 if n <= 3 else 3
    for beta in product(range(top + 1), repeat=n):
        if not any(beta):
            continue
        cert = is_positive_root(q, beta)
        chi = euler_form(q, beta, beta)
        assert cert.result == (bound <= chi <= 1), (name, beta)
        if cert.result:
            assert cert.kind == ("real" if chi == 1 else "imaginary"), (name, beta)


# -- the nonvanishing criterion ----------------------------------------------------

def test_nonvanishing_loop_free_vertex():
    assert nonvanishing_certificate(S1_HALF, (1,)).result is True
    cert = nonvanishing_certificate(S1_HALF, (2,))
    assert cert.result is False and cert.kind == "not_root"


def test_nonvanishing_one_loop_all_gamma():
    for n in range(1, 5):
        cert = nonvanishing_certificate(S2_HALF, (n,))
        assert cert.result is True and cert.kind == "imaginary"


def test_nonvanishing_a2_and_kronecker():
    assert nonvanishing_certificate(S3_HALF, (1, 1)).result is True
    assert nonvanishing_certificate(S3_HALF, (2, 1)).result is False
    assert nonvanishing_certificate(S4_HALF, (1, 1)).result is True
    assert nonvanishing_certificate(S4_HALF, (2, 2)).result is True


def test_nonvanishing_rejects_zero():
    with pytest.raises(DomainError):
        nonvanishing_certificate(S1_HALF, (0,))


@settings(deadline=None, max_examples=100)
@given(random_half_quivers())
def test_nonvanishing_certificate_is_a_root_exactly_when_omega_is_nonzero(case):
    # a nonzero Omega(gamma) has the term 1 q^(chi/2), so once every window
    # reaches chi(gamma, gamma) the series route decides Omega != 0
    q0, gmax = case
    quiver, qtrunc = double(q0), 1
    omegas = dt_report(quiver, gmax, qtrunc)
    while any(s.hi < euler_form(quiver, g, g) for g, s in omegas.items()):
        qtrunc *= 2
        omegas = dt_report(quiver, gmax, qtrunc)
    for gamma, series in omegas.items():
        assert nonvanishing_certificate(q0, gamma).result == (not series.is_zero()), gamma

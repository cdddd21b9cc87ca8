"""Every number a mode reports for gamma depends only on the full subquiver
on the support of gamma: padding a quiver with vertices outside supp(gamma-max),
joined to the rest and to each other by arrows and loops, changes none of them."""

from hypothesis import given, settings, strategies as st

from quivercoha import (Quiver, basis, double, dt_report, enumerate_dim_vectors, euler_form,
                        prim_dims, sign_twist)
from quivercoha.coha import Cell, complement_basis
from quivercoha.roots import nonvanishing_certificate

from conftest import random_half_quivers


@st.composite
def padded_half_quivers(draw):
    """(q0, gamma_max, padded, embed): a random half quiver q0 with loops and
    its box, and the same quiver with 1-3 extra vertices slotted in at random
    places, each carrying loops and arrows to and from every vertex;
    embed(g) places a vector of q0 on the padded vertex set."""
    q0, gmax = draw(random_half_quivers())
    n = q0.vertex_count
    extra = draw(st.integers(1, 3))
    order = draw(st.permutations([True] * n + [False] * extra))   # True: a vertex of q0
    pos = [v for v, old in enumerate(order) if old]
    pads = [v for v, old in enumerate(order) if not old]
    arrows = [(pos[i], pos[j], m) for i, j, m in q0.arrows]
    for p in pads:
        for v in range(n + extra):
            arrows.append((p, v, draw(st.integers(0, 2))))
            arrows.append((v, p, draw(st.integers(0, 2))))
    padded = Quiver(n + extra, arrows)

    def embed(g):
        out = [0] * (n + extra)
        for i, x in zip(pos, g):
            out[i] = x
        return tuple(out)

    return q0, gmax, padded, embed


@settings(deadline=None, max_examples=200)
@given(padded_half_quivers(), st.data())
def test_forms_and_roots_ignore_vertices_outside_the_supports(case, data):
    q0, gmax, padded, embed = case
    box = enumerate_dim_vectors(gmax)
    g1, g2 = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    assert euler_form(padded, embed(g1), embed(g2)) == euler_form(q0, g1, g2)
    doubled, padded_double = double(q0), double(padded)
    assert (euler_form(padded_double, embed(g1), embed(g2))
            == euler_form(doubled, g1, g2))
    assert (sign_twist(padded_double, embed(g1), embed(g2))
            == sign_twist(doubled, g1, g2))
    # the pads join the support's vertices, so a connectivity test that
    # strays off the support would find a disconnected support connected
    cert = nonvanishing_certificate(q0, g1)
    padded_cert = nonvanishing_certificate(padded, embed(g1))
    assert (padded_cert.result, padded_cert.kind) == (cert.result, cert.kind)


@settings(deadline=None, max_examples=30)
@given(padded_half_quivers())
def test_reports_ignore_vertices_outside_gamma_max(case):
    q0, gmax, padded, embed = case
    omega = dt_report(double(q0), gmax, 6)
    padded_omega = dt_report(double(padded), embed(gmax), 6)
    assert list(padded_omega) == [embed(g) for g in omega]
    assert list(padded_omega.values()) == list(omega.values())
    for gamma in enumerate_dim_vectors(gmax):
        if sum(gamma) <= 2:
            chi = euler_form(double(q0), gamma, gamma)
            assert (prim_dims(double(padded), embed(gamma), chi + 4)
                    == prim_dims(double(q0), gamma, chi + 4))


def test_pads_do_not_join_a_disconnected_support():
    # two looped vertices without arrows between them: (1, 1) is not a root,
    # and a pad vertex joined to both, outside the support, keeps it so
    q0 = Quiver(2, [(0, 0, 1), (1, 1, 1)])
    padded = Quiver(3, [(0, 0, 1), (0, 1, 1), (1, 2, 1), (2, 2, 1)])
    assert nonvanishing_certificate(q0, (1, 1)).kind == "not_root"
    assert nonvanishing_certificate(padded, (1, 0, 1)).kind == "not_root"


def test_cells_ignore_zero_entries_of_gamma():
    # a shape holds one partition per vertex of the support of gamma, and an
    # empty block has no variables, so zero entries change no cell
    def elements(build, gamma, d):
        return [list(e.terms()) for e in build(gamma, d)]

    for padded in [(0, 2, 0, 1), (2, 0, 1), (2, 1, 0)]:
        for d in range(5):
            cell, plain = Cell(padded, d), Cell((2, 1), d)
            assert cell.shapes == plain.shapes
            for build in (basis, complement_basis):
                assert elements(build, padded, d) == elements(build, (2, 1), d)
            (below, reduce), (plain_below, plain_reduce) = cell.p1_reducer(), plain.p1_reducer()
            assert below == plain_below
            assert list(cell._p1_rows()) == list(plain._p1_rows())
            assert ([reduce(e) for e in basis(padded, d)]
                    == [plain_reduce(e) for e in basis((2, 1), d)])

"""Hom-vanishing conditions and exterior-square decompositions."""

from __future__ import annotations

import pytest

from krlib import charlib, homcheck, krset, twisted
from krlib.errors import TheoremCheckError
from krlib.rootsys import LieType, build

B3 = build(LieType("B", 3))
B4 = build(LieType("B", 4))
C2 = build(LieType("C", 2))
C3 = build(LieType("C", 3))
D4 = build(LieType("D", 4))
D5 = build(LieType("D", 5))


def test_walk_checks_each_one_step_hom_is_nonzero(monkeypatch):
    # every Hom count comes back 0, the first one-step count included
    monkeypatch.setattr(charlib, "hom_dim", lambda rs, factors, target: 0)
    with pytest.raises(TheoremCheckError, match=r"^adjoint step \(0, 2, 0\) -> \(2, 0, 0\) has Hom dimension 0$"):
        homcheck.cond_untwisted(C3, 2)


def tdata(family, rank):
    return twisted.fixed_point_data(twisted.outer_from_ambient(family, rank))


# ----------------------------------------------------------- untwisted chains


def test_cond_untwisted_examples():
    rep = homcheck.cond_untwisted(C2, 1)
    assert rep.next_step == (1,) and rep.two_step == ()
    rep = homcheck.cond_untwisted(C3, 2)
    assert len(rep.next_step) == 2 and all(d >= 1 for d in rep.next_step)
    assert rep.two_step == (0,)
    rep = homcheck.cond_untwisted(B4, 3)
    assert rep.next_step == (1,) and rep.two_step == ()
    assert rep.ok


def test_cond_untwisted_rejects_singleton_node():
    with pytest.raises(ValueError):
        homcheck.cond_untwisted(C2, 2)  # epsilon = 1 there


def test_cond_untwisted_sweep():
    cases = (
        [(build(LieType("C", n)), i) for n in range(2, 6) for i in range(1, n)]
        + [(build(LieType("B", n)), i) for n in range(3, 6) for i in range(2, n + 1)]
        + [(build(LieType("D", n)), i) for n in range(4, 6) for i in range(2, n - 1)]
    )
    for rs, i in cases:
        assert homcheck.cond_untwisted(rs, i).ok


def test_two_step_hom_is_the_walk_count():
    # the count modforge gates t^2 on is the one cond_untwisted requires to
    # vanish; the chain (0, theta, theta) has a nonzero one
    for rs, i in [(C3, 2), (build(LieType("C", 4)), 3), (B4, 2)]:
        rep = homcheck.cond_untwisted(rs, i)
        chain = rep.chain
        assert tuple(homcheck.two_step_hom(rs, chain[s], chain[s + 2]) for s in range(len(chain) - 2)) == rep.two_step
    theta = C3.root_weight(C3.theta)
    assert homcheck.two_step_hom(C3, C3.zero(), theta) == 1


def test_next_step_hom_agrees_with_stripping():
    adj = charlib.adjoint_char(C3)
    chain = krset.enumerate_chain(C3, 2).weights
    for s in range(len(chain) - 1):
        via_klimyk = charlib.hom_dim(C3, [adj, chain[s]], chain[s + 1])
        full = charlib.char_product(adj, charlib.weight_mults(C3, chain[s]))
        via_strip = charlib.decompose_character(C3, full).get(chain[s + 1], 0)
        assert via_klimyk == via_strip


# ------------------------------------------------------ exterior square: adjoint


def test_wedge_adjoint_nu_examples():
    assert homcheck.wedge_adjoint_nu(C2) == (2, 1)
    assert homcheck.wedge_adjoint_nu(B3) == (1, 0, 2)
    assert homcheck.wedge_adjoint_nu(D5) == (1, 0, 1, 0, 0)
    assert homcheck.wedge_adjoint_nu(D4) == (1, 0, 1, 1)
    assert homcheck.wedge_adjoint_nu(B4) == (1, 0, 1, 0)


def test_wedge_adjoint_dimension_identity():
    for rs in (C2, C3, B3, B4, D4, D5):
        nu = homcheck.wedge_adjoint_nu(rs)
        g = charlib.weyl_dim(rs, rs.root_weight(rs.theta))
        assert g * (g - 1) // 2 == g + charlib.weyl_dim(rs, nu)


def test_wedge_adjoint_nu_rejects_low_rank():
    with pytest.raises(ValueError):
        homcheck.wedge_adjoint_nu(build(LieType("B", 2)))


# ----------------------------------------------------- exterior square: odd part


def test_wedge_g1_decomp_examples():
    rep = homcheck.wedge_g1_decomp(tdata("A", 2))
    assert rep.as_dict() == {(2,): 1, (6,): 1}  # dims 3 + 7 = C(5,2)
    rep = homcheck.wedge_g1_decomp(tdata("D", 4))
    assert rep.nu is None
    assert rep.as_dict() == {(0, 1, 0): 1}  # adjoint of B_3, dim 21
    rep = homcheck.wedge_g1_decomp(tdata("A", 5))
    assert rep.nu == (1, 0, 1)
    assert (1, 0, 1) in rep.as_dict()


def test_wedge_g1_decomp_sweep_with_dimension_count():
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                         ("D", 3), ("D", 4), ("D", 5)]:
        data = tdata(family, rank)
        rep = homcheck.wedge_g1_decomp(data)
        d1 = charlib.weyl_dim(data.g0, data.phi)
        total = sum(
            charlib.weyl_dim(data.g0, w) * m for w, m in rep.as_dict().items()
        )
        assert total == d1 * (d1 - 1) // 2


def test_wedge_g1_a3_is_adjoint_only():
    rep = homcheck.wedge_g1_decomp(tdata("A", 3))
    assert rep.nu is None
    assert rep.as_dict() == {(2, 0): 1}  # adjoint of C_2


def full_route_message(rs, g1, nu, what):
    """The wedge check's message when ext^2(g1) is stripped by whole simple
    characters (decompose_character), the oracle for the dominant route."""
    got = charlib.decompose_character(rs, charlib.ext_square(rs, g1))
    want = {rs.root_weight(rs.theta): 1, nu: 1}
    return f"{what} decomposes as {got}, expected {want}"


def test_wedge_check_fails_as_the_full_character_route(monkeypatch):
    # a planted wrong nu: decomposing the dominant part of ext^2 gives the
    # same decomposition, in the same order, as the full character
    monkeypatch.setitem(homcheck._NU_SPECIAL, ("B", 3), (1, 0, 0))
    with pytest.raises(TheoremCheckError) as err:
        homcheck.wedge_adjoint_nu(B3)
    adj = charlib.adjoint_char(B3)
    assert str(err.value) == full_route_message(B3, adj, (1, 0, 0), "ext^2(adjoint) of B3")

    data = tdata("A", 5)
    monkeypatch.setattr(homcheck, "wedge_g1_nu", lambda d: (0, 1, 0))
    with pytest.raises(TheoremCheckError) as err:
        homcheck.wedge_g1_decomp(data)
    g1 = charlib.weight_mults(data.g0, data.phi)
    want = full_route_message(data.g0, g1, (0, 1, 0), f"ext^2(g1) of {data.outer.label}")
    assert str(err.value) == want


# ------------------------------------------------------------- twisted chains


def test_cond_twisted_examples():
    rep = homcheck.cond_twisted(tdata("D", 5), 2)
    assert rep.ok and len(rep.next_step) == 2
    rep = homcheck.cond_twisted(tdata("A", 4), 2)
    assert rep.ok
    assert all(d >= 1 for d in rep.next_step)
    assert rep.two_step == (0,)


def test_cond_twisted_three_step_runs_for_d5():
    rep = homcheck.cond_twisted(tdata("D", 5), 3)
    assert rep.three_step == (0, 0)  # omega_1 and omega_1+omega_2 probes
    assert rep.ok


def test_cond_twisted_sweep_all_nodes():
    for family, rank in [("A", 3), ("A", 4), ("A", 5), ("A", 6),
                         ("D", 3), ("D", 4), ("D", 5)]:
        data = tdata(family, rank)
        for i in range(1, data.g0.rank + 1):
            assert homcheck.cond_twisted(data, i).ok


def test_triple_decomp_d5():
    data = tdata("D", 5)
    got = homcheck.triple_decomp(data)
    assert got == {(1, 1, 0, 0): 1, (0, 0, 1, 0): 1, (1, 0, 0, 0): 1}
    with pytest.raises(ValueError):
        homcheck.triple_decomp(tdata("D", 4))


def test_cond_twisted_detects_planted_failure(monkeypatch):
    # a fake chain with equal endpoints forces a nonzero two-step Hom
    data = tdata("A", 4)
    good = twisted.enumerate_chain_sigma(data, 2).weights

    class FakeChain:
        weights = (good[0], good[1], good[0])

    monkeypatch.setattr(twisted, "enumerate_chain_sigma", lambda d, i: FakeChain())
    with pytest.raises(TheoremCheckError):
        homcheck.cond_twisted(data, 2)

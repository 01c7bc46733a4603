"""Fixed-point data and twisted graded characters."""

from __future__ import annotations

import pytest

from krlib import charlib, krset, twisted
from krlib.errors import ChainConditionError
from krlib.rootsys import LieType

A2 = twisted.fixed_point_data(twisted.OuterType("A_even", 1))
A3 = twisted.fixed_point_data(twisted.OuterType("A_odd", 2))
A4 = twisted.fixed_point_data(twisted.OuterType("A_even", 2))
A5 = twisted.fixed_point_data(twisted.OuterType("A_odd", 3))
A6 = twisted.fixed_point_data(twisted.OuterType("A_even", 3))
D3 = twisted.fixed_point_data(twisted.OuterType("D", 2))
D4 = twisted.fixed_point_data(twisted.OuterType("D", 3))
D5 = twisted.fixed_point_data(twisted.OuterType("D", 4))

ALL = [A2, A3, A4, A5, A6, D3, D4, D5] + [
    twisted.fixed_point_data(twisted.OuterType(fam, 5))
    for fam in ("A_odd", "A_even", "D")
]


def fw(data, i, mult=1):
    return data.g0.fundamental(i, mult)


# ------------------------------------------------------------ fixed-point data


def test_g0_families():
    assert A5.g0.type == LieType("C", 3)
    assert A4.g0.type == LieType("B", 2)
    assert D4.g0.type == LieType("B", 3)
    assert A2.g0.type == LieType("A", 1)
    assert D3.g0.type == LieType("B", 2)


def test_outer_from_ambient():
    assert twisted.outer_from_ambient("A", 5) == twisted.OuterType("A_odd", 3)
    assert twisted.outer_from_ambient("A", 4) == twisted.OuterType("A_even", 2)
    assert twisted.outer_from_ambient("D", 4) == twisted.OuterType("D", 3)
    for fam, rank in [("A", 1), ("D", 2), ("B", 3), ("C", 4)]:
        with pytest.raises(ValueError):
            twisted.outer_from_ambient(fam, rank)


def test_outer_labels():
    assert twisted.OuterType("A_odd", 3).label == "A5~"
    assert twisted.OuterType("A_even", 1).label == "A2~"
    assert twisted.OuterType("D", 4).label == "D5~"


def test_dsigma_table():
    assert A4.dsigma == (2, 4)
    assert A6.dsigma == (2, 2, 4)
    assert A2.dsigma == (4,)
    for data in ALL:
        if data.outer.family != "A_even":
            assert data.dsigma == (1,) * data.g0.rank


def test_phi_values():
    assert A5.phi == (0, 1, 0)  # highest short root of C_3
    assert D4.phi == (1, 0, 0)  # highest short root of B_3
    assert A4.phi == (2, 0)  # doubled
    assert A2.phi == (4,)


def test_phi_dimension_is_codimension_of_g0():
    expect = {"A5~": 14, "A4~": 14, "D4~": 7, "A2~": 5, "A3~": 5}
    for data in ALL:
        dim = charlib.weyl_dim(data.g0, data.phi)
        if data.outer.label in expect:
            assert dim == expect[data.outer.label]


def test_r1_contents():
    # A_even: R0+ plus doubled short roots
    b2 = A4.g0
    shorts = [rc for rc in b2.positive_roots
              if b2.twice_inner_root(b2.root_weight(rc), rc) == 2]
    assert set(b2.positive_roots) <= A4.r1_positive
    for rc in shorts:
        assert tuple(2 * c for c in rc) in A4.r1_positive
    assert len(A4.r1_positive) == len(b2.positive_roots) + len(shorts)
    # other families: exactly the short positive roots
    c3 = A5.g0
    assert A5.r1_positive == frozenset(
        rc for rc in c3.positive_roots
        if c3.twice_inner_root(c3.root_weight(rc), rc) == 2
    )
    assert len(D4.r1_positive) == 3  # e_1, e_2, e_3 in B_3
    assert A2.r1_positive == frozenset([(1,), (2,)])


def test_outer_type_validation():
    with pytest.raises(ValueError):
        twisted.OuterType("A_odd", 1)
    with pytest.raises(ValueError):
        twisted.OuterType("D", 1)
    with pytest.raises(ValueError):
        twisted.OuterType("E", 3)


# -------------------------------------------------------------- base sets


def test_base_set_sigma_examples():
    assert twisted.base_set_sigma(A4, 2, 4) == {fw(A4, 2, 4), fw(A4, 1, 2), A4.g0.zero()}
    assert twisted.base_set_sigma(A4, 2, 3) == {fw(A4, 2, 3)}
    assert twisted.base_set_sigma(D4, 2, 1) == {fw(D4, 2), fw(D4, 1), D4.g0.zero()}
    assert twisted.base_set_sigma(A5, 2, 1) == {fw(A5, 2), A5.g0.zero()}
    assert twisted.base_set_sigma(A5, 3, 1) == {fw(A5, 3), fw(A5, 1)}
    assert twisted.base_set_sigma(D4, 3, 1) == {fw(D4, 3)}
    assert twisted.base_set_sigma(A4, 1, 2) == {fw(A4, 1, 2), A4.g0.zero()}
    assert twisted.base_set_sigma(A2, 1, 4) == {fw(A2, 1, 4), A2.g0.zero()}
    assert twisted.base_set_sigma(A2, 1, 3) == {fw(A2, 1, 3)}


def test_base_set_sigma_range():
    with pytest.raises(ValueError):
        twisted.base_set_sigma(A5, 2, 2)
    with pytest.raises(ValueError):
        twisted.base_set_sigma(A4, 2, 5)
    with pytest.raises(ValueError):
        twisted.base_set_sigma(A4, 1, 0)


# ----------------------------------------------------------------- chains


def test_chain_examples():
    assert twisted.enumerate_chain_sigma(D4, 2).weights == (
        (0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert twisted.enumerate_chain_sigma(A4, 2).weights == (
        (0, 4), (2, 0), (0, 0))
    ch = twisted.enumerate_chain_sigma(A5, 1)
    assert ch.weights == ((1, 0, 0),) and ch.k == 0


def test_chain_differences_land_in_r1():
    for data in ALL:
        for i in range(1, data.g0.rank + 1):
            chain = twisted.enumerate_chain_sigma(data, i)
            for s in range(chain.k):
                diff = tuple(a - b for a, b in zip(chain[s], chain[s + 1]))
                assert data.g0.int_root_coords(diff) in data.r1_positive


def test_chain_rejects_wrong_order():
    # a shuffled D chain violates the one-step condition
    g0 = D4.g0
    bad = ((0, 1, 0), (0, 0, 0), (1, 0, 0))
    with pytest.raises(ChainConditionError):
        krset.verify_chain_conditions(
            bad,
            lambda d: g0.int_root_coords(d) in D4.r1_positive,
            lambda d: True,
        )


# ------------------------------------------------------------------- pplus


def test_pplus_sigma_recursion_examples():
    assert krset.kr_pplus(A4.kr, 2, 4) == {(0, 4), (2, 0), (0, 0)}
    assert krset.kr_pplus(A4.kr, 2, 5) == {(0, 5), (2, 1), (0, 1)}
    assert krset.kr_pplus(D4.kr, 3, 2) == {(0, 0, 2)}
    assert krset.kr_pplus(A5.kr, 1, 3) == {(3, 0, 0)}
    assert krset.kr_pplus(D4.kr, 1, 2) == {(2, 0, 0), (1, 0, 0), (0, 0, 0)}


def test_pplus_sigma_dominant_and_below():
    for data in ALL:
        g0 = data.g0
        for i in range(1, g0.rank + 1):
            d = data.dsigma[i - 1]
            for m in range(1, 2 * d + 1):
                top = fw(data, i, m)
                for mu in krset.kr_pplus(data.kr, i, m):
                    assert g0.dominant(mu)
                    diff = tuple(a - b for a, b in zip(top, mu))
                    rc = g0.int_root_coords(diff)
                    assert rc is not None and all(c >= 0 for c in rc)


# -------------------------------------------------- grading and ev predicate


def test_graded_character_sigma_examples():
    assert twisted.graded_character_sigma(A4, 2, 4).as_dict() == {
        0: {(0, 4): 1}, 1: {(2, 0): 1}, 2: {(0, 0): 1}}
    assert twisted.graded_character_sigma(D4, 3, 2).as_dict() == {0: {(0, 0, 2): 1}}
    gc = twisted.graded_character_sigma(A5, 1, 3)
    assert [s for s, _ in gc.by_grade] == [0]


def test_reduced_expression_sigma():
    assert krset.reduced_expression(A4.kr, 2, 4, (0, 4)) == (0,)
    assert krset.reduced_expression(A4.kr, 2, 4, (2, 0)) == (1,)
    assert krset.reduced_expression(A4.kr, 2, 8, (0, 0)) == (2, 2)
    with pytest.raises(ValueError):
        krset.reduced_expression(A4.kr, 2, 4, (1, 1))


def test_graded_character_sigma_sweep_multiplicity_free():
    for data in ALL:
        for i in range(1, data.g0.rank + 1):
            d = data.dsigma[i - 1]
            for m in range(1, 2 * d + 2):
                gc = twisted.graded_character_sigma(data, i, m)
                assert gc.piece(0) == {fw(data, i, m): 1}
                seen = set()
                for _, ws in gc.by_grade:
                    for w in ws:
                        assert w not in seen
                        seen.add(w)
                assert seen == set(krset.kr_pplus(data.kr, i, m))


def is_ev_case(data, i):
    """The chain is a single weight, so every level stays in grade 0 and the
    module is an evaluation module."""
    return twisted.enumerate_chain_sigma(data, i).k == 0


def test_ev_case_predicate():
    assert is_ev_case(D5, 4)
    assert is_ev_case(A5, 1)
    assert not is_ev_case(A4, 2)
    for data in ALL:
        n = data.g0.rank
        for i in range(1, n + 1):
            expect = (data.outer.family == "D" and i == n) or (
                data.outer.family == "A_odd" and i == 1
            )
            assert is_ev_case(data, i) == expect

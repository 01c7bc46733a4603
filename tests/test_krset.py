"""Base sets, chains, reduced expressions and graded characters."""

from __future__ import annotations

import re
from itertools import product
from math import comb

import pytest

from krlib import charlib, cli, krset, twisted
from krlib.errors import ChainConditionError, TheoremCheckError
from krlib.rootsys import LieType, build

A3 = build(LieType("A", 3))
B3 = build(LieType("B", 3))
B4 = build(LieType("B", 4))
C2 = build(LieType("C", 2))
C3 = build(LieType("C", 3))
D4 = build(LieType("D", 4))
D5 = build(LieType("D", 5))

SWEEP = [
    build(LieType(f, n))
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 6)
]


def reflect(rs, lam, i):
    """Simple reflection s_i on fundamental coordinates."""
    c = lam[i - 1]
    return tuple(a - c * b for a, b in zip(lam, rs.cartan[i - 1]))


def expand(rs, dchar):
    """Weight character of a sum of simples, highest weight -> multiplicity."""
    out = {}
    for lam, mult in dchar.items():
        for w, m in charlib.weight_mults(rs, lam).items():
            out[w] = out.get(w, 0) + mult * m
    return out


def fw(rs, i, mult=1):
    return rs.fundamental(i, mult)


def dims(rs, gc):
    """Dimension of each graded piece, summed with the Weyl dimension formula."""
    return [sum(charlib.weyl_dim(rs, w) for w in ws) for _, ws in gc.by_grade]


# ------------------------------------------------------------------- base sets


def test_base_set_examples():
    assert krset.base_set(B4, 3, 1) == {fw(B4, 3), fw(B4, 1)}
    assert krset.base_set(C3, 2, 2) == {fw(C3, 2, 2), fw(C3, 1, 2), C3.zero()}
    assert krset.base_set(B3, 3, 2) == {fw(B3, 3, 2), fw(B3, 1)}


def test_base_set_singletons_exactly_where_epsilon_equals_dcheck():
    for rs in SWEEP:
        for i in range(1, rs.rank + 1):
            got = krset.base_set(rs, i, 1)
            if rs.epsilon(rs.theta, i) == rs.dcheck[i - 1]:
                assert got == {fw(rs, i)}
            else:
                assert len(got) > 1 or i <= 1
                assert fw(rs, i) in got


def test_base_set_level_bounds():
    with pytest.raises(ValueError):
        krset.base_set(C2, 1, 3)
    with pytest.raises(ValueError):
        krset.base_set(A3, 2, 2)  # dcheck = 1 there
    with pytest.raises(ValueError):
        krset.base_set(C2, 1, 0)


def test_base_set_b2_c2_swap():
    b2 = build(LieType("B", 2))
    assert krset.base_set(b2, 2, 2) == {fw(b2, 2, 2), b2.zero()}
    assert krset.base_set(C2, 1, 2) == {fw(C2, 1, 2), C2.zero()}


# ---------------------------------------------------------------------- chains


def test_chain_c2_node1():
    assert krset.enumerate_chain(C2, 1).weights == ((2, 0), (0, 0))


def test_chain_b3_spin_node_level2():
    assert krset.enumerate_chain(B3, 3).weights == ((0, 0, 2), (1, 0, 0))


def test_chain_conditions_all_types():
    for rs in SWEEP:
        for i in range(1, rs.rank + 1):
            chain = krset.enumerate_chain(rs, i)
            assert chain[0] == fw(rs, i, rs.dcheck[i - 1])
            for s in range(chain.k):
                diff = tuple(a - b for a, b in zip(chain[s], chain[s + 1]))
                assert rs.is_positive_root(rs.to_root_coords(diff))


def test_sort_chain_checks_raise():
    # explicit raises, not asserts: repeated depths and a chain not led by top
    with pytest.raises(TheoremCheckError):
        krset.sort_chain(C2, [(2, 0), (2, 0)], (2, 0))
    with pytest.raises(TheoremCheckError):
        krset.sort_chain(C2, [(0, 0)], (2, 0))


# C2 node 1 at its step 2: mu_j = (2, 0) - j * alpha_1 passes permissive step
# predicates and has strictly increasing depths, but its differences are
# collinear
DEPENDENT = frozenset([(2, 0), (0, 1), (-2, 2)])


def planted_datum():
    def base(i, m0):
        return DEPENDENT if i == 1 else krset.base_set(C2, i, m0)

    anything = lambda diff: True
    return krset.KRDatum(C2, C2.dcheck, base, anything, anything, "")


def test_dependent_chain_raises():
    kr = planted_datum()
    with pytest.raises(TheoremCheckError, match="affinely dependent"):
        krset.kr_chain(kr, 1)
    with pytest.raises(TheoremCheckError, match="affinely dependent"):
        krset.kr_pplus(kr, 1, 4)
    assert krset.kr_chain(kr, 2).k == krset.enumerate_chain(C2, 2).k


def test_base_level_must_be_its_top_weight():
    # P+(i, m) = r omega_i + compositions holds only if P+(i, r) = {r omega_i}
    def base(i, m0):
        return frozenset([(1, 0), (0, 0)]) if m0 == 1 else krset.base_set(C2, i, m0)

    real = krset.datum(C2.type)
    kr = krset.KRDatum(real.rs, real.steps, base, real.one_step, real.two_step, real.label)
    assert krset.kr_pplus(kr, 1, 4) == krset.pplus(C2, 1, 4)
    with pytest.raises(TheoremCheckError, match=re.escape("P+(1, 1) is not {(1, 0)}")):
        krset.kr_pplus(kr, 1, 3)


def test_verify_chains_fails_on_a_dependent_chain(monkeypatch, capsys):
    planted, real = planted_datum(), krset.datum
    monkeypatch.setattr(krset, "datum", lambda lt: planted if lt == C2.type else real(lt))
    assert cli.main(["verify", "chains"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL chain C2 node 1: ")
    assert "affinely dependent" in fails[0]


def test_chain_condition_error_reports_pair():
    bad = ((2, 0), (1, 0))  # difference omega_1 is not a root of C2
    with pytest.raises(ChainConditionError) as err:
        krset.verify_chain_conditions(
            C2,
            bad,
            lambda d: C2.is_positive_root(C2.to_root_coords(d)),
            lambda d: True,
        )
    assert err.value.pair == bad


# ----------------------------------------------------------------------- pplus


def test_pplus_examples():
    assert krset.pplus(C2, 1, 3) == {(3, 0), (1, 0)}
    assert krset.pplus(C2, 1, 4) == {(4, 0), (2, 0), (0, 0)}
    assert krset.pplus(A3, 2, 5) == {(0, 5, 0)}


def test_pplus_zero_level():
    for rs in (C2, B3, A3):
        assert krset.pplus(rs, 1, 0) == {rs.zero()}


def minkowski_pplus(kr, i, m):
    """P+(i, m) from the definition: base_set(i, d) + P+(i, m - d) above the
    base levels 0 < m <= d."""
    if m == 0:
        return {kr.rs.zero()}
    d = kr.steps[i - 1]
    if m <= d:
        return set(kr.base_set(i, m))
    rest = minkowski_pplus(kr, i, m - d)
    return {tuple(a + b for a, b in zip(x, y)) for x in kr.base_set(i, d) for y in rest}


def test_pplus_matches_minkowski_oracle():
    datums = [krset.datum(rs.type) for rs in SWEEP] + [
        twisted.fixed_point_data(twisted.outer_from_ambient(fam, r)).kr
        for fam, lo, hi in (("A", 2, 10), ("D", 3, 6))
        for r in range(lo, hi + 1)
    ]
    for kr in datums:
        for i in range(1, kr.rs.rank + 1):
            d, k = kr.steps[i - 1], krset.kr_chain(kr, i).k
            for m in range(0, 9):
                got = krset.kr_pplus(kr, i, m)
                assert got == minkowski_pplus(kr, i, m), (kr.rs.type, kr.label, i, m)
                assert len(got) == comb(m // d + k, k)


def test_pplus_elements_dominant_below_top():
    for rs in SWEEP:
        for i in range(1, rs.rank + 1):
            for m in range(1, 7):
                top = fw(rs, i, m)
                for mu in krset.pplus(rs, i, m):
                    assert rs.dominant(mu)
                    diff = tuple(a - b for a, b in zip(top, mu))
                    rc = rs.to_root_coords(diff)
                    assert all(c.denominator == 1 and c >= 0 for c in rc)


# ---------------------------------------------------------- reduced expressions


def test_reduced_expression_examples():
    kr = krset.datum(C2.type)
    assert krset.reduced_expression(kr, 1, 4, (2, 0)) == (0, 1)
    assert krset.reduced_expression(kr, 1, 4, (0, 0)) == (1, 1)
    assert krset.reduced_expression(kr, 1, 4, (4, 0)) == (0, 0)
    assert krset.grade(C2, 1, 4, (2, 0)) == 1


def test_reduced_expression_rejects_outsider():
    with pytest.raises(ValueError):
        krset.reduced_expression(krset.datum(C2.type), 1, 4, (1, 0))


def exhaustive_reduced(rs, i, m, mu):
    """Independent check: enumerate all index sequences, count the reduced ones."""
    d = rs.dcheck[i - 1]
    chain = krset.enumerate_chain(rs, i).weights
    m0, m1 = divmod(m, d)
    tail = fw(rs, i, m1) if m1 else rs.zero()
    found = []
    for seq in product(range(len(chain)), repeat=m0):
        residual = mu
        ok = True
        reduced = True
        for r, j in enumerate(seq, start=1):
            level = krset.pplus(rs, i, m - r * d)
            cand = tuple(a - b for a, b in zip(residual, chain[j]))
            if cand not in level:
                ok = False
                break
            for jj in range(j):
                lower = tuple(a - b for a, b in zip(residual, chain[jj]))
                if lower in level:
                    reduced = False
                    break
            residual = cand
            if not reduced:
                break
        if ok and reduced and residual == tail:
            found.append(seq)
    return found


def test_reduced_expression_unique_small_sweep():
    cases = [(C2, 1), (C3, 1), (C3, 2), (B3, 2), (B3, 3), (B4, 3), (D4, 2), (A3, 2)]
    for rs, i in cases:
        d = rs.dcheck[i - 1]
        for m in range(1, 3 * d + 1):
            for mu in krset.pplus(rs, i, m):
                found = exhaustive_reduced(rs, i, m, mu)
                assert found == [krset.reduced_expression(krset.datum(rs.type), i, m, mu)]


def test_grade_bounded_by_m0_times_k():
    for rs, i in [(C2, 1), (B3, 2), (B4, 3), (D5, 2), (C3, 2)]:
        d = rs.dcheck[i - 1]
        k = krset.enumerate_chain(rs, i).k
        for m in range(0, 4 * d + 1):
            for mu in krset.pplus(rs, i, m):
                assert 0 <= krset.grade(rs, i, m, mu) <= (m // d) * k


# ------------------------------------------------------------ graded characters


def test_graded_character_c2_level4():
    gc = krset.graded_character(C2, 1, 4)
    assert gc.as_dict() == {0: {(4, 0): 1}, 1: {(2, 0): 1}, 2: {(0, 0): 1}}
    assert dims(C2, gc) == [35, 10, 1]


def test_graded_character_c3_node2_level2():
    gc = krset.graded_character(C3, 2, 2)
    assert gc.as_dict() == {0: {(0, 2, 0): 1}, 1: {(2, 0, 0): 1}, 2: {(0, 0, 0): 1}}
    assert dims(C3, gc) == [90, 21, 1]


def test_graded_character_b_series():
    assert krset.graded_character(B3, 2, 1).as_dict() == {
        0: {(0, 1, 0): 1},
        1: {(0, 0, 0): 1},
    }
    gc = krset.graded_character(B4, 3, 1)
    assert gc.as_dict() == {0: {(0, 0, 1, 0): 1}, 1: {(1, 0, 0, 0): 1}}
    assert dims(B4, gc) == [84, 9]


def test_graded_character_a_series_degenerate():
    for n in range(1, 5):
        rs = build(LieType("A", n))
        for i in range(1, n + 1):
            for m in range(0, 6):
                gc = krset.graded_character(rs, i, m)
                assert [s for s, _ in gc.by_grade] == [0]
                assert gc.piece(0) == {fw(rs, i, m): 1}


def test_graded_character_grade0_everywhere():
    for rs in SWEEP:
        for i in range(1, rs.rank + 1):
            for m in (1, 2, 3):
                gc = krset.graded_character(rs, i, m)
                assert gc.piece(0) == {fw(rs, i, m): 1}


def test_weight_character_is_weyl_invariant():
    import random

    rng = random.Random(59)
    gc = krset.graded_character(C3, 2, 2)
    chi = expand(C3, {w: 1 for _, ws in gc.by_grade for w in ws})
    assert sum(chi.values()) == 112
    for _ in range(25):
        w = rng.choice(list(chi))
        i = rng.randrange(1, 4)
        assert chi[reflect(C3, w, i)] == chi[w]


# ------------------------------------------------------------------ tensor bound


def test_tensor_bound_small_cases():
    assert krset.tensor_bound_check(C2, 1, 4)
    assert krset.tensor_bound_check(C2, 2, 3)
    assert krset.tensor_bound_check(B3, 2, 2)
    assert krset.tensor_bound_check(A3, 2, 4)


def test_tensor_bound_detects_missing_weight(monkeypatch):
    # sabotage the fundamental graded character fed into the bound
    real = krset.graded_character

    def fake(rs, i, m):
        gc = real(rs, i, m)
        if m == rs.dcheck[i - 1]:
            return krset.GradedCharacter(((0, (fw(rs, i, m),)),))
        return gc

    monkeypatch.setattr(krset, "graded_character", fake)
    with pytest.raises(TheoremCheckError):
        krset.tensor_bound_check(C2, 1, 3)


# ------------------------------------------------------ greedy grade oracle


def greedy_oracle(chain, d, m, mu, level_set, target):
    """Stage-by-stage greedy reduced expression, straight from the definition."""
    residual, js = mu, []
    for r in range(1, m // d + 1):
        remaining = level_set(m - r * d)
        for j, mu_j in enumerate(chain):
            cand = tuple(a - b for a, b in zip(residual, mu_j))
            if cand in remaining:
                js.append(j)
                residual = cand
                break
        else:
            raise AssertionError(f"oracle stuck at {residual}")
    assert residual == target
    return tuple(js)


def test_level_grades_match_greedy_oracle():
    for rs in SWEEP:
        for i in range(1, rs.rank + 1):
            d = rs.dcheck[i - 1]
            chain = krset.enumerate_chain(rs, i).weights
            for m in range(0, 9):
                gc = krset.graded_character(rs, i, m)
                grade_of = {w: s for s, ws in gc.by_grade for w in ws}
                for mu in krset.pplus(rs, i, m):
                    want = greedy_oracle(
                        chain, d, m, mu, lambda lvl: krset.pplus(rs, i, lvl), fw(rs, i, m % d)
                    )
                    assert krset.reduced_expression(krset.datum(rs.type), i, m, mu) == want
                    assert krset.grade(rs, i, m, mu) == sum(want) == grade_of[mu]


def test_twisted_level_grades_match_greedy_oracle():
    datas = [
        twisted.fixed_point_data(twisted.OuterType(fam, n))
        for fam, lo in (("A_odd", 2), ("A_even", 1), ("D", 2))
        for n in range(lo, 6)
    ]
    for data in datas:
        g0 = data.g0
        for i in range(1, g0.rank + 1):
            d = data.dsigma[i - 1]
            chain = twisted.enumerate_chain_sigma(data, i).weights
            for m in range(0, 9):
                gc = twisted.graded_character_sigma(data, i, m)
                grade_of = {w: s for s, ws in gc.by_grade for w in ws}
                for mu in krset.kr_pplus(data.kr, i, m):
                    want = greedy_oracle(
                        chain,
                        d,
                        m,
                        mu,
                        lambda lvl: krset.kr_pplus(data.kr, i, lvl),
                        g0.fundamental(i, m % d),
                    )
                    assert krset.reduced_expression(data.kr, i, m, mu) == want
                    assert krset.kr_grade(data.kr, i, m, mu) == sum(want) == grade_of[mu]


def test_graded_character_builds_each_chain_once():
    krset._chain.cache_clear()
    krset._pplus.cache_clear()
    for m in range(0, 9):
        krset.graded_character(C3, 2, m)
        krset.graded_character(B4, 3, m)
    krset.reduced_expression(krset.datum(C3.type), 2, 8, (0, 0, 0))
    assert krset._chain.cache_info().misses == 2

    # the twisted sets share the one chain cache: one more build, then hits
    data = twisted.fixed_point_data(twisted.OuterType("A_even", 2))
    hits = krset._chain.cache_info().hits
    for m in range(0, 9):
        twisted.graded_character_sigma(data, 2, m)
    assert krset._chain.cache_info().misses == 3
    assert krset._chain.cache_info().hits > hits


def test_outsider_errors_unchanged():
    msg = re.escape("(1, 0) not in P+(1, 4)")
    with pytest.raises(ValueError, match=msg):
        krset.reduced_expression(krset.datum(C2.type), 1, 4, (1, 0))
    with pytest.raises(ValueError, match=msg):
        krset.grade(C2, 1, 4, (1, 0))
    data = twisted.fixed_point_data(twisted.OuterType("A_even", 2))
    msg = re.escape("(1, 1) not in twisted P+(2, 4)")
    with pytest.raises(ValueError, match=msg):
        krset.reduced_expression(data.kr, 2, 4, (1, 1))
    with pytest.raises(ValueError, match=msg):
        krset.kr_grade(data.kr, 2, 4, (1, 1))


@pytest.mark.parametrize("node", [0, 4])
def test_enumerate_chain_checks_the_node_first(node):
    msg = re.escape(f"node {node} out of range 1..3")
    with pytest.raises(ValueError, match=msg):
        krset.enumerate_chain(C3, node)
    data = twisted.fixed_point_data(twisted.OuterType("A_even", 3))
    with pytest.raises(ValueError, match=msg):
        twisted.enumerate_chain_sigma(data, node)


def test_cached_chains_and_tables_are_read_only():
    gc = krset.graded_character(C3, 2, 4)
    edited = gc.as_dict()
    edited[0][(9, 9, 9)] = 1
    del edited[1]
    assert krset.graded_character(C3, 2, 4) == gc
    assert krset.graded_character(C3, 2, 4).as_dict() != edited

    chain = krset.enumerate_chain(C3, 2)
    assert chain is krset.enumerate_chain(C3, 2)
    assert type(chain.weights) is tuple and all(type(w) is tuple for w in chain.weights)
    with pytest.raises(AttributeError):
        chain.weights = ()
    comps = krset._pplus(krset.datum(C3.type), 2, 4)
    with pytest.raises(TypeError):
        comps[(0, 0, 0)] = (0, 0, 0)
    with pytest.raises(AttributeError):
        krset.pplus(C3, 2, 4).add((9, 9, 9))
    assert krset._pplus(krset.datum(C3.type), 2, 4) is comps

"""Acceptance gate: one test per published criterion, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible with -s or on failure);
pytest -v adds its own verdict per test.  Expected sets and characters are
written out independently inside this file rather than recomputed through the
library, so every comparison crosses an implementation boundary.
"""

import random
import time

from krlib import charlib, homcheck, krset, modforge, twisted
from krlib.rootsys import build, parse_type


def _report(n, desc, fn):
    t0 = time.time()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc} ({time.time() - t0:.1f}s)")


def rs_of(name):
    return build(parse_type(name))


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


def _outer(family, ambient_rank):
    return twisted.fixed_point_data(twisted.outer_from_ambient(family, ambient_rank))


def fund(rs, i, c=1):
    return rs.fundamental(i, c) if i > 0 and c > 0 else rs.zero()


# -- criterion 1: base sets reproduce the published listings ------------


def _expected_untwisted(rs, i, m):
    """The listings, written out family by family."""
    fam, n = rs.type.family, rs.rank
    if fam == "A":
        return {fund(rs, i, m)}
    if fam == "C" and i < n:
        if m == 1:
            return {fund(rs, i)}
        return {fund(rs, j, 2) for j in range(1, i + 1)} | {rs.zero()}
    if fam == "C":
        return {fund(rs, n, m)}
    if fam == "B" and i < n:
        if i == 1:
            return {fund(rs, 1, m)}
        return {fund(rs, j) for j in range(i, -1, -2) if j > 0} | (
            {rs.zero()} if i % 2 == 0 else set()
        )
    if fam == "B":
        if m == 1:
            return {fund(rs, n)}
        return {fund(rs, n, 2)} | {fund(rs, j) for j in range(n - 2, 0, -2)} | (
            {rs.zero()} if n % 2 == 0 else set()
        )
    # D: interior nodes ladder down by two, extreme nodes are singletons
    if i in (1, n - 1, n):
        return {fund(rs, i, m)}
    return {fund(rs, j) for j in range(i, 0, -2)} | (
        {rs.zero()} if i % 2 == 0 else set()
    )


def _expected_twisted(data, i, m):
    g0 = data.g0
    fam, n = data.outer.family, data.outer.n
    if fam == "A_even":
        if i < n:
            if m == 1:
                return {fund(g0, i)}
            return {fund(g0, j, 2) for j in range(1, i + 1)} | {g0.zero()}
        if m < 4:
            return {fund(g0, n, m)}
        return {fund(g0, n, 4)} | {fund(g0, j, 2) for j in range(1, n)} | {g0.zero()}
    if fam == "A_odd":
        return {fund(g0, j) for j in range(i, 0, -2)} | (
            {g0.zero()} if i % 2 == 0 else set()
        )
    if i == n:
        return {fund(g0, n)}
    return {fund(g0, j) for j in range(i, 0, -1)} | {g0.zero()}


def test_criterion_1_base_sets_match_published_listings():
    def run():
        checked = 0
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, 6):
                rs = rs_of(f"{fam}{r}")
                for i in range(1, r + 1):
                    for m in range(1, rs.dcheck[i - 1] + 1):
                        got = set(krset.base_set(rs, i, m))
                        assert got == _expected_untwisted(rs, i, m), (fam, r, i, m)
                        checked += 1
        for outer_fam, ns in (("A_odd", range(2, 6)), ("A_even", range(1, 6)), ("D", range(2, 6))):
            for n in ns:
                data = twisted.fixed_point_data(twisted.OuterType(outer_fam, n))
                for i in range(1, n + 1):
                    for m in range(1, data.dsigma[i - 1] + 1):
                        got = set(twisted.base_set_sigma(data, i, m))
                        assert got == _expected_twisted(data, i, m), (outer_fam, n, i, m)
                        checked += 1
        assert checked > 100

    _report(1, "base sets reproduce every rank <= 5 listing verbatim", run)


# -- criterion 2: chain difference conditions hold everywhere -----------


def test_criterion_2_chains_are_valid_root_ladders():
    def run():
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, 6):
                rs = rs_of(f"{fam}{r}")
                for i in range(1, r + 1):
                    chain = krset.enumerate_chain(rs, i)
                    for a, b in zip(chain.weights, chain.weights[1:]):
                        diff = tuple(x - y for x, y in zip(a, b))
                        assert rs.is_positive_root(rs.int_root_coords(diff))
        for outer_fam, ns in (("A_odd", range(2, 6)), ("A_even", range(1, 6)), ("D", range(2, 6))):
            for n in ns:
                data = twisted.fixed_point_data(twisted.OuterType(outer_fam, n))
                for i in range(1, n + 1):
                    chain = twisted.enumerate_chain_sigma(data, i)
                    for a, b in zip(chain.weights, chain.weights[1:]):
                        diff = tuple(x - y for x, y in zip(a, b))
                        assert data.g0.int_root_coords(diff) in data.r1_positive

    _report(2, "all chain steps are (odd-part) positive roots", run)


# -- criterion 3: A-series degeneracy ------------------------------------


def test_criterion_3_a_series_concentrates_at_grade_zero():
    def run():
        for r in range(1, 5):
            rs = rs_of(f"A{r}")
            for i in range(1, r + 1):
                for m in range(0, 6):
                    gc = krset.graded_character(rs, i, m)
                    assert gc.as_dict() == {0: {fund(rs, i, m): 1}}

    _report(3, "A-series characters live at grade 0 with one constituent", run)


# -- criterion 4: Hom conditions and wedge decompositions ---------------


def test_criterion_4_hom_conditions_hold_across_the_sweep():
    def run():
        for name in ["C2", "C3", "C4", "C5", "B3", "B4", "B5", "D4", "D5"]:
            rs = rs_of(name)
            for i in krset.construction_nodes(rs):
                rep = homcheck.cond_untwisted(rs, i)
                assert all(d >= 1 for d in rep.next_step)
                assert all(d == 0 for d in rep.two_step)
                assert rep.three_step == ()
            if rs.rank >= 3 or rs.type.family == "C":
                homcheck.wedge_adjoint_nu(rs)
        for name in ["A3", "A4", "A5", "A6", "D3", "D4", "D5"]:
            lt = parse_type(name)
            data = _outer(lt.family, lt.rank)
            for i in range(1, data.g0.rank + 1):
                rep = homcheck.cond_twisted(data, i)
                assert all(d >= 1 for d in rep.next_step)
                assert all(d == 0 for d in rep.two_step)
                assert all(d == 0 for d in rep.three_step)
            homcheck.wedge_g1_decomp(data)
        # the published wedge constituents, including the rank-one oddity
        a2 = _outer("A", 2)
        assert dict(homcheck.wedge_g1_decomp(a2).decomposition) == {(2,): 1, (6,): 1}
        a4 = _outer("A", 4)
        assert dict(homcheck.wedge_g1_decomp(a4).decomposition) == {(0, 2): 1, (2, 2): 1}
        assert homcheck.wedge_adjoint_nu(rs_of("C3")) == (2, 1, 0)
        assert homcheck.wedge_adjoint_nu(rs_of("B3")) == (1, 0, 2)
        assert homcheck.wedge_adjoint_nu(rs_of("D4")) == (1, 0, 1, 1)
        assert homcheck.wedge_adjoint_nu(rs_of("D5")) == (1, 0, 1, 0, 0)

    _report(4, "one-step Homs exist, higher-step Homs vanish, wedges match", run)


# -- criterion 5: oracle equivalence ------------------------------------


def _random_dominant(rng, rs, budget):
    while True:
        lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        if charlib.weyl_dim(rs, lam) <= budget:
            return lam


def test_criterion_5_independent_oracles_agree():
    def run():
        rng = random.Random(20260815)
        names = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4"]
        pairs = 0
        while pairs < 200:
            rs = rs_of(rng.choice(names))
            lam = _random_dominant(rng, rs, 120)
            mu = _random_dominant(rng, rs, 120)
            if charlib.weyl_dim(rs, lam) * charlib.weyl_dim(rs, mu) > 10_000:
                continue
            fast = charlib.tensor_decompose(rs, lam, mu)
            chi = charlib.char_product(
                charlib.weight_mults(rs, lam), charlib.weight_mults(rs, mu)
            )
            slow = charlib.decompose_character(rs, chi)
            assert fast == slow, (rs.type, lam, mu)
            pairs += 1
        masses = 0
        while masses < 100:
            rs = rs_of(rng.choice(names))
            lam = _random_dominant(rng, rs, 4000)
            mults = charlib.weight_mults(rs, lam)
            assert sum(mults.values()) == charlib.weyl_dim(rs, lam), (rs.type, lam)
            # multiplicities are constant on Weyl orbits
            w = max(mults)
            assert mults[reflect(rs, w, 1 + len(lam) % rs.rank)] == mults[w]
            masses += 1

    _report(5, "Klimyk = stripping on 200 pairs, Freudenthal mass = Weyl dim on 100", run)


# -- criterion 6: matrix realization ------------------------------------


def test_criterion_6_matrix_modules_satisfy_all_relations():
    def run():
        cases = [
            ("C2", 1),
            ("C3", 1),
            ("C3", 2),
            ("B3", 2),
            ("B4", 3),
            ("D4", 2),
            ("D5", 2),
            ("B3", 3),
        ]
        for name, i in cases:
            rs = rs_of(name)
            cm = modforge.build_kr_fundamental(rs, i)
            rep = modforge.verify_current_relations(cm)
            assert rep.cyclic_dim == cm.total_dim, (name, i)
            assert rep.transport_steps == cm.k

    _report(6, "eight matrix modules verify brackets, relations, cyclicity", run)


# -- criterion 7: tensor submodules -------------------------------------


def test_criterion_7_tensor_submodules_match_graded_characters():
    def run():
        cases = [("C2", 1, 2), ("C2", 1, 3), ("C2", 1, 4), ("C3", 2, 2), ("B3", 2, 1), ("B3", 2, 2)]
        for name, i, m in cases:
            rs = rs_of(name)
            got = modforge.kr_tensor_submodule(rs, i, m)
            assert got == krset.graded_character(rs, i, m).as_dict(), (name, i, m)
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, 5):
                rs = rs_of(f"{fam}{r}")
                for i in range(1, r + 1):
                    for m in range(1, 5):
                        assert krset.tensor_bound_check(rs, i, m)

    _report(7, "matrix submodules equal the combinatorial graded characters", run)


# -- criterion 8: twisted graded characters -----------------------------


def test_criterion_8_twisted_characters_match_hand_cases():
    def run():
        a4 = _outer("A", 4)
        assert twisted.graded_character_sigma(a4, 2, 4).as_dict() == {
            0: {(0, 4): 1},
            1: {(2, 0): 1},
            2: {(0, 0): 1},
        }
        d4 = _outer("D", 4)
        assert twisted.graded_character_sigma(d4, 2, 1).as_dict() == {
            0: {(0, 1, 0): 1},
            1: {(1, 0, 0): 1},
            2: {(0, 0, 0): 1},
        }
        a5 = _outer("A", 5)
        for m in range(0, 7):
            gc = twisted.graded_character_sigma(a5, 1, m)
            assert gc.as_dict() == {0: {a5.g0.fundamental(1, m) if m else a5.g0.zero(): 1}}

    _report(8, "twisted characters reproduce the hand-derived cases", run)


# -- criterion 9: multiplicity freeness and Weyl invariance --------------


def test_criterion_9_characters_are_multiplicity_free_and_invariant():
    def run():
        rng = random.Random(99)
        graded = []
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, 5):
                rs = rs_of(f"{fam}{r}")
                for i in range(1, r + 1):
                    for m in range(1, 4):
                        graded.append((rs, krset.graded_character(rs, i, m)))
        for n in range(2, 5):
            data = _outer("A", 2 * n)
            graded.append((data.g0, twisted.graded_character_sigma(data, n, 4)))
        for rs, gc in graded:
            seen = set()
            for _, ws in gc.by_grade:
                for w in ws:
                    assert w not in seen
                    seen.add(w)
        for rs, gc in rng.sample(graded, 25):
            chi = expand(rs, {w: 1 for _, ws in gc.by_grade for w in ws})
            for _ in range(50):
                i = rng.randint(1, rs.rank)
                w = rng.choice(list(chi))
                assert chi[reflect(rs, w, i)] == chi[w]

    _report(9, "graded characters multiplicity-free, weight characters invariant", run)

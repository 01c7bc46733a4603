"""Root system construction, conversions and Weyl group action."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from krlib import rootsys
from krlib.errors import TheoremCheckError
from krlib.rootsys import LieType, build, parse_type

ALL_TYPES = (
    [LieType("A", n) for n in range(1, 7)]
    + [LieType("B", n) for n in range(2, 7)]
    + [LieType("C", n) for n in range(2, 7)]
    + [LieType("D", n) for n in range(3, 7)]
)


def root_coords(rs, lam):
    """The simple-root coordinates of a weight, as Fractions."""
    return tuple(Fraction(c, rs.root_den) for c in rs.scaled_root_coords(lam))


def inner(rs, a, b):
    """The normalized invariant form of two weights, as a Fraction."""
    rb = root_coords(rs, b)
    return sum(rb[j] * a[j] / rs.dcheck[j] for j in range(rs.rank))


def weyl_order(lt: LieType) -> int:
    n = lt.rank
    if lt.family == "A":
        return factorial(n + 1)
    if lt.family in ("B", "C"):
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


# ---------------------------------------------------------------- construction


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        LieType("B", 1)
    with pytest.raises(ValueError):
        LieType("D", 2)
    with pytest.raises(ValueError):
        LieType("E", 6)


def test_positive_root_counts():
    for lt in ALL_TYPES:
        rs = build(lt)
        n = lt.rank
        expected = {
            "A": n * (n + 1) // 2,
            "B": n * n,
            "C": n * n,
            "D": n * (n - 1),
        }[lt.family]
        assert len(rs.positive_roots) == expected


def test_c2_theta():
    rs = build(LieType("C", 2))
    assert len(rs.positive_roots) == 4
    assert rs.theta == (2, 1)


def test_b3_theta():
    rs = build(LieType("B", 3))
    assert rs.theta == (1, 2, 2)


def test_theta_dominates_all_roots():
    for lt in ALL_TYPES:
        rs = build(lt)
        for alpha in rs.positive_roots:
            assert all(t >= a for t, a in zip(rs.theta, alpha))


def test_theta_norm_and_dcheck():
    for lt in ALL_TYPES:
        rs = build(lt)
        theta_w = rs.root_weight(rs.theta)
        assert inner(rs, theta_w, theta_w) == 2
        assert rs.twice_inner_root(theta_w, rs.theta) == 4
        for j in range(rs.rank):
            simple = tuple(int(k == j) for k in range(rs.rank))
            aw = rs.root_weight(simple)
            norm = inner(rs, aw, aw)
            assert norm == Fraction(2, rs.dcheck[j])
            assert rs.twice_inner_root(aw, simple) == 2 * norm
            assert rs.dcheck[j] in (1, 2)


def test_dcheck_tables():
    assert build(LieType("A", 4)).dcheck == (1, 1, 1, 1)
    assert build(LieType("B", 3)).dcheck == (1, 1, 2)
    assert build(LieType("C", 3)).dcheck == (2, 2, 1)
    assert build(LieType("D", 4)).dcheck == (1, 1, 1, 1)


def test_cartan_matrices():
    assert build(LieType("A", 2)).cartan == ((2, -1), (-1, 2))
    # cartan[i][j] = 2(a_i, a_j)/(a_j, a_j)
    b3 = build(LieType("B", 3)).cartan
    assert b3 == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    c3 = build(LieType("C", 3)).cartan
    assert c3 == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    d4 = build(LieType("D", 4)).cartan
    assert d4 == ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_sum_of_positive_roots_is_two_rho():
    for lt in ALL_TYPES:
        rs = build(lt)
        total = [0] * rs.rank
        for alpha in rs.positive_roots:
            w = rs.root_weight(alpha)
            total = [t + c for t, c in zip(total, w)]
        assert tuple(total) == (2,) * rs.rank


# ---------------------------------------------------------------- epsilon


def test_epsilon_of_theta():
    a3 = build(LieType("A", 3))
    assert all(a3.epsilon(a3.theta, i) == 1 for i in (1, 2, 3))
    c3 = build(LieType("C", 3))
    assert c3.epsilon(c3.theta, 1) == 2
    assert c3.epsilon(c3.theta, 3) == 1


def test_epsilon_rejects_fractional():
    rs = build(LieType("A", 1))
    with pytest.raises(ValueError):
        rs.epsilon((Fraction(1, 2),), 1)


# ---------------------------------------------------------------- conversions


def test_to_root_coords_examples():
    a1 = build(LieType("A", 1))
    assert root_coords(a1, (1,)) == (Fraction(1, 2),)
    assert a1.scaled_root_coords((1,)) == (1,) and a1.root_den == 2
    assert a1.int_root_coords((1,)) is None
    c2 = build(LieType("C", 2))
    assert root_coords(c2, (2, 0)) == (Fraction(2), Fraction(1))
    assert c2.int_root_coords((2, 0)) == (2, 1)


def test_root_coords_round_trip():
    rng = random.Random(7)
    for lt in ALL_TYPES:
        rs = build(lt)
        for _ in range(10):
            lam = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            rc = root_coords(rs, lam)
            back = tuple(
                sum(rc[k] * rs.cartan[k][i] for k in range(rs.rank))
                for i in range(rs.rank)
            )
            assert back == tuple(Fraction(c) for c in lam)


def test_root_weight_matches_positive_roots():
    for lt in ALL_TYPES:
        rs = build(lt)
        for alpha in rs.positive_roots:
            w = rs.root_weight(alpha)
            assert rs.int_root_coords(w) == alpha
            assert rs.is_positive_root(rs.int_root_coords(w))


def test_root_tables_match_the_roots():
    for lt in ALL_TYPES:
        rs = build(lt)
        pos = rs.positive_roots
        assert len(rs.root_pairings) == len(rs.root_parents) == len(pos)
        simple = 0
        for k, (alpha, weight, (up, i)) in enumerate(zip(pos, rs.root_pairings, rs.root_parents)):
            assert weight == rs.root_weight(alpha)
            below = list(pos[up]) if up >= 0 else [0] * rs.rank
            assert up < k
            below[i] += 1
            assert tuple(below) == alpha
            simple += up == -1
        assert simple == rs.rank


def test_root_tables_are_read_only():
    rs = build(LieType("C", 3))
    for table in (rs.root_pairings, rs.root_parents):
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(TypeError):
            table[0][0] = 7
    assert rs.root_pairings == build(LieType("C", 3)).root_pairings


def test_is_positive_root_rejects():
    rs = build(LieType("C", 2))
    assert not rs.is_positive_root((Fraction(1, 2), Fraction(1)))
    assert not rs.is_positive_root((-1, 0))
    assert not rs.is_positive_root(None)
    assert rs.is_positive_root((2, 1))
    assert rs.is_positive_root((Fraction(2), Fraction(1)))


# ---------------------------------------------------------------- Weyl action


def reflect(rs, lam, i):
    """Simple reflection s_i on fundamental coordinates."""
    c = lam[i - 1]
    return tuple(a - c * b for a, b in zip(lam, rs.cartan[i - 1]))


def test_reflect_example():
    a2 = build(LieType("A", 2))
    assert reflect(a2, (1, 0), 1) == (-1, 1)
    assert a2.to_dominant((-1, 1))[0] == (1, 0)


def test_reflection_is_involution():
    # s_i keeps the dominant part of to_dominant and, off the walls, flips
    # its sign; a dominant weight needs no reflection, so its sign is +1
    rng = random.Random(11)
    for lt in ALL_TYPES:
        rs = build(lt)
        for _ in range(8):
            lam = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            i = rng.randrange(1, rs.rank + 1)
            assert reflect(rs, reflect(rs, lam, i), i) == lam
            dom, sign = rs.to_dominant(lam)
            dom_i, sign_i = rs.to_dominant(reflect(rs, lam, i))
            assert dom_i == dom
            if 0 not in dom:
                assert sign_i == -sign
            assert rs.to_dominant(dom) == (dom, 1)


def test_reflection_preserves_inner():
    rng = random.Random(13)
    for lt in ALL_TYPES[:8]:
        rs = build(lt)
        for _ in range(6):
            a = tuple(rng.randrange(-2, 3) for _ in range(rs.rank))
            b = tuple(rng.randrange(-2, 3) for _ in range(rs.rank))
            i = rng.randrange(1, rs.rank + 1)
            assert inner(rs, reflect(rs, a, i), reflect(rs, b, i)) == inner(rs, a, b)


def test_orbit_c2_example():
    c2 = build(LieType("C", 2))
    orbit = c2.weyl_orbit((0, 1))
    assert len(orbit) == 4
    assert orbit == {(0, 1), (2, -1), (-2, 1), (0, -1)}


def test_orbit_sizes_divide_weyl_order():
    rng = random.Random(17)
    for lt in ALL_TYPES:
        rs = build(lt)
        order = weyl_order(lt)
        for _ in range(4):
            lam = tuple(rng.randrange(0, 3) for _ in range(rs.rank))
            orbit = rs.weyl_orbit(lam)
            assert order % len(orbit) == 0
            doms = [w for w in orbit if rs.dominant(w)]
            assert doms == [lam] if rs.dominant(lam) else len(doms) == 1
            assert rs.to_dominant(lam)[0] == doms[0]


def dense_orbit(rs, lam):
    """The Weyl orbit by reflections over every coordinate: the oracle for
    the sparse Cartan rows of RootSystem.weyl_orbit."""
    seen, frontier = {lam}, [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                r = reflect(rs, w, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def dense_to_dominant(rs, lam):
    """to_dominant by dense reflections at the first negative coordinate."""
    sign = 1
    while any(c < 0 for c in lam):
        lam = reflect(rs, lam, 1 + next(j for j, c in enumerate(lam) if c < 0))
        sign = -sign
    return lam, sign


def test_sparse_reflections_match_dense_ones():
    rng = random.Random(29)
    for lt in ALL_TYPES:
        rs = build(lt)
        for _ in range(3):
            lam = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rs.rank))
            orbit = rs.weyl_orbit(lam)
            assert orbit == dense_orbit(rs, lam), (lt, lam)
            for w in rng.sample(sorted(orbit), min(len(orbit), 20)):
                assert rs.to_dominant(w) == dense_to_dominant(rs, w), (lt, w)


def test_regular_dominant_is_to_dominant_off_the_walls():
    # the walk stops at its first zero coordinate exactly when the dominant
    # image has one; elsewhere it is to_dominant, sign included
    rng = random.Random(31)
    for lt in ALL_TYPES:
        rs = build(lt)
        for _ in range(40):
            lam = tuple(rng.randrange(-4, 5) for _ in range(rs.rank))
            dom, sign = rs.to_dominant(lam)
            assert rs.regular_dominant(lam) == (None if 0 in dom else (dom, sign)), (lt, lam)


def test_parse_type():
    assert parse_type("C3") == LieType("C", 3)
    assert parse_type("d10") == LieType("D", 10)
    with pytest.raises(ValueError):
        parse_type("X2")
    with pytest.raises(ValueError):
        parse_type("C")


def _fraction_inverse(mat):
    """Gauss-Jordan inverse over Fraction: the oracle for the integer route."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def test_root_coords_match_fraction_oracle():
    # inv(cartan^T) applied to fundamental coordinates, over A1-D8, with
    # random weights on and off the root lattice
    rng = random.Random(2005)
    types = (
        [LieType("A", n) for n in range(1, 9)]
        + [LieType(f, n) for f in "BC" for n in range(2, 9)]
        + [LieType("D", n) for n in range(3, 9)]
    )
    for lt in types:
        rs = build(lt)
        n = rs.rank
        inv = _fraction_inverse([[rs.cartan[k][i] for k in range(n)] for i in range(n)])
        off_lattice = 0
        for _ in range(40):
            lam = tuple(rng.randrange(-6, 7) for _ in range(n))
            want = tuple(sum(inv[i][j] * lam[j] for j in range(n)) for i in range(n))
            got = rs.scaled_root_coords(lam)
            assert got == tuple(c * rs.root_den for c in want)
            assert all(type(c) is int for c in got)
            ints = rs.int_root_coords(lam)
            if all(c.denominator == 1 for c in want):
                assert ints == tuple(int(c) for c in want)
                assert all(type(c) is int for c in ints)
            else:
                assert ints is None
                off_lattice += 1
            assert rs.scaled_height(lam) == sum(want) * rs.root_den
        assert off_lattice > 0


# ---------------------------------------------------------------- planted faults


def test_wrong_double_bond_is_caught(monkeypatch):
    # B with the double bond pointing the C way: dcheck no longer
    # symmetrizes the Cartan matrix
    cartan = rootsys._cartan
    monkeypatch.setattr(rootsys, "_cartan", lambda fam, n: cartan("C" if fam == "B" else fam, n))
    for n in (2, 3, 5):
        with pytest.raises(TheoremCheckError, match="symmetrize"):
            rootsys.RootSystem(LieType("B", n))


def test_rescaled_dcheck_is_caught(monkeypatch):
    # twice the right dcheck still symmetrizes, but makes (theta, theta) = 1
    dcheck = rootsys._dcheck
    monkeypatch.setattr(rootsys, "_dcheck", lambda fam, n: tuple(2 * d for d in dcheck(fam, n)))
    for lt in (LieType("A", 3), LieType("D", 4)):
        with pytest.raises(TheoremCheckError, match="theta"):
            rootsys.RootSystem(lt)


WALK = rootsys._alpha_strings


def planted_walk(monkeypatch, edit):
    # the alpha-string walk with the entry (pairing, parent, i) of the
    # highest root rewritten by edit(theta, pairing, parent, i)
    def planted(c, n):
        found = WALK(c, n)
        theta = max(found, key=sum)
        found[theta] = edit(theta, *found[theta])
        return found

    monkeypatch.setattr(rootsys, "_alpha_strings", planted)


PLANTED_TYPES = [LieType("A", 1), LieType("B", 3), LieType("C", 4), LieType("D", 5)]


@pytest.mark.parametrize("lt", PLANTED_TYPES, ids=str)
def test_wrong_root_weight_in_the_table_is_caught(monkeypatch, lt):
    planted_walk(monkeypatch, lambda theta, w, parent, i: ((w[0] + 1,) + w[1:], parent, i))
    with pytest.raises(TheoremCheckError, match="table entry"):
        rootsys.RootSystem(lt)


@pytest.mark.parametrize("lt", PLANTED_TYPES, ids=str)
def test_wrong_root_parent_in_the_table_is_caught(monkeypatch, lt):
    # a root as its own parent, and (rank 2 up) the right parent at the wrong node
    planted_walk(monkeypatch, lambda theta, w, parent, i: (w, theta, i))
    with pytest.raises(TheoremCheckError, match="table entry"):
        rootsys.RootSystem(lt)
    if lt.rank > 1:
        planted_walk(monkeypatch, lambda theta, w, parent, i: (w, parent, (i + 1) % lt.rank))
        with pytest.raises(TheoremCheckError, match="table entry"):
            rootsys.RootSystem(lt)

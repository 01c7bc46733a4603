import math
import random
from fractions import Fraction

import pytest

from krlib.linalg import Echelon, SpMat, flatten, lattice_basis, lattice_coords, nullspace


def vec_add(a, b, coeff=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + coeff * v
    return {k: v for k, v in out.items() if v != 0}


def test_spmat_set_get_and_zero_removal():
    m = SpMat(3, 3)
    m.set(0, 1, 5)
    assert m.get(0, 1) == 5
    assert m.nnz() == 1
    m.set(0, 1, 0)
    assert m.data == {}
    m.add_to(2, 2, 3)
    m.add_to(2, 2, -3)
    assert m.data == {}


def test_spmat_apply_and_matmul_agree():
    a = SpMat(2, 2)
    a.set(0, 0, 1)
    a.set(0, 1, 2)
    a.set(1, 1, 3)
    b = SpMat(2, 2)
    b.set(0, 0, 4)
    b.set(1, 0, 5)
    prod = a @ b
    # column 0 of a@b equals a applied to column 0 of b
    assert prod.col(0) == a.apply(b.col(0))
    assert prod.get(0, 0) == 1 * 4 + 2 * 5
    assert prod.get(1, 0) == 3 * 5


def test_bracket_antisymmetry_and_identity():
    e = SpMat(2, 2)
    e.set(0, 1, 1)
    f = SpMat(2, 2)
    f.set(1, 0, 1)
    h = e.bracket(f)
    assert h == SpMat.from_diag([1, -1])
    assert f.bracket(e) == h.scale(-1)
    assert SpMat.from_diag([1, 1]).bracket(e) == SpMat(2, 2)


def test_flat_vec_indexing():
    m = SpMat(2, 3)
    m.set(1, 2, 7)
    assert flatten(m.data, m.rows) == {2 * 2 + 1: 7}


def test_echelon_ordinals_and_coords():
    ech = Echelon()
    v1 = {0: 1, 1: 2}
    v2 = {1: 1, 2: 1}
    assert ech.add(v1) == 0
    assert ech.add(v2) == 1
    # dependent vector consumes no ordinal
    assert ech.add(vec_add(v1, v2, 3)) is None
    v3 = {2: 5}
    assert ech.add(v3) == 2
    assert ech.dim == 3
    combo = vec_add(vec_add(v1, v2, -2), v3, 7)
    coords = ech.coords(combo)
    assert coords == ({0: 1, 1: -2, 2: 7}, 1)
    assert ech.coords({3: 1}) is None
    assert ech.coords(v2) == ({1: 1}, 1)


def test_echelon_fractional_pivots():
    ech = Echelon()
    ech.add({0: 2, 1: 4})
    # 2 * (e0 + 2 e1) = 1 * original_0: the coordinate 1/2 as (1, 2)
    coords = ech.coords({0: 1, 1: 2})
    assert coords == ({0: 1}, 2)


def test_nullspace_chain_system():
    # x0 + x1 = 0, x1 + x2 = 0 over three variables
    rows = [{"x0": 1, "x1": 1}, {"x1": 1, "x2": 1}]
    sols = nullspace(rows, ["x0", "x1", "x2"])
    assert len(sols) == 1
    s = sols[0]
    assert s["x0"] + s["x1"] == 0
    assert s["x1"] + s["x2"] == 0
    assert s["x2"] != 0


def test_nullspace_no_constraints_and_full_rank():
    sols = nullspace([], ["a", "b"])
    assert [sorted(s.items()) for s in sols] == [[("a", Fraction(1))], [("b", Fraction(1))]]
    sols = nullspace([{"a": 1}, {"b": 1}], ["a", "b"])
    assert sols == []


def test_nullspace_back_substitution_order():
    # x0 = x1 + x2 and x1 = 2 x2: solution proportional to (3, 2, 1)
    rows = [{0: 1, 1: -1, 2: -1}, {1: 1, 2: -2}]
    sols = nullspace(rows, [0, 1, 2])
    assert len(sols) == 1
    s = sols[0]
    assert s[0] == 3 * s[2] and s[1] == 2 * s[2]


def test_spmat_not_hashable():
    with pytest.raises(TypeError):
        hash(SpMat(1, 1))


# -- the integer kernel against a Fraction Gauss-Jordan oracle ---------------


def _rref(mat, width):
    """Gauss-Jordan over Fraction, in place; returns the pivot columns."""
    pivots = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots


def _oracle_solve(columns, target, width):
    """Coefficients c with sum_k c[k] * columns[k] == target, or None;
    the columns must be independent."""
    m = len(columns)
    mat = [
        [Fraction(col.get(d, 0)) for col in columns] + [Fraction(target.get(d, 0))]
        for d in range(width)
    ]
    if m in _rref(mat, m + 1):
        return None
    return [mat[i][m] for i in range(m)]


def _oracle_nullspace(rows, width):
    """One solution per free column, with a 1 there."""
    mat = [[Fraction(row.get(d, 0)) for d in range(width)] for row in rows]
    pivots = _rref(mat, width)
    return {
        j: {j: 1, **{p: -mat[i][j] for i, p in enumerate(pivots) if mat[i][j]}}
        for j in range(width)
        if j not in pivots
    }


def _random_vector(rnd, width):
    return {d: x for d in range(width) if (x := rnd.choice([0, 0, 1, -1, 2, -3, 5, 6]))}


def _random_int_system(rnd):
    """Sparse int vectors; about a third are integer combinations of
    earlier ones, so most systems lose rank or span a proper sublattice."""
    width = rnd.randint(1, 7)
    vecs = []
    for _ in range(rnd.randint(1, 9)):
        if vecs and rnd.random() < 0.35:
            acc = {}
            for v in rnd.sample(vecs, min(len(vecs), 2)):
                acc = vec_add(acc, v, rnd.choice([-3, -2, -1, 1, 2, 5]))
        else:
            acc = _random_vector(rnd, width)
        vecs.append(acc)
    return vecs, width


@pytest.mark.parametrize("seed", range(8))
def test_echelon_matches_fraction_oracle(seed):
    rnd = random.Random(seed)
    for _ in range(40):
        vecs, width = _random_int_system(rnd)
        ech = Echelon()
        kept = []
        for v in vecs:
            independent = _oracle_solve(kept, v, width) is None
            count = ech.count
            got = ech.add(v)
            if independent:
                assert got == count == len(kept)
                kept.append(v)
            else:
                # a dependent vector consumes no ordinal
                assert got is None and ech.count == count
        assert ech.dim == len(kept)
        for p, (r, comb, den) in ech.pivots.items():
            # stored rows are primitive integer vectors led by a positive pivot
            assert all(type(x) is int for x in [*r.values(), *comb.values(), den])
            assert min(r) == p and r[p] > 0 and den > 0
            assert math.gcd(*r.values()) == 1
            rebuilt = {}
            for k, c in comb.items():
                rebuilt = vec_add(rebuilt, kept[k], c)
            assert rebuilt == {d: den * x for d, x in r.items()}
        probes = vecs + [_random_vector(rnd, width) for _ in range(4)]
        for probe in probes:
            want = _oracle_solve(kept, probe, width)
            got = ech.coords(probe)
            if want is None:
                assert got is None
                continue
            x, d = got
            assert all(type(c) is int for c in [*x.values(), d])
            assert {k: Fraction(c, d) for k, c in x.items()} == {
                k: c for k, c in enumerate(want) if c != 0
            }
            # d is the least common denominator of the coordinates
            assert d == math.lcm(*(c.denominator for c in want))


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_matches_fraction_oracle(seed):
    rnd = random.Random(100 + seed)
    for _ in range(40):
        rows, width = _random_int_system(rnd)
        names = [f"x{d}" for d in range(width)]
        sols = nullspace([{names[d]: c for d, c in row.items()} for row in rows], names)
        want = _oracle_nullspace(rows, width)
        assert len(sols) == len(want)
        for (j, expect), sol in zip(sorted(want.items()), sols):
            assert all(type(x) is int for x in sol.values())
            assert math.gcd(*sol.values()) == 1 and sol[names[j]] > 0
            # equal up to scale to the oracle's solution with a 1 at column j
            scale = sol[names[j]]
            assert sol == {names[d]: scale * x for d, x in expect.items()}


@pytest.mark.parametrize("seed", range(8))
def test_lattice_basis_is_the_reduced_echelon_form(seed):
    rnd = random.Random(200 + seed)
    for _ in range(40):
        vecs, width = _random_int_system(rnd)
        basis = lattice_basis(vecs)
        rows = list(basis.items())
        assert [p for p, _ in rows] == sorted(basis)
        for a, (p, row) in enumerate(rows):
            # echelon, led by a positive pivot, reduced at every later pivot
            assert all(type(x) is int and x for x in row.values())
            assert min(row) == p and row[p] > 0
            for q, later in rows[a + 1 :]:
                assert 0 <= row.get(q, 0) < later[q]
        for v in vecs:
            coords = lattice_coords(basis, v)
            assert all(type(c) is int for c in coords.values())
            rebuilt = {}
            for k, c in coords.items():
                rebuilt = vec_add(rebuilt, rows[k][1], c)
            assert rebuilt == v
        ech = Echelon()
        for v in vecs:
            ech.add(v)
        assert len(basis) == ech.dim
        # the reduced form is unique per lattice
        shuffled = rnd.sample(vecs, len(vecs))
        extra = []
        for _ in range(3):
            acc = {}
            for v in vecs:
                acc = vec_add(acc, v, rnd.randint(-4, 4))
            extra.append(acc)
        assert lattice_basis(shuffled + extra) == basis
        if basis:
            p, row = rows[-1]
            # a vector off the lattice: half the last row, or a new index
            assert lattice_coords(basis, {**row, width: 1}) is None
            assert lattice_coords(basis, {k: Fraction(x, 2) for k, x in row.items()}) is None

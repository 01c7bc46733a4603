import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krlib import charlib, cli, krset, modforge
from krlib.errors import DimensionGuardError, ScopeError, TheoremCheckError
from krlib.linalg import Echelon, SpMat, flatten, nullspace, residue, rows
from krlib.rootsys import build, parse_type


def rs_of(name):
    return build(parse_type(name))


def verify_matrix_rep(rep):
    """Bracket identities, highest-vector relations and the full character
    against the weight multiplicities: the check of every MatrixRep built
    here."""
    rs = rep.rs
    n = rs.rank
    if rep.basis_weights != modforge._weights_from_h(rep.h, rep.dim):
        raise TheoremCheckError("h eigenvalues disagree with the recorded weights")
    for i in range(n):
        for j in range(n):
            if rep.h[i].bracket(rep.e[j]) != rep.e[j].scale(rs.cartan[j][i]):
                raise TheoremCheckError(f"[h_{i+1}, e_{j+1}] failed")
            if rep.h[i].bracket(rep.f[j]) != rep.f[j].scale(-rs.cartan[j][i]):
                raise TheoremCheckError(f"[h_{i+1}, f_{j+1}] failed")
            br = rep.e[i].bracket(rep.f[j])
            if (br if i != j else br - rep.h[i]) != SpMat(rep.dim, rep.dim):
                raise TheoremCheckError(f"[e_{i+1}, f_{j+1}] failed")
    hv = rep.highest_vector
    for i in range(1, n + 1):
        if rep.gen("e", i).apply(hv):
            raise TheoremCheckError("highest vector is not killed by e")
    if rep.basis_weights[rep.highest_index] != rep.highest_weight:
        raise TheoremCheckError("highest weight mismatch")
    mass = {}
    for w in rep.basis_weights:
        mass[w] = mass.get(w, 0) + 1
    if mass != charlib.weight_mults(rs, rep.highest_weight):
        raise TheoremCheckError("character disagrees with the weight multiplicities")


DEFINING_DIMS = {
    "A1": 2,
    "A3": 4,
    "B2": 5,
    "B3": 7,
    "C2": 4,
    "C4": 8,
    "D3": 6,
    "D4": 8,
}


@pytest.mark.parametrize("name", sorted(DEFINING_DIMS))
def test_defining_rep_verifies(name):
    rep = modforge.defining_rep(rs_of(name))
    verify_matrix_rep(rep)
    assert rep.dim == DEFINING_DIMS[name]
    assert rep.highest_weight == rep.rs.fundamental(1)
    assert rep.highest_index == 0


def test_defining_a1_is_elementary():
    rep = modforge.defining_rep(rs_of("A1"))
    e = SpMat(2, 2)
    e.set(0, 1, 1)
    assert rep.e[0] == e


def test_defining_c2_weights():
    rep = modforge.defining_rep(rs_of("C2"))
    assert rep.basis_weights == ((1, 0), (-1, 1), (1, -1), (-1, 0))


def test_defining_b3_has_one_zero_weight():
    rep = modforge.defining_rep(rs_of("B3"))
    assert rep.basis_weights.count((0, 0, 0)) == 1


def test_defining_b_matrices_are_integral():
    rep = modforge.defining_rep(rs_of("B3"))
    for m in list(rep.e) + list(rep.f) + list(rep.h):
        for _, _, v in m.entries():
            assert v == int(v)


def test_chevalley_basis_size_and_struct():
    rs = rs_of("C3")
    cb = modforge.chevalley(rs)
    assert cb.dim_g == 2 * len(rs.positive_roots) + rs.rank == 21
    # [h, x+_theta] reads off theta's fundamental coordinates
    a = cb.plus_index(rs.theta)
    for j in range(1, rs.rank + 1):
        coeffs = cb.struct(cb.h_index(j), a)
        assert coeffs == ({a: rs.root_weight(rs.theta)[j - 1]} if rs.root_weight(rs.theta)[j - 1] else {})
    # antisymmetry on a sample of pairs
    for x in range(0, cb.dim_g, 5):
        for y in range(0, cb.dim_g, 7):
            lhs = cb.struct(x, y)
            rhs = {k: -v for k, v in cb.struct(y, x).items()}
            assert lhs == rhs


STRUCT_SWEEP = [
    f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 6)
]


@pytest.mark.parametrize("name", STRUCT_SWEEP)
def test_struct_matches_echelon_oracle(name):
    # the oracle: coordinates of the flattened bracket over an echelon of
    # the whole flattened basis, which assumes nothing about weights
    def flat(m):
        return {r * m.cols + c: v for r, c, v in m.entries()}

    cb = modforge.ChevalleyBasis(rs_of(name))
    ech = Echelon()
    for m in cb.def_mats:
        ech.add(flat(m))
    for a in range(cb.dim_g):
        for b in range(cb.dim_g):
            want, d = ech.coords(flat(cb.def_mats[a].bracket(cb.def_mats[b])))
            got = cb.struct(a, b)
            assert d == 1 and got == want
            assert all(type(v) is int for v in got.values())


def test_struct_raises_when_a_bracket_leaves_the_basis():
    rs = rs_of("A2")
    cb = modforge.ChevalleyBasis(rs)
    e1, e2 = (cb.plus_index(rc) for rc in cb.simple)
    # e_1 + f_2 has no weight: its bracket with e_2 is c x_theta - h_2;
    # struct multiplies by the row tables too, so they change with it
    cb.def_mats[e1] = cb.def_mats[e1] + cb.def_mats[cb.minus_index(cb.simple[1])]
    cb.def_rows[e1] = rows(cb.def_mats[e1].data)
    with pytest.raises(TheoremCheckError, match="bracket left the span of the g-basis"):
        cb.struct(e1, e2)


@pytest.mark.parametrize(
    "wrong,message",
    [
        ("recipe", r"generators do not generate the basis: the recipe bracket of root"),
        ("h", r"generators do not generate the basis: \[e_1, f_1\] is not h_1"),
    ],
)
def test_chevalley_basis_checks_that_the_generators_generate(monkeypatch, wrong, message):
    # one bracket of the generation premise comes back wrong: the recipe of
    # theta with q off by one, or [e_1, f_1] = 2 h_1
    rs = rs_of("C3")
    real = modforge.ChevalleyBasis._bracket_coords

    def off(cb, a, b):
        out = real(cb, a, b)
        if wrong == "recipe":
            i, parent, q = cb.recipe[rs.theta]
            if (a, b) == (cb.plus_index(cb.simple[i - 1]), cb.plus_index(parent)):
                return {cb.plus_index(rs.theta): q + 1}
        elif (a, b) == (cb.plus_index(cb.simple[0]), cb.minus_index(cb.simple[0])):
            return {z: 2 * v for z, v in out.items()}
        return out

    monkeypatch.setattr(modforge.ChevalleyBasis, "_bracket_coords", off)
    modforge._chevalley.cache_clear()
    try:
        with pytest.raises(TheoremCheckError, match=message):
            modforge.chevalley(rs)
    finally:
        modforge._chevalley.cache_clear()


ADJOINT_DIMS = {"A2": 8, "C2": 10, "B3": 21, "C3": 21, "D4": 28, "B4": 36}


@pytest.mark.parametrize("name", sorted(ADJOINT_DIMS))
def test_adjoint_rep_verifies(name):
    rs = rs_of(name)
    adj = modforge.adjoint_rep(rs)
    verify_matrix_rep(adj)
    assert adj.dim == ADJOINT_DIMS[name]
    assert adj.highest_weight == rs.root_weight(rs.theta)


HIGHEST_DIMS = [
    ("C2", (2, 0), 10),
    ("C2", (0, 1), 5),
    ("C2", (0, 2), 14),
    ("B3", (0, 0, 2), 35),
    ("C3", (0, 2, 0), 90),
    ("A2", (2, 1), 15),
    ("B4", (0, 0, 1, 0), 84),
    ("D4", (0, 1, 0, 0), 28),
]


@pytest.mark.parametrize("name,lam,want", HIGHEST_DIMS)
def test_highest_module_dims(name, lam, want):
    rs = rs_of(name)
    rep = modforge.highest_module(rs, lam)
    verify_matrix_rep(rep)
    assert rep.dim == want == charlib.weyl_dim(rs, lam)
    assert rep.highest_weight == lam


def test_highest_module_trivial():
    rs = rs_of("B3")
    rep = modforge.highest_module(rs, (0, 0, 0))
    assert rep.dim == 1
    assert not any(m.data for m in rep.e + rep.f + rep.h)


def test_highest_module_scope_errors():
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("B3"), (0, 0, 1))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("B3"), (1, 0, 3))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("D4"), (0, 0, 1, 0))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("D4"), (0, 0, 0, 2))


def test_highest_module_rejects_bad_weights(monkeypatch):
    with pytest.raises(ValueError):
        modforge.highest_module(rs_of("C2"), (-1, 0))
    monkeypatch.setenv("KR_MAX_DIM", "50")
    with pytest.raises(DimensionGuardError):
        modforge.highest_module(rs_of("C3"), (0, 2, 0))


def rational_coords(ech, vec):
    """The coordinates of vec over the originals of ech, as Fractions."""
    x, d = ech.coords(vec)
    return {k: Fraction(v, d) for k, v in x.items()}


def rational_highest_module(rs, lam):
    """V(lam) on the span basis: the f_i images of the top vector, found
    depth first and kept when independent of their weight block, with e_i
    and f_i read off as rational coordinates.  The oracle for the lattice
    construction of modforge.highest_module; returns the blocks, weight ->
    (Echelon, basis indices), and the generators, (kind, i) -> SpMat."""
    amb = modforge.tensor_rep(modforge._scope_factors(rs, lam))
    vecs, wts, blocks = [], [], {}

    def insert(vec, wt):
        ech, members = blocks.setdefault(wt, (Echelon(), []))
        if ech.add(vec) is None:
            return False
        members.append(len(vecs))
        vecs.append(vec)
        wts.append(wt)
        return True

    insert({0: 1}, lam)
    queue = [0]
    while queue:
        r = queue.pop()
        for i, alpha in enumerate(rs.cartan, 1):
            img = amb.apply(("f", i), vecs[r])
            if img and insert(img, tuple(map(sub, wts[r], alpha))):
                queue.append(len(vecs) - 1)
    mats = {}
    for kind, move in (("e", add), ("f", sub)):
        for i, alpha in enumerate(rs.cartan, 1):
            m = mats[kind, i] = SpMat(len(vecs), len(vecs))
            for r, vec in enumerate(vecs):
                img = amb.apply((kind, i), vec)
                if img:
                    ech, members = blocks[tuple(map(move, wts[r], alpha))]
                    for k, v in rational_coords(ech, img).items():
                        m.set(members[k], r, v)
    return blocks, mats


@pytest.mark.parametrize("name,lam", [("C3", (0, 2, 0)), ("C4", (0, 0, 2, 0))])
def test_highest_module_is_a_change_of_basis_of_the_span(monkeypatch, name, lam):
    rs = rs_of(name)
    rows = []
    real = modforge.lattice_basis

    def recording(vectors):
        out = real(vectors)
        rows.extend(out.values())
        return out

    # the lattice bases, block by block, are the basis vectors in order
    monkeypatch.setattr(modforge, "lattice_basis", recording)
    rep = modforge.highest_module(rs, lam)
    blocks, mats = rational_highest_module(rs, lam)
    assert len(rows) == rep.dim == sum(len(members) for _, members in blocks.values())
    # column j of P is basis vector j over the oracle's basis of its block
    P = SpMat(rep.dim, rep.dim)
    ech = Echelon()
    for j, row in enumerate(rows):
        block, members = blocks[rep.basis_weights[j]]
        x, d = block.coords(row)
        for k, v in x.items():
            P.set(members[k], j, Fraction(v, d))
        # the columns of P are independent: d times column j is an int vector
        assert ech.add({members[k]: v for k, v in x.items()}) is not None
    for (kind, i), m in mats.items():
        assert m @ P == P @ rep.gen(kind, i)


@pytest.mark.parametrize(
    "edit,message",
    [
        ("raise", "has rank 2, the multiplicity is 3"),
        ("drop", r"off the lattice of weight \(0, -2, 0\)"),
    ],
)
def test_highest_module_checks_the_character(monkeypatch, edit, message):
    rs = rs_of("C3")
    real = charlib.weight_mults

    def corrupted(rs_, lam):
        out = dict(real(rs_, lam))
        if edit == "raise":
            out[(2, 0, 0)] += 1
        else:
            del out[(0, -2, 0)]
        return out

    monkeypatch.setattr(charlib, "weight_mults", corrupted)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.highest_module(rs, (0, 2, 0))


def test_verify_matrix_rep_detects_damage():
    rep = modforge.highest_module(rs_of("C2"), (1, 0))
    bad_e = rep.e[0].scale(2)
    damaged = rep._replace(e=(bad_e, rep.e[1]))
    with pytest.raises(TheoremCheckError):
        verify_matrix_rep(damaged)


def kron_sum(ma, mb):
    """ma (x) 1 + 1 (x) mb with index ia * b + ib, materialized."""
    a, b = ma.rows, mb.rows
    out = SpMat(a * b, a * b)
    for r, c, v in ma.entries():
        for k in range(b):
            out.add_to(r * b + k, c * b + k, v)
    for r, c, v in mb.entries():
        for k in range(a):
            out.add_to(k * b + r, k * b + c, v)
    return out


def kron_tensor_rep(a, b):
    """The materialized tensor product a (x) b: the oracle for tensor_rep."""
    n = a.rs.rank
    weights = tuple(
        tuple(map(add, wa, wb)) for wa in a.basis_weights for wb in b.basis_weights
    )
    return modforge.MatrixRep(
        a.rs,
        a.dim * b.dim,
        tuple(kron_sum(a.e[t], b.e[t]) for t in range(n)),
        tuple(kron_sum(a.f[t], b.f[t]) for t in range(n)),
        tuple(kron_sum(a.h[t], b.h[t]) for t in range(n)),
        weights,
        a.highest_index * b.dim + b.highest_index,
        tuple(map(add, a.highest_weight, b.highest_weight)),
    )


TENSOR_FACTORS = [
    ("C2", [None, (2, 0)]),
    ("B2", [(1, 0), (0, 2), (1, 0)]),
]


@pytest.mark.parametrize("name,lams", TENSOR_FACTORS)
def test_tensor_rep_matches_kronecker_oracle(name, lams):
    rs = rs_of(name)
    factors = [
        modforge.adjoint_rep(rs) if lam is None else modforge.highest_module(rs, lam)
        for lam in lams
    ]
    op = modforge.tensor_rep(factors)
    oracle = reduce(kron_tensor_rep, factors)
    assert op.dim == oracle.dim
    rng = random.Random(11)
    for kind in ("e", "f"):
        for i in range(1, rs.rank + 1):
            gen = oracle.gen(kind, i)
            for c in range(op.dim):
                # same entries in the same order, column by column
                got = op.apply((kind, i), {c: 1})
                assert list(got.items()) == list(gen.col(c).items())
            vec = {c: rng.choice([-2, -1, 1, Fraction(1, 3)]) for c in rng.sample(range(op.dim), 40)}
            assert op.apply((kind, i), vec) == gen.apply(vec)
    for c in range(op.dim):
        assert op.grade_weight(c) == (0, oracle.basis_weights[c])


def flat_action(cm, a, tpow):
    """x_a (x) t^tpow on the whole graded module, materialized."""
    offs = cm.offsets()
    out = SpMat(cm.total_dim, cm.total_dim)
    for s, mats in enumerate((cm.g_action, cm.t_action)[tpow]):
        for r, c, v in mats[a].entries():
            out.set(offs[s + tpow] + r, offs[s] + c, v)
    return out


def test_tensor_rep_of_current_modules_adds_grades():
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    op = modforge.tensor_rep([cm, cm])
    n = cm.total_dim
    assert op.dim == n * n
    grades = [s for s, p in enumerate(cm.pieces) for _ in range(p.dim)]
    weights = [w for p in cm.pieces for w in p.basis_weights]
    for idx in range(op.dim):
        hi, lo = divmod(idx, n)
        assert op.grade_weight(idx) == (
            grades[hi] + grades[lo],
            tuple(map(add, weights[hi], weights[lo])),
        )
    moved = 0
    for a in range(modforge.chevalley(rs).dim_g):
        for tpow in (0, 1):
            m = flat_action(cm, a, tpow)
            oracle = kron_sum(m, m)
            for c in range(op.dim):
                got = op.apply((a, tpow), {c: 1})
                assert got == oracle.col(c)
                if tpow == 0:
                    continue
                # x (x) t moves exactly one slot up one piece
                for k in got:
                    changed = [(x, y) for x, y in zip(divmod(c, n), divmod(k, n)) if x != y]
                    assert len(changed) == 1
                    (x, y), = changed
                    assert grades[y] == grades[x] + 1
                    moved += 1
    assert moved


def tensor_intertwiner(rs, source, target):
    """Basis of the g-equivariant maps from the tensor_rep source to the
    simple target V(lam), solved one weight space at a time over every column
    of the source: the oracle for the step solver modforge.intertwiner, which
    solves on V_s alone.

    One nullspace over the source columns of weight lam gives the top of
    every map; below the top, phi(c) is the unique x with e_i x = phi(e_i c),
    read off an echelon of the stacked e_i images of V(lam), which raises
    unless they are injective below the top.  f-equivariance follows by a
    lemma from that injectivity and the top nullspace, once the factors pass
    modforge._check_generators.
    """
    lam = target.highest_weight
    dim = target.dim
    modforge._check_generators(rs, target.slot(), "the target")
    for t, slot in enumerate(source.slots):
        modforge._check_generators(rs, slot, f"source factor {t}")

    cols_by_wt = {}
    for c in range(source.dim):
        cols_by_wt.setdefault(source.grade_weight(c)[1], []).append(c)
    rows_by_wt = {}
    for r, wt in enumerate(target.basis_weights):
        rows_by_wt.setdefault(wt, []).append(r)
    top = target.highest_index
    if rows_by_wt.get(lam) != [top]:
        raise TheoremCheckError(f"weight {lam} of the target is not a highest line")

    eqs = [
        source.apply(("f", i), {c: 1})
        for i, alpha in enumerate(rs.cartan, start=1)
        for c in cols_by_wt.get(tuple(map(add, lam, alpha)), ())
    ]
    maps = [
        SpMat(dim, source.dim, {c: {top: v} for c, v in sol.items()})
        for sol in nullspace(eqs, cols_by_wt.get(lam, []))
    ]
    if not maps:
        return []

    weights = {tuple(map(sub, mu, alpha)) for mu in rows_by_wt for alpha in rs.cartan}
    depth = {mu: rs.scaled_height(tuple(map(sub, lam, mu))) for mu in weights | rows_by_wt.keys()}
    for mu in sorted(depth.keys() - {lam}, key=lambda mu: (depth[mu], mu)):
        basis = rows_by_wt.get(mu, ())
        ech = Echelon()
        for r in basis:
            if ech.add(flatten({i: e.col(r) for i, e in enumerate(target.e)}, dim)) is None:
                raise TheoremCheckError(f"the e_i are not injective on weight {mu} of V({lam})")
        live = [i for i, alpha in enumerate(rs.cartan, 1) if tuple(map(add, mu, alpha)) in rows_by_wt]
        for c in cols_by_wt.get(mu, ()):
            ups = [(i, source.apply(("e", i), {c: 1})) for i in live]
            for phi in maps:
                rhs = {(i - 1) * dim + z: v for i, up in ups for z, v in phi.apply(up).items()}
                if not rhs:
                    continue
                got = ech.coords(rhs)
                if got is None:
                    raise TheoremCheckError(
                        f"no vector of weight {mu} in V({lam}) matches the e-images of source column {c}"
                    )
                x, d = got
                if d > 1:
                    for col in phi.data.values():
                        for r in col:
                            col[r] *= d
                phi.data[c] = {basis[k]: v for k, v in x.items()}
    return maps


def oracle_t_action(cm, solve):
    """The t-action of cm recomputed step by step from solve(rs, g (x) V_s,
    V_{s+1}), a solver of the g-maps on the whole tensor product, with one
    solution divided by its transport scale and split into the D maps x_b (x) t."""
    rs = cm.rs
    cb = modforge.chevalley(rs)
    adj = modforge.adjoint_rep(rs)
    out = []
    for s in range(cm.k):
        src, tgt = cm.pieces[s], cm.pieces[s + 1]
        (T,) = solve(rs, modforge.tensor_rep([adj, src]), tgt)
        beta = tuple(map(sub, cm.chain[s], cm.chain[s + 1]))
        col = T.col(cb.minus_index(rs.int_root_coords(beta)) * src.dim + src.highest_index)
        assert set(col) == {tgt.highest_index}
        scale = col[tgt.highest_index]
        maps = [{} for _ in range(cb.dim_g)]
        for c, column in T.data.items():
            assert all(v % scale == 0 for v in column.values())
            maps[c // src.dim][c % src.dim] = {r: v // scale for r, v in column.items()}
        out.append(maps)
    return out


def t_tables(cm):
    return [[m.data for m in mats] for mats in cm.t_action]


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2), ("C4", 3)])
def test_t_action_matches_tensor_oracle(name, node):
    cm = modforge.build_kr_fundamental(rs_of(name), node)
    assert t_tables(cm) == oracle_t_action(cm, tensor_intertwiner)


@pytest.mark.parametrize("name", ["A2", "B3", "C4", "D4", "B6"])
def test_f_tree_reaches_the_basis_from_theta(name):
    rs = rs_of(name)
    cb = modforge.chevalley(rs)
    reached = [cb.plus_index(rs.theta)]
    for z, i, b, c in cb.f_tree:
        # parents first, and c the single structure constant of the edge
        assert b in reached and z not in reached
        assert cb.struct(cb.minus_index(cb.simple[i - 1]), b) == {z: c}
        reached.append(z)
    assert sorted(reached) == list(range(cb.dim_g))


def test_build_kr_pairs_weights_without_grade_weight(monkeypatch):
    # the step solver finds the columns of g (x) V_s of a weight by pairing
    # the two factors' weights, never one column at a time
    def refuse(self, idx):
        raise AssertionError("grade_weight called")

    monkeypatch.setattr(modforge._Tensor, "grade_weight", refuse)
    assert modforge.build_kr_fundamental(rs_of("C3"), 2).k == 2


def test_intertwiner_schur():
    rs = rs_of("C2")
    v1 = modforge.highest_module(rs, (1, 0))
    v2 = modforge.highest_module(rs, (0, 1))
    assert len(tensor_intertwiner(rs, modforge.tensor_rep([v1]), v1)) == 1
    assert len(tensor_intertwiner(rs, modforge.tensor_rep([v1]), v2)) == 0


def test_intertwiner_matches_hom_dim():
    rs = rs_of("C2")
    adj = modforge.adjoint_rep(rs)
    big = modforge.highest_module(rs, (2, 0))
    src = modforge.tensor_rep([adj, big])
    achar = charlib.adjoint_char(rs)
    for lam in [(2, 0), (0, 0), (0, 1), (2, 1)]:
        tgt = modforge.highest_module(rs, lam)
        sols = tensor_intertwiner(rs, src, tgt)
        assert len(sols) == charlib.hom_dim(rs, [achar, (2, 0)], lam)
        # the maps stay integral, also where a column is solved over Q
        assert all(type(v) is int for t in sols for _, _, v in t.entries())
        # every solution is genuinely equivariant, column by column
        for t in sols:
            for i in range(1, rs.rank + 1):
                for kind in ("e", "f"):
                    for c in range(src.dim):
                        assert t.apply(src.apply((kind, i), {c: 1})) == tgt.gen(kind, i).apply(t.col(c))


def nullspace_intertwiner(rs, source, target):
    """One nullspace over every weight-matched entry, constrained by
    commutation with every e_i and f_i on every column: the oracle for the
    maps that modforge.intertwiner replays from one maximal vector."""
    source_wts = [source.grade_weight(c)[1] for c in range(source.dim)]
    cols_by_wt = {}
    for c, wt in enumerate(source_wts):
        cols_by_wt.setdefault(wt, []).append(c)
    rows_by_wt = {}
    for r in range(target.dim):
        rows_by_wt.setdefault(target.basis_weights[r], []).append(r)
    variables = [
        (r, c)
        for wt, rows in sorted(rows_by_wt.items())
        for r in rows
        for c in cols_by_wt.get(wt, [])
    ]
    varset = set(variables)

    def constraint_rows():
        for kind in ("e", "f"):
            for i in range(1, rs.rank + 1):
                gt = target.gen(kind, i)
                for c in range(source.dim):
                    acc = {}
                    for k, v in source.apply((kind, i), {c: 1}).items():
                        for r in rows_by_wt.get(source_wts[k], []):
                            if (r, k) in varset:
                                row = acc.setdefault(r, {})
                                row[(r, k)] = row.get((r, k), 0) + v
                    for k in rows_by_wt.get(source_wts[c], []):
                        if (k, c) in varset:
                            for rr, a in gt.col(k).items():
                                row = acc.setdefault(rr, {})
                                row[(k, c)] = row.get((k, c), 0) - a
                    yield from acc.values()

    out = []
    for sol in nullspace(constraint_rows(), variables):
        m = SpMat(target.dim, source.dim)
        for (r, c), v in sol.items():
            m.set(r, c, v)
        out.append(m)
    return out


def f_check_oracle(rs, source, target, maps):
    """phi(f_i c) = f_i phi(c) for every map, every source column c and
    every i where either side can be nonzero: the brute-force check of
    f-equivariance."""
    n = rs.rank
    cols_by_wt = {}
    for c in range(source.dim):
        cols_by_wt.setdefault(source.grade_weight(c)[1], []).append(c)
    rows_by_wt = {}
    for r, wt in enumerate(target.basis_weights):
        rows_by_wt.setdefault(wt, []).append(r)
    above = {
        i: {tuple(map(add, mu, rs.cartan[i - 1])) for mu in rows_by_wt} for i in range(1, n + 1)
    }

    for nu, cols in cols_by_wt.items():
        for i in range(1, n + 1):
            if nu not in rows_by_wt and nu not in above[i]:
                continue
            f = target.f[i - 1]
            for c in cols:
                down = source.apply(("f", i), {c: 1})
                for phi in maps:
                    if phi.apply(down) != f.apply(phi.col(c)):
                        raise TheoremCheckError(
                            f"intertwiner does not commute with f_{i} on source column {c}"
                        )


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2)])
def test_intertwiner_matches_nullspace_oracle(name, node):
    cm = modforge.build_kr_fundamental(rs_of(name), node)
    assert t_tables(cm) == oracle_t_action(cm, nullspace_intertwiner)


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2), ("C4", 3)])
def test_intertwiner_passes_the_f_check_oracle(name, node):
    # the built maps, as one map g (x) V_s -> V_{s+1}, commute with every f_i
    rs = rs_of(name)
    cm = modforge.build_kr_fundamental(rs, node)
    adj = modforge.adjoint_rep(rs)
    for s, mats in enumerate(cm.t_action):
        src, tgt = cm.pieces[s], cm.pieces[s + 1]
        T = SpMat(tgt.dim, len(mats) * src.dim)
        for b, m in enumerate(mats):
            T.data.update((b * src.dim + c, col) for c, col in m.data.items())
        f_check_oracle(rs, modforge.tensor_rep([adj, src]), tgt, [T])


def bump_first_entry(m):
    """A copy of m with 1 added to its first stored entry."""
    bad = m.copy()
    c = min(bad.data)
    r = min(bad.data[c])
    bad.set(r, c, bad.get(r, c) + 1)
    return bad


def plant_piece(monkeypatch, lam, edit):
    """Make highest_module return edit(V(lam)) for the weight lam."""
    real = modforge.highest_module
    monkeypatch.setattr(
        modforge, "highest_module", lambda rs, mu: edit(real(rs, mu)) if mu == lam else real(rs, mu)
    )


# C3 node 2 has the chain (0, 2, 0), (2, 0, 0), (0, 0, 0)


def test_intertwiner_detects_corrupted_target(monkeypatch):
    plant_piece(monkeypatch, (2, 0, 0), lambda rep: rep._replace(f=(bump_first_entry(rep.f[0]),) + rep.f[1:]))
    with pytest.raises(TheoremCheckError, match=r"\[e_1, f_1\] of piece 1 is not delta h"):
        modforge.build_kr_fundamental(rs_of("C3"), 2)


def test_intertwiner_detects_corrupted_source_factor(monkeypatch):
    real = modforge.adjoint_rep

    def damaged(rs):
        adj = real(rs)
        return adj._replace(f=(bump_first_entry(adj.f[0]),) + adj.f[1:])

    monkeypatch.setattr(modforge, "adjoint_rep", damaged)
    with pytest.raises(TheoremCheckError, match=r"\[e_1, f_1\] of the adjoint is not delta h"):
        modforge.build_kr_fundamental(rs_of("C3"), 2)


def test_intertwiner_detects_a_generator_entry_off_its_weight(monkeypatch):
    # one e_2 entry of V(2, 0, 0) moved to a row of another weight
    def edit(rep):
        bad = rep.e[1].copy()
        c = min(bad.data)
        r = min(bad.data[c])
        wts = rep.basis_weights
        moved = next(k for k in range(rep.dim) if wts[k] != wts[r] and k not in bad.data[c])
        bad.set(moved, c, bad.get(r, c))
        bad.set(r, c, 0)
        return rep._replace(e=rep.e[:1] + (bad,) + rep.e[2:])

    plant_piece(monkeypatch, (2, 0, 0), edit)
    with pytest.raises(TheoremCheckError, match="e_2 of piece 1 does not move weights by alpha_2"):
        modforge.build_kr_fundamental(rs_of("C3"), 2)


HOM_C3_STEP0 = r"Hom\(g \(x\) V\(0, 2, 0\), V\(2, 0, 0\)\)"


@pytest.mark.parametrize(
    "edit,message",
    [
        ("plus-one", r"no int vector of weight .* matches X e_i of column \d+"),
        ("zero", rf"the maximal vector of {HOM_C3_STEP0} is zero"),
        ("transport-zero", rf"{HOM_C3_STEP0} does not transport the highest vector"),
        ("transport-sign", rf"{HOM_C3_STEP0} does not transport the highest vector"),
    ],
    ids=["plus-one", "zero", "transport-zero", "transport-sign"],
)
def test_build_kr_checks_the_top_of_the_maximal_vector(monkeypatch, edit, message):
    # step 0 of C3 node 2: x_theta meets six source columns at the top, so a
    # +1 on one of X's top values leaves the line of the true top; the top
    # also holds x_-beta (x) v_top, whose value is the transport scale, and
    # with its sign flipped the replay sends v_top to minus the top
    rs = rs_of("C3")
    cb = modforge.chevalley(rs)
    theta = cb.plus_index(rs.theta)
    source = modforge.highest_module(rs, (0, 2, 0))
    sdim = source.dim
    transport = cb.minus_index(rs.int_root_coords((-2, 2, 0))) * sdim + source.highest_index
    real = modforge.nullspace
    calls = []

    def planted(eqs, variables):
        sols = real(eqs, variables)
        if not calls:
            tops = [c for c in variables if c // sdim == theta]
            if edit == "plus-one":
                sols[0][tops[0]] = sols[0].get(tops[0], 0) + 1
            elif edit == "zero":
                for c in tops:
                    sols[0].pop(c, None)
            elif edit == "transport-zero":
                del sols[0][transport]
            else:
                sols[0][transport] *= -1
        calls.append(len(sols))
        return sols

    monkeypatch.setattr(modforge, "nullspace", planted)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.build_kr_fundamental(rs, 2)
    assert calls == [1]


def test_build_kr_checks_that_e_kills_the_maximal_vector(monkeypatch):
    # a sweep that reads one column of X off wrongly leaves e_i . X != 0
    rs = rs_of("C3")
    modforge.chevalley(rs).f_tree
    skewed = []

    class Skewed(Echelon):
        def coords(self, vec):
            got = super().coords(vec)
            if got and not skewed:
                x, d = got
                k = min(x)
                skewed.append(k)
                return {**x, k: x[k] + d}, d
            return got

    monkeypatch.setattr(modforge, "Echelon", Skewed)
    with pytest.raises(TheoremCheckError, match=r"e_\d does not kill the maximal vector of Hom"):
        modforge.build_kr_fundamental(rs, 2)
    assert skewed


def test_build_kr_checks_each_tree_edge(monkeypatch):
    # a wrong struct coefficient on one edge of the replay tree
    rs = rs_of("C3")
    cb = modforge.chevalley(rs)
    edges = list(cb.f_tree)
    z, i, b, c = edges[1]
    edges[1] = (z, i, b, 3 * c)
    monkeypatch.setattr(cb, "f_tree", tuple(edges))
    with pytest.raises(TheoremCheckError, match=r"is not an integer vector divisible by"):
        modforge.build_kr_fundamental(rs, 2)


def test_build_kr_checks_that_the_e_are_injective_below_the_top(monkeypatch):
    # V(omega_1) (x) V(omega_1) for V(2 omega_1): the top of its wedge square,
    # at 2 omega_1 - alpha_1 = omega_2, is killed by every e_i
    rs = rs_of("C3")
    v1 = modforge.highest_module(rs, (1, 0, 0))
    plant_piece(monkeypatch, (2, 0, 0), lambda rep: kron_tensor_rep(v1, v1))
    with pytest.raises(TheoremCheckError, match=r"the e_i are not injective on weight \(0, 1, 0\)"):
        modforge.build_kr_fundamental(rs, 2)


PROPERTY_ALGEBRAS = [rs_of(name) for name in ("A2", "B2", "C2", "A3", "B3", "C3")]


@st.composite
def hom_cases(draw):
    """(algebra of rank 2 or 3, mu, lam): dominant weights inside the matrix
    scope with Weyl dimension <= 60, lam = mu + a root or mu itself, so that
    Hom(g (x) V(mu), V(lam)) is mostly nonzero."""
    rs = draw(st.sampled_from(PROPERTY_ALGEBRAS))
    n = rs.rank

    def small(lam):
        spin = rs.type.family == "B" and lam[n - 1] % 2
        return rs.dominant(lam) and not spin and charlib.weyl_dim(rs, lam) <= 60

    mu = draw(st.sampled_from([lam for lam in itertools.product(range(4), repeat=n) if small(lam)]))
    roots = [rs.root_weight(rc) for rc in rs.positive_roots]
    shifted = {mu} | {tuple(map(op, mu, root)) for root in roots for op in (add, sub)}
    lam = draw(st.sampled_from(sorted(lam for lam in shifted if small(lam))))
    return rs, mu, lam


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(hom_cases())
def test_intertwiner_commutes_with_every_generator(case):
    rs, mu, lam = case
    adj = modforge.adjoint_rep(rs)
    src = modforge.tensor_rep([adj, modforge.highest_module(rs, mu)])
    tgt = modforge.highest_module(rs, lam)
    maps = tensor_intertwiner(rs, src, tgt)
    assert len(maps) == charlib.hom_dim(rs, [adj.highest_weight, mu], lam)
    for t in maps:
        for kind in ("e", "f"):
            for i in range(1, rs.rank + 1):
                for c in range(src.dim):
                    assert t.apply(src.apply((kind, i), {c: 1})) == tgt.gen(kind, i).apply(t.col(c))


def test_intertwiner_rejects_reducible_target():
    rs = rs_of("C2")
    v1 = modforge.highest_module(rs, (1, 0))
    both = kron_tensor_rep(v1, v1)
    with pytest.raises(TheoremCheckError):
        tensor_intertwiner(rs, modforge.tensor_rep([both]), both)


def test_build_kr_checks_hom_dim(monkeypatch):
    monkeypatch.setattr(charlib, "hom_dim", lambda *a, **k: 2)
    with pytest.raises(TheoremCheckError):
        modforge.build_kr_fundamental(rs_of("C2"), 1)


def test_build_kr_b5_node3_frontier():
    cm = modforge.build_kr_fundamental(rs_of("B5"), 3)
    assert cm.chain == ((0, 0, 1, 0, 0), (1, 0, 0, 0, 0))
    assert [p.dim for p in cm.pieces] == [165, 11]


def test_build_kr_rejects_wrong_nodes():
    with pytest.raises(ValueError):
        modforge.build_kr_fundamental(rs_of("A2"), 1)
    with pytest.raises(ValueError):
        modforge.build_kr_fundamental(rs_of("C2"), 2)


def test_kr_c2_node1_module():
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    assert cm.chain == ((2, 0), (0, 0))
    assert [p.dim for p in cm.pieces] == [10, 1]
    assert cm.level == 2
    report = modforge.verify_current_relations(cm)
    assert report.ok
    assert report.total_dim == report.cyclic_dim == 11
    assert report.bracket_pairs == 90
    assert report.mixed_pairs == 100
    assert report.transport_steps == 1


def test_kr_c2_grading_action_on_generator():
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    cb = modforge.chevalley(rs)
    v0 = cm.pieces[0].highest_vector
    # x-_theta (x) t transports to the next piece, x-_alpha_1 (x) t kills
    assert cm.t_action[0][cb.minus_index(rs.theta)].apply(v0) == {0: 1}
    assert cm.t_action[0][cb.minus_index((1, 0))].apply(v0) == {}
    for j in range(1, rs.rank + 1):
        assert cm.t_action[0][cb.h_index(j)].apply(v0) == {}


def test_kr_c3_node2_module():
    rs = rs_of("C3")
    cm = modforge.build_kr_fundamental(rs, 2)
    assert cm.chain == ((0, 2, 0), (2, 0, 0), (0, 0, 0))
    assert [p.dim for p in cm.pieces] == [90, 21, 1]
    report = modforge.verify_current_relations(cm)
    assert report.ok and report.total_dim == 112
    # the antisymmetrized two-step composite vanished on every pair
    assert report.tsquare_pairs == 21 * 20 // 2


@pytest.mark.parametrize("name", ["C3", "C4"])
def test_kr_node2_pieces_are_admissible(name):
    # an admissible lattice is stable under the divided powers x^k / k!,
    # whatever basis the construction chose for it
    cm = modforge.build_kr_fundamental(rs_of(name), 2)
    for piece in cm.pieces:
        for gen in piece.e + piece.f:
            power = gen
            for k in range(1, 4):
                assert all(type(v) is int and v % math.factorial(k) == 0 for _, _, v in power.entries())
                power = power @ gen
    mats = [m for group in cm.g_action + cm.t_action for m in group]
    assert all(type(v) is int for m in mats for _, _, v in m.entries())
    assert modforge.verify_current_relations(cm).transport_steps == cm.k == 2


def test_kr_b4_node3_module():
    rs = rs_of("B4")
    cm = modforge.build_kr_fundamental(rs, 3)
    assert cm.chain == ((0, 0, 1, 0), (1, 0, 0, 0))
    assert [p.dim for p in cm.pieces] == [84, 9]
    report = modforge.verify_current_relations(cm)
    assert report.ok and report.cyclic_dim == 93


def test_verify_relations_c4_node3_frontier():
    # recorded when every pair was checked directly
    cm = modforge.build_kr_fundamental(rs_of("C4"), 3)
    report = modforge.verify_current_relations(cm)
    assert tuple(report) == ("C4 node 3 level 2", 1170, 2520, 3888, 1260, 45, 1170, 3)


def test_verify_relations_detects_broken_transport():
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    doubled = tuple(tuple(m.scale(2) for m in mats) for mats in cm.t_action)
    broken = cm._replace(t_action=doubled)
    with pytest.raises(TheoremCheckError):
        modforge.verify_current_relations(broken)


def spmat_relation_counts(cm):
    """The bracket, mixed and t^2 checks of verify_current_relations as
    pairwise SpMat products, with the same messages in the same order: the
    oracle for the integer relation kernel.  Returns the three pair counts."""
    cb = modforge.chevalley(cm.rs)
    D, k = cb.dim_g, cm.k

    def zmat(coeffs, s, tpow):
        mats = (cm.g_action, cm.t_action)[tpow][s]
        out = SpMat(cm.pieces[s + tpow].dim, cm.pieces[s].dim)
        for z, v in coeffs.items():
            out = out + mats[z].scale(v)
        return out

    brackets = 0
    for s in range(k + 1):
        g = cm.g_action[s]
        for a in range(D):
            for b in range(a + 1, D):
                if g[a].bracket(g[b]) != zmat(cb.struct(a, b), s, 0):
                    raise TheoremCheckError(f"[x_{a}, x_{b}] fails on piece {s}")
                brackets += 1
    mixed = 0
    for s in range(k):
        for a in range(D):
            for b in range(D):
                t = cm.t_action[s][b]
                lhs = cm.g_action[s + 1][a] @ t - t @ cm.g_action[s][a]
                if lhs != zmat(cb.struct(a, b), s, 1):
                    raise TheoremCheckError(f"[x_{a} (x) 1, x_{b} (x) t] fails on piece {s}")
                mixed += 1
    tsquare = 0
    for s in range(k - 1):
        lo, hi = cm.t_action[s], cm.t_action[s + 1]
        for a in range(D):
            for b in range(a + 1, D):
                if (hi[a] @ lo[b] - hi[b] @ lo[a]).data:
                    raise TheoremCheckError(
                        f"[x_{a} (x) t, x_{b} (x) t] does not vanish on piece {s}"
                    )
                tsquare += 1
    return brackets, mixed, tsquare


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2)])
def test_relation_kernel_matches_spmat_oracle(name, node):
    cm = modforge.build_kr_fundamental(rs_of(name), node)
    report = modforge.verify_current_relations(cm)
    assert report.ok
    counts = (report.bracket_pairs, report.mixed_pairs, report.tsquare_pairs)
    assert counts == spmat_relation_counts(cm)


def edit_first_entry(cm, family, s, a, edit):
    """cm with the first stored entry (r, c) of x_a on piece s (family "g")
    or of x_a (x) t on step s (family "t") edited in place by edit(m, r, c)
    on a copy m."""
    field = {"g": "g_action", "t": "t_action"}[family]
    groups = [list(mats) for mats in getattr(cm, field)]
    bad = groups[s][a].copy()
    c = next(iter(bad.data))
    edit(bad, next(iter(bad.data[c])), c)
    groups[s][a] = bad
    return cm._replace(**{field: tuple(tuple(mats) for mats in groups)})


def add_a_third(cm, family, s, a):
    """cm with 1/3 added to the first stored entry of x_a on piece s
    (family "g") or of x_a (x) t on step s (family "t")."""
    return edit_first_entry(cm, family, s, a, lambda m, r, c: m.set(r, c, m.get(r, c) + Fraction(1, 3)))


def move_off_its_weight(cm, family, s, a):
    """cm with the first stored entry of x_a on piece s or of x_a (x) t on
    step s moved to a row of another weight."""
    weights = cm.pieces[s + (family == "t")].basis_weights

    def move(m, r, c):
        m.set(next(k for k, wt in enumerate(weights) if wt != weights[r]), c, m.get(r, c))
        m.set(r, c, 0)

    return edit_first_entry(cm, family, s, a, move)


@pytest.fixture(scope="module")
def c3_node2():
    return modforge.build_kr_fundamental(rs_of("C3"), 2)


@pytest.fixture(scope="module")
def c4_node1():
    # pieces [36, 1]: g acts as zero on the last piece, so every mixed pair
    # of step 0 has an empty left factor
    return modforge.build_kr_fundamental(rs_of("C4"), 1)


@pytest.mark.parametrize(
    "module,family,s,message,exact",
    [
        ("c3_node2", "g", 0, r"\[x_\d+, x_\d+\] fails on piece 0", True),
        ("c3_node2", "g", 1, r"\[x_\d+, x_\d+\] fails on piece 1", False),
        ("c3_node2", "t", 0, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 0", False),
        ("c3_node2", "t", 1, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 1", False),
        ("c4_node1", "g", 0, r"\[x_\d+, x_\d+\] fails on piece 0", False),
        ("c4_node1", "t", 0, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 0", False),
    ],
    ids=["g-piece0", "g-piece1", "t-step0", "t-step1", "trivial-last-g-piece0", "trivial-last-t-step0"],
)
def test_verify_relations_catches_a_planted_entry(request, module, family, s, message, exact):
    cm = request.getfixturevalue(module)
    cb = modforge.chevalley(cm.rs)
    broken = add_a_third(cm, family, s, cb.minus_index(cb.simple[0]))
    with pytest.raises(TheoremCheckError, match=message) as got:
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=message) as want:
        spmat_relation_counts(broken)
    # where not exact, the oracle's first failing pair is one that the
    # presentation implies, as the fault is in its c_z terms
    if exact:
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def c4_node2():
    return modforge.build_kr_fundamental(rs_of("C4"), 2)


@pytest.mark.parametrize(
    "family,message",
    [
        ("g", r"\[x_\d+, x_\d+\] fails on piece 0"),
        ("t", r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 0"),
    ],
)
def test_verify_relations_catches_a_planted_entry_off_the_generators(c4_node2, family, message):
    # x_theta is no generator; the fault shows on its pairs with a generator
    cm = c4_node2
    cb = modforge.chevalley(cm.rs)
    theta = cb.plus_index(cm.rs.theta)
    assert theta not in cb.generators
    broken = add_a_third(cm, family, 0, theta)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=message):
        spmat_relation_counts(broken)


def test_verify_relations_checks_each_recipe_identity(c4_node2):
    # 1/3 on x_alpha of piece 0, alpha = alpha_1 + alpha_2: no generator and
    # no recipe's parent, so of all the checks only its own recipe meets it
    cm = c4_node2
    cb = modforge.chevalley(cm.rs)
    rc = (1, 1, 0, 0)
    i, parent, _ = cb.recipe[rc]
    assert parent is not None and rc not in [p for _, p, _ in cb.recipe.values()]
    a, b = sorted((cb.plus_index(cb.simple[i - 1]), cb.plus_index(parent)))
    broken = add_a_third(cm, "g", 0, cb.plus_index(rc))
    with pytest.raises(TheoremCheckError, match=rf"^\[x_{a}, x_{b}\] fails on piece 0$"):
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=r"fails on piece 0$"):
        spmat_relation_counts(broken)


def test_verify_relations_checks_each_tree_edge(c4_node1):
    # 1/3 on x_z (x) t for a leaf z of the f-tree that is a negative root, no
    # generator and not -theta (the transport): only the edge that reaches z
    # meets it, and with one step there is no t^2 pair
    cm = c4_node1
    cb = modforge.chevalley(cm.rs)
    parents = {b for _, _, b, _ in cb.f_tree}
    pos = len(cm.rs.positive_roots)
    z, i, b, _ = next(
        (z, i, b, c) for z, i, b, c in cb.f_tree
        if pos <= z < 2 * pos and z not in parents | set(cb.generators) | {cb.minus_index(cm.rs.theta)}
    )
    broken = add_a_third(cm, "t", 0, z)
    f_i = cb.minus_index(cb.simple[i - 1])
    with pytest.raises(TheoremCheckError, match=rf"^\[x_{f_i} \(x\) 1, x_{b} \(x\) t\] fails on piece 0$"):
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=r"fails on piece 0$"):
        spmat_relation_counts(broken)


def test_verify_relations_checks_that_h_is_the_weight_diagonal(c3_node2):
    # a wrong diagonal entry of N_h_1 off the top of piece 0: the generator
    # brackets read h_1 off the weights, so only the diagonal check meets it
    cm = c3_node2
    cb = modforge.chevalley(cm.rs)
    g_action = [list(mats) for mats in cm.g_action]
    h = g_action[0][cb.h_index(1)].copy()
    last = cm.pieces[0].dim - 1
    assert last != cm.pieces[0].highest_index
    h.set(last, last, h.get(last, last) + 1)
    g_action[0][cb.h_index(1)] = h
    broken = cm._replace(g_action=tuple(map(tuple, g_action)))
    with pytest.raises(TheoremCheckError, match=r"^h_1 of piece 0 is not the weight diagonal$"):
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=r"fails on piece 0$"):
        spmat_relation_counts(broken)


def test_verify_relations_reads_h_by_value(c3_node2):
    # N_h_1 of piece 0 with a stored zero on a row and an empty column: the
    # same matrix, so the diagonal check must pass it
    cm = c3_node2
    cb = modforge.chevalley(cm.rs)
    g_action = [list(mats) for mats in cm.g_action]
    h = g_action[0][cb.h_index(1)].copy()
    c = next(iter(h.data))
    zero = next(c for c, wt in enumerate(cm.pieces[0].basis_weights) if wt[0] == 0)
    h.data[c][c + 1 if c + 1 < h.rows else c - 1] = 0
    h.data[zero] = {}
    g_action[0][cb.h_index(1)] = h
    assert h != cm.g_action[0][cb.h_index(1)]
    report = modforge.verify_current_relations(cm._replace(g_action=tuple(map(tuple, g_action))))
    assert report == modforge.verify_current_relations(cm)


def test_verify_relations_checks_the_weights_of_the_generators(c3_node2):
    cb = modforge.chevalley(c3_node2.rs)
    e2 = cb.plus_index(cb.simple[1])
    broken = move_off_its_weight(c3_node2, "g", 1, e2)
    with pytest.raises(TheoremCheckError, match=r"^e_2 of piece 1 does not move weights by alpha_2$"):
        modforge.verify_current_relations(broken)


def test_verify_relations_checks_the_weight_of_the_maximal_vector(c3_node2):
    # the e_i . X check would catch this fault too, but the weight comes first
    theta = modforge.chevalley(c3_node2.rs).plus_index(c3_node2.rs.theta)
    broken = move_off_its_weight(c3_node2, "t", 0, theta)
    message = rf"^x_{theta} \(x\) t does not move weights by theta on piece 0$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError, match=r"fails on piece 0$"):
        spmat_relation_counts(broken)


def test_verify_relations_residue_budget(monkeypatch, c4_node2):
    # the presentations bound the product-kernel work: rank^2 + 2 (|Phi+| -
    # rank) residues per piece, rank + D - 1 per step, D - 1 per t^2 step; a
    # loop over the pairs with a generator would take 2 rank D per piece
    cm = c4_node2
    rs = cm.rs
    n, D, pos = rs.rank, modforge.chevalley(rs).dim_g, len(rs.positive_roots)
    real = modforge.residue
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(modforge, "residue", counted)
    modforge.verify_current_relations(cm)
    assert cm.k == 2
    piece, step, tsquare = n * n + 2 * (pos - n), n + D - 1, D - 1
    assert len(calls) <= (cm.k + 1) * piece + cm.k * step + (cm.k - 1) * tsquare


def test_verify_relations_catches_a_tsquare_error():
    # pieces V(0), g, g with x (x) t acting as v0 -> x and then as ad(x) / 3:
    # both steps are g-equivariant, so every bracket and mixed check holds,
    # but [x_a (x) t, x_b (x) t] v0 = 2 [x_a, x_b] / 3
    rs = rs_of("C2")
    cb = modforge.chevalley(rs)
    D = cb.dim_g
    triv = modforge.highest_module(rs, rs.zero())
    adj = modforge.adjoint_rep(rs)
    ad = tuple(cb.realize(adj))
    lift = tuple(SpMat(D, 1, {0: {b: 1}}) for b in range(D))
    third = tuple(m.scale(Fraction(1, 3)) for m in ad)
    theta = adj.highest_weight
    cm = modforge.CurrentModule(
        rs, 1, 2, (rs.zero(), theta, theta), (triv, adj, adj),
        (tuple(cb.realize(triv)), ad, ad), (lift, third),
    )
    message = r"\[x_\d+ \(x\) t, x_\d+ \(x\) t\] does not vanish on piece 0"
    with pytest.raises(TheoremCheckError, match=message) as got:
        modforge.verify_current_relations(cm)
    with pytest.raises(TheoremCheckError) as want:
        spmat_relation_counts(cm)
    assert str(got.value) == str(want.value)


def test_check_tsquare_catches_a_pair_off_the_generators(c3_node2):
    # x_theta is no generator: doubling x_theta (x) t on step 1 breaks only
    # the t^2 pairs with x_theta, one of which the generator a0 = 0 meets
    cm = c3_node2
    cb = modforge.chevalley(cm.rs)
    theta = cb.plus_index(cm.rs.theta)
    assert cb.generators[0] == 0 and theta not in cb.generators
    t_action = [list(mats) for mats in cm.t_action]
    t_action[1][theta] = t_action[1][theta].scale(2)
    message = rf"\[x_0 \(x\) t, x_{theta} \(x\) t\] does not vanish on piece 0"
    with pytest.raises(TheoremCheckError, match=message):
        modforge._check_tsquare(cm._replace(t_action=tuple(map(tuple, t_action))))


@st.composite
def rational_families(draw):
    """(n, products (k, L, R), linear terms (k, Z)) with int or rational
    entries: L is n x m and R is m x p, with m drawn per product, and Z is
    n x p, so a mixed pair N_a M_b - M_b N_a into a 1-dim piece (n = 1) is
    one of the shapes.  A third of the time the products form a square
    bracket [x, y]; half the time the linear term is minus the sum of the
    products, so the identity holds."""
    sizes = st.integers(1, 5)
    n, p = draw(sizes), draw(sizes)
    entry = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)))

    def matrix(nrows, ncols):
        out = SpMat(nrows, ncols)
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        for (r, c), v in draw(st.dictionaries(cells, entry, max_size=nrows + ncols)).items():
            out.set(r, c, v)
        return out

    if draw(st.integers(0, 2)) == 0:
        p = n
        x, y = matrix(n, n), matrix(n, n)
        products = [(1, x, y), (-1, y, x)]
    else:
        products = []
        for _ in range(draw(st.integers(1, 2))):
            m = draw(sizes)
            products.append((draw(entry), matrix(n, m), matrix(m, p)))
    if draw(st.booleans()):
        total = SpMat(n, p)
        for k, left, right in products:
            total = total + (left @ right).scale(k)
        return n, products, [(-1, total)]
    return n, products, [(draw(entry), matrix(n, p)) for _ in range(draw(st.integers(0, 2)))]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rational_families())
def test_integer_residue_agrees_with_spmat(case):
    n, products, linear = case
    want = SpMat(n, products[0][2].cols)
    for k, left, right in products:
        want = want + (left @ right).scale(k)
    for k, z in linear:
        want = want + z.scale(k)
    res = residue(
        n,
        [(k, left.data, rows(right.data)) for k, left, right in products],
        [(k, z.data) for k, z in linear],
    )
    # entry by entry, the residue is the SpMat result
    assert {key: v for key, v in res.items() if v} == {c * n + r: v for r, c, v in want.entries()}
    assert any(res.values()) == bool(want.data)
    # with int tables and scalars, no Fraction is built
    factors = [m for _, left, right in products for m in (left, right)] + [z for _, z in linear]
    values = [v for m in factors for _, _, v in m.entries()]
    values += [k for k, _, _ in products] + [k for k, _ in linear]
    if all(type(v) is int for v in values):
        assert all(type(v) is int for v in res.values())


def test_evaluation_module_relations():
    rs = rs_of("A2")
    cm = modforge.evaluation_module(rs, 1, 2)
    assert cm.t_action == ()
    assert cm.chain == ((2, 0),)
    report = modforge.verify_current_relations(cm)
    assert report.ok and report.total_dim == 6
    assert report.mixed_pairs == 0 and report.tsquare_pairs == 0


TENSOR_CASES = [
    ("C2", 1, 2, {0: {(2, 0): 1}, 1: {(0, 0): 1}}),
    ("C2", 1, 3, {0: {(3, 0): 1}, 1: {(1, 0): 1}}),
    ("C2", 1, 4, {0: {(4, 0): 1}, 1: {(2, 0): 1}, 2: {(0, 0): 1}}),
    ("A2", 1, 2, {0: {(2, 0): 1}}),
    ("A3", 2, 2, {0: {(0, 2, 0): 1}}),
    ("B3", 2, 2, {0: {(0, 2, 0): 1}, 1: {(0, 1, 0): 1}, 2: {(0, 0, 0): 1}}),
]


@pytest.mark.parametrize("name,node,m,want", TENSOR_CASES)
def test_kr_tensor_submodule(name, node, m, want):
    rs = rs_of(name)
    got = modforge.kr_tensor_submodule(rs, node, m)
    assert got == want
    assert got == krset.graded_character(rs, node, m).as_dict()


def test_kr_tensor_submodule_edges(monkeypatch):
    rs = rs_of("C2")
    assert modforge.kr_tensor_submodule(rs, 1, 0) == {0: {(0, 0): 1}}
    with pytest.raises(ValueError):
        modforge.kr_tensor_submodule(rs, 1, -1)
    # the span lies in S^2 of the 11-dim fundamental, C(12, 2) = 66 dims
    monkeypatch.setenv("KR_MAX_DIM", "60")
    with pytest.raises(DimensionGuardError, match="tensor space dim 66 exceeds 60"):
        modforge.kr_tensor_submodule(rs, 1, 4)


def test_kr_tensor_submodule_checks_the_character(monkeypatch):
    rs = rs_of("C2")
    real = krset.graded_character

    def wrong(rs_, i, m, *a, **k):
        gc = real(rs_, i, m, *a, **k)
        top = max(s for s, _ in gc.by_grade)
        extra = ((top + 1, (rs_.fundamental(1),)),)
        return krset.GradedCharacter(gc.by_grade + extra)

    monkeypatch.setattr(krset, "graded_character", wrong)
    with pytest.raises(TheoremCheckError):
        modforge.kr_tensor_submodule(rs, 1, 2)


def full_product(rs, i, m):
    """V_m1 (x) fund^(x)m0 with every factor its own slot, the product that
    modforge.kr_tensor_submodule replaces by V_m1 (x) S^m0(fund)."""
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    factors = [modforge.evaluation_module(rs, i, m1)] if m1 else []
    if m0:
        if rs.epsilon(rs.theta, i) == 2:
            fund = modforge.build_kr_fundamental(rs, i)
        else:
            fund = modforge.evaluation_module(rs, i, d)
        factors += [fund] * m0
    return modforge.tensor_rep(factors)


def all_operator_submodule(rs, i, m):
    """The span of the top vector under all 2 dim g operators x_a (x) t^p,
    every (grade, weight) block kept and decomposed as it stands: the oracle
    for the lowering span of modforge.kr_tensor_submodule, which assumes none
    of its premises."""
    gt = full_product(rs, i, m)
    blocks = {}

    def insert(vec):
        return blocks.setdefault(gt.grade_weight(min(vec)), Echelon()).add(vec) is not None

    top = {0: 1}
    insert(top)
    queue = [top]
    while queue:
        vec = queue.pop()
        for a in range(modforge.chevalley(rs).dim_g):
            for tpow in (0, 1):
                img = gt.apply((a, tpow), vec)
                if img and insert(img):
                    queue.append(img)
    mass = {}
    for (g, wt), ech in blocks.items():
        mass.setdefault(g, {})[wt] = ech.dim
    return {g: charlib.decompose_character(rs, chi) for g, chi in sorted(mass.items())}


ORACLE_CASES = [case[:3] for case in TENSOR_CASES] + [
    ("A4", 1, 4),
    ("D4", 1, 3),
    ("A5", 3, 2),
    ("C2", 2, 4),
]


@pytest.mark.parametrize("name,node,m", ORACLE_CASES)
def test_kr_tensor_submodule_matches_all_operator_oracle(name, node, m):
    rs = rs_of(name)
    assert modforge.kr_tensor_submodule(rs, node, m) == all_operator_submodule(rs, node, m)


@pytest.mark.parametrize("name,node,m", ORACLE_CASES + [("A2", 1, 8), ("C2", 2, 5), ("B3", 1, 4)])
def test_symmetric_power_span_matches_the_full_product(monkeypatch, name, node, m):
    # the same operators and weight filter on fund^(x)m0 give the same
    # (grade, weight) block dimensions as kr_tensor_submodule's S^m0(fund)
    rs = rs_of(name)
    real = modforge._lowering_span
    spans = []

    def recorded(space, start, ops, keep):
        spans.append((space, start, ops, keep, real(space, start, ops, keep)))
        return spans[-1][-1]

    monkeypatch.setattr(modforge, "_lowering_span", recorded)
    modforge.kr_tensor_submodule(rs, node, m)
    ((space, start, ops, keep, blocks),) = spans
    full = full_product(rs, node, m)
    assert space.dim <= full.dim and start == 0
    oracle = real(full, 0, ops, keep)
    assert {key: ech.dim for key, ech in blocks.items()} == {key: ech.dim for key, ech in oracle.items()}


@pytest.mark.frontier
@pytest.mark.parametrize("name,node,m", [("B3", 2, 5), ("B4", 2, 4), ("D4", 2, 4)])
def test_kr_tensor_submodule_frontier_at_the_default_guard(name, node, m):
    rs = rs_of(name)
    assert modforge.kr_tensor_submodule(rs, node, m) == krset.graded_character(rs, node, m).as_dict()


def plant(monkeypatch, edit, field="t_action"):
    """Make build_kr_fundamental return its module with the action `field`
    (t_action or g_action) edited."""
    real = modforge.build_kr_fundamental

    def broken(rs, i):
        cm = real(rs, i)
        action = [[m.copy() for m in mats] for mats in getattr(cm, field)]
        edit(rs, cm, action)
        return cm._replace(**{field: tuple(tuple(mats) for mats in action)})

    monkeypatch.setattr(modforge, "build_kr_fundamental", broken)


def test_kr_tensor_submodule_checks_the_top_vector(monkeypatch):
    def edit(rs, cm, t_action):
        cb = modforge.chevalley(rs)
        e1 = cb.plus_index(cb.simple[0])
        t_action[0][e1].set(0, cm.pieces[0].highest_index, 1)

    plant(monkeypatch, edit)
    # e_1 is x+_1: the positive roots of C2 run (0, 1), (1, 0), ...
    with pytest.raises(TheoremCheckError, match=r"x\+_1 \(x\) t does not kill the generator"):
        modforge.kr_tensor_submodule(rs_of("C2"), 1, 2)


@pytest.mark.parametrize(
    "field,j,row,message",
    [
        ("g_action", 2, 1, r"x-_alpha_2 does not kill the generator"),
        ("t_action", 1, 0, r"x-_alpha_1 \(x\) t does not kill the generator"),
    ],
)
def test_kr_tensor_submodule_checks_every_lowering_relation(monkeypatch, field, j, row, message):
    # x-_alpha_2 (x) 1 and x-_alpha_1 (x) t must kill the generator of the
    # C2 node 1 fundamental; neither is an e or h (x) t relation
    def edit(rs, cm, action):
        cb = modforge.chevalley(rs)
        action[0][cb.minus_index(cb.simple[j - 1])].set(row, cm.pieces[0].highest_index, 1)

    plant(monkeypatch, edit, field)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.kr_tensor_submodule(rs_of("C2"), 1, 2)


def test_kr_tensor_submodule_checks_tsquare(monkeypatch):
    rs = rs_of("C3")
    cm = modforge.build_kr_fundamental(rs, 2)
    assert cm.k == 2 and modforge._check_tsquare(cm) == 210

    def edit(rs_, cm_, t_action):
        t_action[1][0] = t_action[1][0].scale(2)

    plant(monkeypatch, edit)
    with pytest.raises(TheoremCheckError, match=r"\(x\) t\] does not vanish"):
        modforge.kr_tensor_submodule(rs, 2, 2)

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
from krlib.linalg import Echelon, SpMat, nullspace, residue, rows
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
            want = ech.coords(flat(cb.def_mats[a].bracket(cb.def_mats[b])))
            got = cb.struct(a, b)
            assert got == want
            assert sorted((z, type(v)) for z, v in got.items()) == sorted(
                (z, type(v)) for z, v in want.items()
            )


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
                    for k, v in ech.coords(img).items():
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
    for j, row in enumerate(rows):
        ech, members = blocks[rep.basis_weights[j]]
        for k, v in ech.coords(row).items():
            P.set(members[k], j, v)
    ech = Echelon()
    assert all(ech.add(P.col(j)) is not None for j in range(rep.dim))
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


def test_intertwiner_schur():
    rs = rs_of("C2")
    v1 = modforge.highest_module(rs, (1, 0))
    v2 = modforge.highest_module(rs, (0, 1))
    assert len(modforge.intertwiner(rs, modforge.tensor_rep([v1]), v1)) == 1
    assert len(modforge.intertwiner(rs, modforge.tensor_rep([v1]), v2)) == 0


def test_intertwiner_matches_hom_dim():
    rs = rs_of("C2")
    adj = modforge.adjoint_rep(rs)
    big = modforge.highest_module(rs, (2, 0))
    src = modforge.tensor_rep([adj, big])
    achar = charlib.adjoint_char(rs)
    for lam in [(2, 0), (0, 0), (0, 1), (2, 1)]:
        tgt = modforge.highest_module(rs, lam)
        sols = modforge.intertwiner(rs, src, tgt)
        assert len(sols) == charlib.hom_dim(rs, [achar, (2, 0)], lam)
        # every solution is genuinely equivariant, column by column
        for t in sols:
            for i in range(1, rs.rank + 1):
                for kind in ("e", "f"):
                    for c in range(src.dim):
                        assert t.apply(src.apply((kind, i), {c: 1})) == tgt.gen(kind, i).apply(t.col(c))


def nullspace_intertwiner(rs, source, target):
    """One nullspace over every weight-matched entry, constrained by
    commutation with every e_i and f_i on every column: the oracle for the
    weight-space solve of modforge.intertwiner."""
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


def normalized_actions(rs, i):
    cm = modforge.build_kr_fundamental(rs, i)
    return [[m.data for m in mats] for mats in cm.g_action + cm.t_action]


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2)])
def test_intertwiner_matches_nullspace_oracle(monkeypatch, name, node):
    rs = rs_of(name)
    got = normalized_actions(rs, node)
    monkeypatch.setattr(modforge, "intertwiner", nullspace_intertwiner)
    assert got == normalized_actions(rs, node)


def test_intertwiner_detects_corrupted_target():
    rs = rs_of("C3")
    src = modforge.tensor_rep([modforge.adjoint_rep(rs), modforge.highest_module(rs, (0, 2, 0))])
    tgt = modforge.highest_module(rs, (2, 0, 0))
    assert len(modforge.intertwiner(rs, src, tgt)) == 1
    bad = tgt.f[0].copy()
    c = min(bad.data)
    r = min(bad.data[c])
    bad.set(r, c, bad.get(r, c) + 1)
    damaged = tgt._replace(f=(bad,) + tgt.f[1:])
    with pytest.raises(TheoremCheckError):
        modforge.intertwiner(rs, src, damaged)


def test_intertwiner_rejects_reducible_target():
    rs = rs_of("C2")
    v1 = modforge.highest_module(rs, (1, 0))
    both = kron_tensor_rep(v1, v1)
    with pytest.raises(TheoremCheckError):
        modforge.intertwiner(rs, modforge.tensor_rep([both]), both)


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


def add_a_third(cm, family, s, a):
    """cm with 1/3 added to the first stored entry of x_a on piece s
    (family "g") or of x_a (x) t on step s (family "t")."""
    field = {"g": "g_action", "t": "t_action"}[family]
    groups = [list(mats) for mats in getattr(cm, field)]
    bad = groups[s][a].copy()
    c = next(iter(bad.data))
    r = next(iter(bad.data[c]))
    bad.set(r, c, bad.get(r, c) + Fraction(1, 3))
    groups[s][a] = bad
    return cm._replace(**{field: tuple(tuple(mats) for mats in groups)})


@pytest.fixture(scope="module")
def c3_node2():
    return modforge.build_kr_fundamental(rs_of("C3"), 2)


@pytest.fixture(scope="module")
def c4_node1():
    # pieces [36, 1]: g acts as zero on the last piece, so every mixed pair
    # of step 0 has an empty left factor
    return modforge.build_kr_fundamental(rs_of("C4"), 1)


@pytest.mark.parametrize(
    "module,family,s,message",
    [
        ("c3_node2", "g", 0, r"\[x_\d+, x_\d+\] fails on piece 0"),
        ("c3_node2", "g", 1, r"\[x_\d+, x_\d+\] fails on piece 1"),
        ("c3_node2", "t", 0, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 0"),
        ("c3_node2", "t", 1, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 1"),
        ("c4_node1", "g", 0, r"\[x_\d+, x_\d+\] fails on piece 0"),
        ("c4_node1", "t", 0, r"\[x_\d+ \(x\) 1, x_\d+ \(x\) t\] fails on piece 0"),
    ],
    ids=["g-piece0", "g-piece1", "t-step0", "t-step1", "trivial-last-g-piece0", "trivial-last-t-step0"],
)
def test_verify_relations_catches_a_planted_entry(request, module, family, s, message):
    cm = request.getfixturevalue(module)
    cb = modforge.chevalley(cm.rs)
    broken = add_a_third(cm, family, s, cb.minus_index(cb.simple[0]))
    with pytest.raises(TheoremCheckError, match=message) as got:
        modforge.verify_current_relations(broken)
    with pytest.raises(TheoremCheckError) as want:
        spmat_relation_counts(broken)
    assert str(got.value) == str(want.value)


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
    monkeypatch.setenv("KR_MAX_DIM", "100")
    with pytest.raises(DimensionGuardError):
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


def all_operator_submodule(rs, i, m):
    """The span of the top vector under all 2 dim g operators x_a (x) t^p,
    every (grade, weight) block kept and decomposed as it stands: the oracle
    for the lowering span of modforge.kr_tensor_submodule, which assumes none
    of its premises."""
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    factors = [modforge.evaluation_module(rs, i, m1)] if m1 else []
    if m0:
        if rs.epsilon(rs.theta, i) == 2:
            fund = modforge.build_kr_fundamental(rs, i)
        else:
            fund = modforge.evaluation_module(rs, i, d)
        factors += [fund] * m0
    gt = modforge.tensor_rep(factors)
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


def plant(monkeypatch, edit):
    """Make build_kr_fundamental return its module with t_action edited."""
    real = modforge.build_kr_fundamental

    def broken(rs, i):
        cm = real(rs, i)
        t_action = [[m.copy() for m in mats] for mats in cm.t_action]
        edit(rs, cm, t_action)
        return cm._replace(t_action=tuple(tuple(mats) for mats in t_action))

    monkeypatch.setattr(modforge, "build_kr_fundamental", broken)


def test_kr_tensor_submodule_checks_the_top_vector(monkeypatch):
    def edit(rs, cm, t_action):
        cb = modforge.chevalley(rs)
        e1 = cb.plus_index(cb.simple[0])
        t_action[0][e1].set(0, cm.pieces[0].highest_index, 1)

    plant(monkeypatch, edit)
    with pytest.raises(TheoremCheckError, match=r"e_1 \(x\) t does not kill the top vector"):
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

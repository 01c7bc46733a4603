import dataclasses
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from krlib import charlib, cli, krset, modforge
from krlib.errors import DimensionGuardError, ScopeError, TheoremCheckError
from krlib.linalg import Echelon, SpMat, nullspace
from krlib.rootsys import build, parse_type


def rs_of(name):
    return build(parse_type(name))


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
    modforge.verify_matrix_rep(rep)
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


ADJOINT_DIMS = {"A2": 8, "C2": 10, "B3": 21, "C3": 21, "D4": 28, "B4": 36}


@pytest.mark.parametrize("name", sorted(ADJOINT_DIMS))
def test_adjoint_rep_verifies(name):
    rs = rs_of(name)
    adj = modforge.adjoint_rep(rs)
    modforge.verify_matrix_rep(adj)
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
    modforge.verify_matrix_rep(rep)
    assert rep.dim == want == charlib.weyl_dim(rs, lam)
    assert rep.highest_weight == lam


def test_highest_module_trivial():
    rs = rs_of("B3")
    rep = modforge.highest_module(rs, (0, 0, 0))
    assert rep.dim == 1
    assert all(m.is_zero() for m in rep.e + rep.f + rep.h)


def test_highest_module_scope_errors():
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("B3"), (0, 0, 1))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("B3"), (1, 0, 3))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("D4"), (0, 0, 1, 0))
    with pytest.raises(ScopeError):
        modforge.highest_module(rs_of("D4"), (0, 0, 0, 2))


def test_highest_module_rejects_bad_weights():
    with pytest.raises(ValueError):
        modforge.highest_module(rs_of("C2"), (-1, 0))
    with pytest.raises(DimensionGuardError):
        modforge.highest_module(rs_of("C3"), (0, 2, 0), max_dim=50)


def test_verify_matrix_rep_detects_damage():
    rep = modforge.highest_module(rs_of("C2"), (1, 0))
    bad_e = rep.e[0].scale(2)
    damaged = dataclasses.replace(rep, e=(bad_e, rep.e[1]))
    with pytest.raises(TheoremCheckError):
        modforge.verify_matrix_rep(damaged)


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
    damaged = dataclasses.replace(tgt, f=(bad,) + tgt.f[1:])
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


def test_kr_c3_node2_stores_integral_entries_as_int():
    rs = rs_of("C3")
    cm = modforge.build_kr_fundamental(rs, 2)
    mats = [m for group in cm.g_action + cm.t_action for m in group]
    mats += [m for piece in cm.pieces for m in piece.e + piece.f]
    values = [v for m in mats for _, _, v in m.entries()]
    assert not [v for v in values if isinstance(v, Fraction) and v.denominator == 1]
    # non-integral entries remain, exact
    assert any(isinstance(v, Fraction) for v in values)
    report = modforge.verify_current_relations(cm)
    assert report.transport_steps == cm.k == 2


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
    broken = dataclasses.replace(cm, t_action=doubled)
    with pytest.raises(TheoremCheckError):
        modforge.verify_current_relations(broken)


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


def test_kr_tensor_submodule_edges():
    rs = rs_of("C2")
    assert modforge.kr_tensor_submodule(rs, 1, 0) == {0: {(0, 0): 1}}
    with pytest.raises(ValueError):
        modforge.kr_tensor_submodule(rs, 1, -1)
    with pytest.raises(DimensionGuardError):
        modforge.kr_tensor_submodule(rs, 1, 4, max_dim=100)


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

    def broken(rs, i, max_dim=None):
        cm = real(rs, i, max_dim)
        t_action = [[m.copy() for m in mats] for mats in cm.t_action]
        edit(rs, cm, t_action)
        return dataclasses.replace(cm, t_action=tuple(tuple(mats) for mats in t_action))

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

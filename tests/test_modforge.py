import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krlib import charlib, cli, krset, modforge
from krlib.errors import DimensionGuardError, ScopeError, TheoremCheckError
from krlib.linalg import Echelon, SpMat, flatten, nullspace, residue
from krlib.rootsys import build, parse_type


def rs_of(name):
    return build(parse_type(name))


def realized(cm):
    """The g-action of every piece of cm on the whole Chevalley basis,
    x_a at index a: the root matrices rho(x_alpha) replayed from the
    pieces' generators by ChevalleyBasis.realize."""
    cb = modforge.chevalley(cm.rs)
    return tuple(tuple(cb.realize(p)) for p in cm.pieces)


def t_action(cm):
    """Every map x_b (x) t of every step, x_b at index b: each maximal
    vector replayed along the whole f-tree by modforge._t_maps."""
    D = modforge.chevalley(cm.rs).dim_g
    return tuple(tuple(modforge._t_maps(cm, s, range(D)).values()) for s in range(cm.k))


def with_generator(cm, s, kind, i, mat):
    """cm with generator kind_i ("e" or "f") of piece s replaced by mat."""
    piece = cm.pieces[s]
    mats = list(getattr(piece, kind))
    mats[i - 1] = mat
    pieces = list(cm.pieces)
    pieces[s] = piece._replace(**{kind: tuple(mats)})
    return cm._replace(pieces=tuple(pieces))


def verify_matrix_rep(rs, rep):
    """Bracket identities, highest-vector relations at basis vector 0 and
    the full character against the weight multiplicities: the check of
    every MatrixRep built here."""
    n = rs.rank
    # h_i is the weight diagonal; [e_i, f_i] is bracketed here, as a SpMat
    h = [SpMat.from_diag([wt[i] for wt in rep.basis_weights]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if h[i].bracket(rep.e[j]) != rep.e[j].scale(rs.cartan[j][i]):
                raise TheoremCheckError(f"[h_{i+1}, e_{j+1}] failed")
            if h[i].bracket(rep.f[j]) != rep.f[j].scale(-rs.cartan[j][i]):
                raise TheoremCheckError(f"[h_{i+1}, f_{j+1}] failed")
            br = rep.e[i].bracket(rep.f[j])
            if (br if i != j else br - h[i]) != SpMat(rep.dim, rep.dim):
                raise TheoremCheckError(f"[e_{i+1}, f_{j+1}] failed")
    for i in range(1, n + 1):
        if rep.gen("e", i).apply({0: 1}):
            raise TheoremCheckError("highest vector is not killed by e")
    mass = {}
    for w in rep.basis_weights:
        mass[w] = mass.get(w, 0) + 1
    if mass != charlib.weight_mults(rs, rep.basis_weights[0]):
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
    rs = rs_of(name)
    rep = modforge.defining_rep(rs)
    verify_matrix_rep(rs, rep)
    assert rep.dim == DEFINING_DIMS[name]
    assert rep.basis_weights[0] == rs.fundamental(1)


def test_defining_rep_checks_that_basis_vector_0_has_weight_omega_1(monkeypatch):
    # the defining representation with its basis reversed: the generators
    # still pass their check, but basis vector 0 has weight -omega_1
    real = modforge._from_generators

    def reversed_basis(rs, ee, ff, what):
        p = {k: ee[0].rows - 1 - k for k in range(ee[0].rows)}
        return real(rs, [relabeled(e, p) for e in ee], [relabeled(f, p) for f in ff], what)

    monkeypatch.setattr(modforge, "_from_generators", reversed_basis)
    modforge._defining.cache_clear()
    try:
        with pytest.raises(TheoremCheckError, match="^defining rep does not have highest weight omega_1$"):
            modforge.defining_rep(rs_of("C3"))
    finally:
        modforge._defining.cache_clear()


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4"])
def test_defining_rep_checks_its_generators(monkeypatch, name):
    # one entry of the last e, the node that differs by type, off by one;
    # the highest weight stays omega_1, so only the generator check meets it
    real = modforge._from_generators

    def damaged(rs, ee, ff, what):
        return real(rs, list(ee[:-1]) + [bump_first_entry(ee[-1])], ff, what)

    monkeypatch.setattr(modforge, "_from_generators", damaged)
    modforge._defining.cache_clear()
    try:
        with pytest.raises(TheoremCheckError, match=r" of the defining representation "):
            modforge.defining_rep(rs_of(name))
    finally:
        modforge._defining.cache_clear()


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
    for m in rep.e + rep.f:
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
    # e_1 + f_2 has no weight: its bracket with e_2 is c x_theta - h_2
    cb.def_mats[e1] = cb.def_mats[e1] + cb.def_mats[cb.minus_index(cb.simple[1])]
    with pytest.raises(TheoremCheckError, match="bracket left the span of the g-basis"):
        cb.struct(e1, e2)


@pytest.mark.parametrize(
    "plant,message",
    [
        ("root", r"^the root vector of \(-2, -2, -1\) is zero in the defining rep$"),
        ("h", r"^h_2 is dependent in the defining rep$"),
    ],
)
def test_chevalley_basis_checks_its_basis(monkeypatch, plant, message):
    # realize comes back with x_-theta zero, or with h_2 = h_1: the two
    # checks from which, with distinct root weights, independence follows
    rs = rs_of("C3")
    real = modforge.ChevalleyBasis.realize

    def planted(cb, rep):
        mats = real(cb, rep)
        if plant == "root":
            k = cb.minus_index(rs.theta)
            mats[k] = SpMat(mats[k].rows, mats[k].cols)
        else:
            mats[cb.h_index(2)] = mats[cb.h_index(1)]
        return mats

    monkeypatch.setattr(modforge.ChevalleyBasis, "realize", planted)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.ChevalleyBasis(rs)


def relabeled(m, p):
    """The square SpMat m with basis vector k renamed p.get(k, k), p a
    permutation of the basis."""
    return SpMat(m.rows, m.cols, {p.get(c, c): {p.get(r, r): v for r, v in col.items()} for c, col in m.data.items()})


def relabel_basis(rep, p):
    """rep with basis vector k renamed p.get(k, k): the same module, with
    another vector at index 0."""
    weights = list(rep.basis_weights)
    for k, wt in enumerate(rep.basis_weights):
        weights[p.get(k, k)] = wt
    return modforge.MatrixRep(*(tuple(relabeled(m, p) for m in mats) for mats in (rep.e, rep.f)), tuple(weights))


def adjoint_rep(rs):
    """g acting on itself as a MatrixRep: the ad e_i and ad f_i columns
    of ChevalleyBasis.slot, through modforge._from_generators, whose check
    of Serre's premises is the oracle for the adjoint lemma (ad is a
    representation by the Jacobi identity).  x_theta and x_0 trade places,
    so that x_theta is basis vector 0, the top."""
    cb = modforge.chevalley(rs)
    grades, weights, cols = cb.slot()
    D, theta = len(grades), cb.plus_index(rs.theta)
    swap = {0: theta, theta: 0}
    ee, ff = (
        [relabeled(SpMat(D, D, cols((kind, i))), swap) for i in range(1, rs.rank + 1)]
        for kind in ("e", "f")
    )
    rep = modforge._from_generators(rs, ee, ff, "the adjoint")
    assert relabel_basis(rep, swap).basis_weights == weights
    return rep


ADJOINT_DIMS = {
    f"{fam}{n}": dim(n)
    for fam, ranks, dim in (
        ("A", range(2, 7), lambda n: n * (n + 2)),
        ("B", range(2, 7), lambda n: n * (2 * n + 1)),
        ("C", range(2, 7), lambda n: n * (2 * n + 1)),
        ("D", range(4, 7), lambda n: n * (2 * n - 1)),
    )
    for n in ranks
}


@pytest.mark.parametrize("name", sorted(ADJOINT_DIMS))
def test_adjoint_rep_verifies(name):
    rs = rs_of(name)
    adj = adjoint_rep(rs)
    verify_matrix_rep(rs, adj)
    assert adj.dim == ADJOINT_DIMS[name]
    assert adj.basis_weights[0] == rs.root_weight(rs.theta)


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
    verify_matrix_rep(rs, rep)
    assert rep.dim == want == charlib.weyl_dim(rs, lam)
    assert rep.basis_weights[0] == lam


LEMMA_CHAINS = cli._MODFORGE_DEFAULT + [("C4", 2), ("C4", 3)]
LEMMA_WEIGHTS = [("B3", (1, 0, 2)), ("C3", (1, 1, 1)), ("D4", (1, 1, 0, 0))]


@pytest.mark.parametrize(
    "name,lams",
    [(name, krset.enumerate_chain(rs_of(name), node).weights) for name, node in LEMMA_CHAINS]
    + [(name, (lam,)) for name, lam in LEMMA_WEIGHTS],
    ids=[f"{name}-node{node}" for name, node in LEMMA_CHAINS] + [f"{name}-{lam}" for name, lam in LEMMA_WEIGHTS],
)
def test_highest_modules_pass_the_generator_check(name, lams):
    # the conclusion of highest_module's lemma, which build_kr_fundamental
    # relies on instead of checking its pieces
    rs = rs_of(name)
    for lam in lams:
        modforge._check_generators(rs, modforge.highest_module(rs, lam).slot(), f"V{lam}")


def test_highest_module_trivial():
    rs = rs_of("B3")
    rep = modforge.highest_module(rs, (0, 0, 0))
    assert rep.dim == 1
    assert not any(m.data for m in rep.e + rep.f)


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


def test_highest_module_checks_the_top_weight_of_the_ambient(monkeypatch):
    real = modforge._ambient
    monkeypatch.setattr(modforge, "_ambient", lambda rs, lam: real(rs, (1, 0)))
    with pytest.raises(TheoremCheckError, match=r"top ambient vector has weight \(1, 0\), expected \(0, 1\)"):
        modforge.highest_module(rs_of("C2"), (0, 1))


def test_highest_module_reads_the_ambient_guard_before_any_work(monkeypatch):
    # C2 omega_2 has dim 5, its ambient wedge^2 of the 4-dim defining rep 6:
    # the guard trips before any matrix or operator table is built
    rs = rs_of("C2")
    modforge.defining_rep(rs)
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for owner, name in [(modforge, "_from_generators"), (modforge, "_derivation"), (modforge._Tensor, "_tables")]:
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    monkeypatch.setenv("KR_MAX_DIM", "5")
    with pytest.raises(DimensionGuardError, match="ambient dim 6 exceeds 5"):
        modforge.highest_module(rs, (0, 1))
    assert calls == []


# sha256 over the sorted entries of every realized root matrix and every
# x_b (x) t map of the `kr verify modforge` modules and C4 node 2, then of e
# and f of three highest modules (the B3 spin node enters through the third
# wedge), recorded before the wedge powers became slots of the tensor engine
# and before the modules stopped storing their root matrices and t-maps
MATRIX_DIGEST = "0139fc1a290563fd9b10a95cb755c21b474325f8abad4f5abd69da699b471d9d"


def test_module_matrices_match_recorded_digest():
    records = []
    for name, node in cli._MODFORGE_DEFAULT + [("C4", 2)]:
        cm = modforge.build_kr_fundamental(rs_of(name), node)
        for mats in realized(cm) + t_action(cm):
            records.append([sorted(m.entries()) for m in mats])
    for name, lam in [("B3", (1, 0, 2)), ("C3", (1, 1, 1)), ("D4", (1, 1, 0, 0))]:
        rep = modforge.highest_module(rs_of(name), lam)
        records.append([sorted(m.entries()) for m in rep.e + rep.f])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == MATRIX_DIGEST


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
    amb = modforge._ambient(rs, lam)
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
        ("drop", r"^V\(\(0, 2, 0\)\) has dim 89, Weyl dimension is 90$"),
    ],
)
def test_highest_module_checks_the_character(monkeypatch, edit, message):
    # a raised multiplicity meets its lattice's rank; a dropped weight, the
    # lowest one, gets no images, so only the total meets it
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


def test_highest_module_checks_each_image_against_the_lattice(monkeypatch):
    # the second lattice, of weight lam - alpha_2 and rank 1, comes back
    # with its row doubled: the rank still meets the multiplicity, and
    # f_2 of the top vector lies off it
    rs = rs_of("C3")
    real = modforge.lattice_basis
    calls = []

    def doubled(vectors):
        out = real(vectors)
        calls.append(len(out))
        if len(calls) == 2:
            out = {p: {k: 2 * v for k, v in row.items()} for p, row in out.items()}
        return out

    monkeypatch.setattr(modforge, "lattice_basis", doubled)
    message = r"^f_2 maps basis vector 0 of V\(\(0, 2, 0\)\) off the lattice of weight \(1, 0, 1\)$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.highest_module(rs, (0, 2, 0))
    assert calls == [1, 1]


def test_highest_module_checks_that_the_top_vector_is_highest(monkeypatch):
    # a defining representation whose e_1 sends its highest vector to the
    # next basis vector: the top of the ambient V still has weight omega_1
    rs = rs_of("C2")
    rep = modforge.defining_rep(rs)
    e1 = rep.e[0].copy()
    e1.set(1, 0, 1)
    monkeypatch.setattr(modforge, "defining_rep", lambda rs_: rep._replace(e=(e1, *rep.e[1:])))
    with pytest.raises(TheoremCheckError, match="^top vector is not highest in the ambient space$"):
        modforge.highest_module(rs, (1, 0))


@pytest.mark.parametrize(
    "name,lam", [("C3", (0, 2, 0)), ("B3", (1, 1, 0)), ("A3", (1, 0, 1)), ("C6", (0, 1, 0, 0, 0, 0))]
)
def test_highest_module_applies_only_between_weights_of_the_character(monkeypatch, name, lam):
    # past the e_i checks on the top vector, every ambient image lands on a
    # weight of V(lam): the others are 0 by the unbroken alpha_i-strings
    rs = rs_of(name)
    real = modforge._Tensor.apply
    targets = []

    def recording(self, op, vec):
        kind, i = op
        wt = self.grade_weight(next(iter(vec)))[1]
        targets.append((kind, vec, tuple(map(add if kind == "e" else sub, wt, rs.cartan[i - 1]))))
        return real(self, op, vec)

    monkeypatch.setattr(modforge._Tensor, "apply", recording)
    rep = modforge.highest_module(rs, lam)
    n = rs.rank
    assert [(kind, vec) for kind, vec, _ in targets[:n]] == [("e", {0: 1})] * n
    mults = charlib.weight_mults(rs, lam)
    assert all(wt in mults for _, _, wt in targets[n:])
    assert sorted(rep.basis_weights) == sorted(w for w, m in mults.items() for _ in range(m))


def test_highest_module_checks_the_weyl_dimension(monkeypatch):
    # the Weyl dimension comes back one too large: every lattice rank still
    # meets its multiplicity, and only the total meets it
    rs = rs_of("C2")
    real = charlib.weyl_dim
    monkeypatch.setattr(charlib, "weyl_dim", lambda rs_, lam: real(rs_, lam) + 1)
    with pytest.raises(TheoremCheckError, match=r"^V\(\(1, 0\)\) has dim 4, Weyl dimension is 5$"):
        modforge.highest_module(rs, (1, 0))


def test_verify_matrix_rep_detects_damage():
    rs = rs_of("C2")
    rep = modforge.highest_module(rs, (1, 0))
    bad_e = rep.e[0].scale(2)
    damaged = rep._replace(e=(bad_e, rep.e[1]))
    with pytest.raises(TheoremCheckError):
        verify_matrix_rep(rs, damaged)


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
    """The materialized tensor product a (x) b: the oracle for tensor_rep,
    whose top a_0 (x) b_0 is basis vector 0."""
    weights = tuple(
        tuple(map(add, wa, wb)) for wa in a.basis_weights for wb in b.basis_weights
    )
    return modforge.MatrixRep(
        tuple(map(kron_sum, a.e, b.e)),
        tuple(map(kron_sum, a.f, b.f)),
        weights,
    )


def wedge_oracle(rep, j):
    """wedge^j of rep with e_i and f_i written out, over the j-subsets of
    its basis in lexicographic order: the oracle for the wedge slots of
    tensor_rep.  Returns the basis weights and (kind, i) -> SpMat."""
    basis = list(itertools.combinations(range(rep.dim), j))
    pos = {s: a for a, s in enumerate(basis)}

    def act(gmat):
        out = SpMat(len(basis), len(basis))
        for a, subset in enumerate(basis):
            inside = set(subset)
            for src in subset:
                for r, v in gmat.col(src).items():
                    if r in inside and r != src:
                        continue
                    # sorting r into the place of src passes the members between them
                    passed = sum(min(r, src) < x < max(r, src) for x in subset)
                    out.add_to(pos[tuple(sorted(inside - {src} | {r}))], a, (-1) ** passed * v)
        return out

    weights = [tuple(map(sum, zip(*(rep.basis_weights[d] for d in s)))) for s in basis]
    mats = {(kind, i): act(rep.gen(kind, i)) for kind in ("e", "f") for i in range(1, len(rep.e) + 1)}
    return weights, mats


WEDGE_ALGEBRAS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5"]


@pytest.mark.parametrize("name", WEDGE_ALGEBRAS)
def test_wedge_slots_match_the_written_out_wedge(name):
    drep = modforge.defining_rep(rs_of(name))
    for j in range(1, drep.dim + 1):
        op = modforge.tensor_rep([drep], [j], exterior=True)
        weights, mats = wedge_oracle(drep, j)
        assert op.dim == math.comb(drep.dim, j) == len(weights)
        for c in range(op.dim):
            assert op.grade_weight(c) == (0, weights[c])
        for (kind, i), m in mats.items():
            for c in range(op.dim):
                assert op.apply((kind, i), {c: 1}) == m.col(c)


TENSOR_FACTORS = [
    ("C2", [None, (2, 0)]),
    ("B2", [(1, 0), (0, 2), (1, 0)]),
]


@pytest.mark.parametrize("name,lams", TENSOR_FACTORS)
def test_tensor_rep_matches_kronecker_oracle(name, lams):
    rs = rs_of(name)
    factors = [
        adjoint_rep(rs) if lam is None else modforge.highest_module(rs, lam)
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
    for s, mats in enumerate((realized(cm), t_action(cm))[tpow]):
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
    cb = modforge.chevalley(rs)
    moved = 0
    gens = [
        (kind, i, idx(rc))
        for kind, idx in (("e", cb.plus_index), ("f", cb.minus_index))
        for i, rc in enumerate(cb.simple, start=1)
    ]
    for kind, i, a in gens:
        for tpow in (0, 1):
            m = flat_action(cm, a, tpow)
            oracle = kron_sum(m, m)
            for c in range(op.dim):
                got = op.apply((kind, i, tpow), {c: 1})
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
    lam = target.basis_weights[0]
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
    if rows_by_wt.get(lam) != [0]:
        raise TheoremCheckError(f"weight {lam} of the target is not a highest line")

    eqs = [
        source.apply(("f", i), {c: 1})
        for i, alpha in enumerate(rs.cartan, start=1)
        for c in cols_by_wt.get(tuple(map(add, lam, alpha)), ())
    ]
    maps = [
        SpMat(dim, source.dim, {c: {0: v} for c, v in sol.items()})
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
    out = []
    for s in range(cm.k):
        src, tgt = cm.pieces[s], cm.pieces[s + 1]
        (T,) = solve(rs, modforge.tensor_rep([cb, src]), tgt)
        beta = tuple(map(sub, cm.chain[s], cm.chain[s + 1]))
        col = T.col(cb.minus_index(rs.int_root_coords(beta)) * src.dim)
        assert set(col) == {0}
        scale = col[0]
        maps = [{} for _ in range(cb.dim_g)]
        for c, column in T.data.items():
            assert all(v % scale == 0 for v in column.values())
            maps[c // src.dim][c % src.dim] = {r: v // scale for r, v in column.items()}
        out.append(maps)
    return out


def t_tables(cm):
    return [[m.data for m in mats] for mats in t_action(cm)]


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
    big = modforge.highest_module(rs, (2, 0))
    src = modforge.tensor_rep([modforge.chevalley(rs), big])
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
    cb = modforge.chevalley(rs)
    for s, mats in enumerate(t_action(cm)):
        src, tgt = cm.pieces[s], cm.pieces[s + 1]
        T = SpMat(tgt.dim, len(mats) * src.dim)
        for b, m in enumerate(mats):
            T.data.update((b * src.dim + c, col) for c, col in m.data.items())
        f_check_oracle(rs, modforge.tensor_rep([cb, src]), tgt, [T])


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


def test_intertwiner_detects_corrupted_source_factor(monkeypatch):
    # the g of g (x) V_s, ChevalleyBasis.slot, with the sign of one entry of
    # ad f_1 flipped: no check reads the adjoint's columns (its lemma), but
    # the top nullspace then has no solution where the character count is 1
    rs = rs_of("C3")
    real = modforge.ChevalleyBasis._ad_cols

    def flipped(cb, op):
        cols = dict(real(cb, op))
        if op == ("f", 1):
            b = min(cols)
            z = next(iter(cols[b]))
            cols[b] = {**cols[b], z: -cols[b][z]}
        return cols

    monkeypatch.setattr(modforge.ChevalleyBasis, "_ad_cols", flipped)
    message = r"^Hom\(g \(x\) V\(0, 2, 0\), V\(2, 0, 0\)\) has dimension 0, the character count is 1$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.build_kr_fundamental(rs, 2)


HOM_C3_STEP0 = r"Hom\(g \(x\) V\(0, 2, 0\), V\(2, 0, 0\)\)"


@pytest.mark.parametrize(
    "edit,message",
    [
        ("plus-one", r"no int vector of weight .* matches X e_i of column \d+"),
        ("zero", rf"the maximal vector of {HOM_C3_STEP0} is zero"),
        ("transport-zero", rf"{HOM_C3_STEP0} does not transport the highest vector"),
        ("transport-sign", r"^transport fails at step 0$"),
    ],
    ids=["plus-one", "zero", "transport-zero", "transport-sign"],
)
def test_build_kr_checks_the_top_of_the_maximal_vector(monkeypatch, edit, message):
    # step 0 of C3 node 2: x_theta meets six source columns at the top, so a
    # +1 on one of X's top values leaves the line of the true top; the top
    # also holds x_-beta (x) v_top, whose value is the transport scale, and
    # with its sign flipped X comes out negated: still a maximal vector, so
    # the build returns it, and verify's transport check meets the replay
    # sending v_top to minus the top
    rs = rs_of("C3")
    cb = modforge.chevalley(rs)
    theta = cb.plus_index(rs.theta)
    source = modforge.highest_module(rs, (0, 2, 0))
    sdim = source.dim
    transport = cb.minus_index(rs.int_root_coords((-2, 2, 0))) * sdim
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
        modforge.verify_current_relations(modforge.build_kr_fundamental(rs, 2))
    # the build stops at step 0, except on the sign flip, which it completes
    assert calls == ([1, 1] if edit == "transport-sign" else [1])


def test_intertwiner_names_a_transport_scale_that_does_not_divide():
    # C2, V(2 omega_1) -> V(omega_2) is no KR step: its one g-map is
    # integral (lowers_by_alpha_1), but its value on x_-alpha_1 (x) top does
    # not divide it, so the map normalized by it has a half at weight 0
    rs = rs_of("C2")
    source, target = (modforge.highest_module(rs, mu) for mu in ((2, 0), (0, 1)))
    message = (
        r"^the maximal vector of Hom\(g \(x\) V\(2, 0\), V\(0, 1\)\) over its transport"
        r" scale is not integral at weight \(0, 0\), column 9$"
    )
    with pytest.raises(TheoremCheckError, match=message):
        modforge.intertwiner(rs, source, target)


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


def test_t_maps_checks_each_division(monkeypatch, c3_node2):
    # a wrong struct coefficient on one edge of the replay tree: the build
    # never replays, and the replay divides by 3 c where c is exact
    cm = c3_node2
    cb = modforge.chevalley(cm.rs)
    edges = list(cb.f_tree)
    leaf = edges[0][0]
    want = t_action(cm)[0][leaf]
    z, i, b, c = edges[1]
    edges[1] = (z, i, b, 3 * c)
    monkeypatch.setattr(cb, "f_tree", tuple(edges))
    message = rf"^f_{i} \. M_{b} on step 0 is not an integer vector divisible by {3 * c}$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge._t_maps(cm, 0, [z])
    # the path to the first edge's map does not pass the wrong edge
    assert modforge._t_maps(cm, 0, [leaf])[leaf] == want


def test_t_maps_at_some_columns_match_the_full_replay(c3_node2):
    # a replay at some source columns reads each parent at those columns and
    # at the rows of f_i on them: a map that is also a parent, or X, keeps
    # more columns, and every column it has is the full map's column
    cm = c3_node2
    D = modforge.chevalley(cm.rs).dim_g
    rng = random.Random(7)
    for s, full in enumerate(t_action(cm)):
        cols = set(rng.sample(range(cm.pieces[s].dim), 5)) | {0}
        part = modforge._t_maps(cm, s, range(D), cols)
        for b in range(D):
            assert all(part[b].col(c) == full[b].col(c) for c in cols | part[b].data.keys())


def test_intertwiner_checks_the_target_top_is_a_highest_line():
    # basis vector 0 traded for one below the top: in V(omega_1) of C2 the
    # weight (-1, 1) of basis vector 1 is a line, but (1, 0) lies above it;
    # in V(2 omega_1) the weight (0, 0) is a plane
    rs = rs_of("C2")
    v1, v2 = (modforge.highest_module(rs, lam) for lam in [(1, 0), (2, 0)])
    with pytest.raises(TheoremCheckError, match=r"^weight \(-1, 1\) of the target is not a highest line$"):
        modforge.intertwiner(rs, v1, relabel_basis(v1, {0: 1, 1: 0}))
    k = v2.basis_weights.index((0, 0))
    bad = relabel_basis(v2, {0: k, k: 0})
    with pytest.raises(TheoremCheckError, match=r"^weight \(0, 0\) of the target is not a highest line$"):
        modforge.intertwiner(rs, v1, bad)


def test_intertwiner_checks_the_hom_space_is_a_line():
    # Hom_g(g (x) V(omega_1), V(omega_2)) of C2 is 0 by the character count
    # and by the nullspace: omega_2 - 3 omega_1 is off the root lattice
    rs = rs_of("C2")
    v1, v2 = (modforge.highest_module(rs, lam) for lam in [(1, 0), (0, 1)])
    assert charlib.hom_dim(rs, [rs.root_weight(rs.theta), (1, 0)], (0, 1)) == 0
    with pytest.raises(TheoremCheckError, match=r"^Hom\(g \(x\) V\(1, 0\), V\(0, 1\)\) has dimension 0$"):
        modforge.intertwiner(rs, v1, v2)


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
    src = modforge.tensor_rep([modforge.chevalley(rs), modforge.highest_module(rs, mu)])
    tgt = modforge.highest_module(rs, lam)
    maps = tensor_intertwiner(rs, src, tgt)
    assert len(maps) == charlib.hom_dim(rs, [rs.root_weight(rs.theta), mu], lam)
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
    assert report.total_dim == report.cyclic_dim == 11
    assert report.bracket_pairs == 90
    assert report.mixed_pairs == 100
    assert report.transport_steps == 1


def test_kr_c2_grading_action_on_generator():
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    cb = modforge.chevalley(rs)
    v0 = {0: 1}
    t = t_action(cm)[0]
    # x-_theta (x) t transports to the next piece, x-_alpha_1 (x) t kills
    assert t[cb.minus_index(rs.theta)].apply(v0) == {0: 1}
    assert t[cb.minus_index((1, 0))].apply(v0) == {}
    for j in range(1, rs.rank + 1):
        assert t[cb.h_index(j)].apply(v0) == {}


def test_verify_relations_checks_the_weight_of_the_generator(c3_node2):
    # the level raised by one: h_2 v = m v fails at the generator's weight
    # (0, 1, 0), the one KR relation that reads the level; every other
    # check passes
    broken = c3_node2._replace(level=c3_node2.level + 1)
    with pytest.raises(TheoremCheckError, match=r"^h_2 eigenvalue on the generator is wrong$"):
        modforge.verify_current_relations(broken)


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT)
def test_every_positive_root_vector_kills_the_generator(name, node):
    # _check_kr_relations checks x+_a (x) 1 on the e_i alone and counts the
    # other positive roots by the lemma that the e_i generate n+; the
    # realized root matrices confirm it, and the count is one row per root
    cm = modforge.build_kr_fundamental(rs_of(name), node)
    rs, top = cm.rs, {0: 1}
    g = realized(cm)[0]
    assert all(g[a].apply(top) == {} for a in range(len(rs.positive_roots)))
    assert modforge._check_kr_relations(cm) == 2 * len(rs.positive_roots) + 3 * rs.rank + 1
    # the rows in t are counted by weight, as beta_0 is not alpha_i; every
    # x_b (x) t with b positive, in h or -alpha_i, replayed, kills v
    cb = modforge.chevalley(rs)
    t = t_action(cm)[0]
    kills = [*range(len(rs.positive_roots)), *range(cb.h_index(1), cb.dim_g), cb.minus_index(cb.simple[node - 1])]
    assert all(t[b].apply(top) == {} for b in kills)


def test_kr_c3_node2_module():
    rs = rs_of("C3")
    cm = modforge.build_kr_fundamental(rs, 2)
    assert cm.chain == ((0, 2, 0), (2, 0, 0), (0, 0, 0))
    assert [p.dim for p in cm.pieces] == [90, 21, 1]
    report = modforge.verify_current_relations(cm)
    assert report.cyclic_dim == report.total_dim == 112
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
    mats = [m for group in realized(cm) + t_action(cm) for m in group]
    assert all(type(v) is int for m in mats for _, _, v in m.entries())
    assert modforge.verify_current_relations(cm).transport_steps == cm.k == 2


def test_kr_b4_node3_module():
    rs = rs_of("B4")
    cm = modforge.build_kr_fundamental(rs, 3)
    assert cm.chain == ((0, 0, 1, 0), (1, 0, 0, 0))
    assert [p.dim for p in cm.pieces] == [84, 9]
    report = modforge.verify_current_relations(cm)
    assert report.cyclic_dim == report.total_dim == 93


def test_verify_relations_c4_node3_frontier():
    # recorded when every pair was checked directly
    cm = modforge.build_kr_fundamental(rs_of("C4"), 3)
    report = modforge.verify_current_relations(cm)
    assert tuple(report) == ("C4 node 3 level 2", 1170, 2520, 3888, 1260, 45, 1170, 3)


def test_verify_relations_detects_broken_transport():
    # 2 X is still a maximal vector, so only the transport meets it
    rs = rs_of("C2")
    cm = modforge.build_kr_fundamental(rs, 1)
    broken = cm._replace(maximal=tuple(X.scale(2) for X in cm.maximal))
    with pytest.raises(TheoremCheckError, match=r"^transport fails at step 0$"):
        modforge.verify_current_relations(broken)


def spmat_relation_counts(cm):
    """The bracket, mixed and t^2 checks of verify_current_relations as
    pairwise SpMat products, with the same messages in the same order: the
    oracle for the integer relation kernel.  Returns the three pair counts."""
    cb = modforge.chevalley(cm.rs)
    D, k = cb.dim_g, cm.k
    g_action, t_maps = realized(cm), t_action(cm)

    def zmat(coeffs, s, tpow):
        mats = (g_action, t_maps)[tpow][s]
        out = SpMat(cm.pieces[s + tpow].dim, cm.pieces[s].dim)
        for z, v in coeffs.items():
            out = out + mats[z].scale(v)
        return out

    brackets = 0
    for s in range(k + 1):
        g = g_action[s]
        for a in range(D):
            for b in range(a + 1, D):
                if g[a].bracket(g[b]) != zmat(cb.struct(a, b), s, 0):
                    raise TheoremCheckError(f"[x_{a}, x_{b}] fails on piece {s}")
                brackets += 1
    mixed = 0
    for s in range(k):
        for a in range(D):
            for b in range(D):
                t = t_maps[s][b]
                lhs = g_action[s + 1][a] @ t - t @ g_action[s][a]
                if lhs != zmat(cb.struct(a, b), s, 1):
                    raise TheoremCheckError(f"[x_{a} (x) 1, x_{b} (x) t] fails on piece {s}")
                mixed += 1
    tsquare = 0
    for s in range(k - 1):
        lo, hi = t_maps[s], t_maps[s + 1]
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
    assert report.cyclic_dim == report.total_dim
    counts = (report.bracket_pairs, report.mixed_pairs, report.tsquare_pairs)
    assert counts == spmat_relation_counts(cm)


def edit_first_entry(cm, family, s, a, edit):
    """cm with the first stored entry (r, c) of generator a = (kind, i) of
    piece s (family "g") or of the maximal vector X_s of step s (family
    "t", a unused) edited in place by edit(m, r, c) on a copy m."""
    bad = (cm.pieces[s].gen(*a) if family == "g" else cm.maximal[s]).copy()
    c = next(iter(bad.data))
    edit(bad, next(iter(bad.data[c])), c)
    if family == "g":
        return with_generator(cm, s, *a, bad)
    return cm._replace(maximal=cm.maximal[:s] + (bad,) + cm.maximal[s + 1 :])


def add_a_third(cm, family, s, a=None):
    """cm with 1/3 added to the first stored entry of generator a of piece s
    (family "g") or of X_s (family "t")."""
    return edit_first_entry(cm, family, s, a, lambda m, r, c: m.set(r, c, m.get(r, c) + Fraction(1, 3)))


def move_off_its_weight(cm, family, s, a=None):
    """cm with the first stored entry of generator a of piece s or of X_s
    moved to a row of another weight."""
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


@pytest.fixture(scope="module")
def c4_node2():
    return modforge.build_kr_fundamental(rs_of("C4"), 2)


KILLS_NO_X = r"^e_1 does not kill x_\d+ \(x\) t on piece 0$"


def replay_divides_no(s):
    return rf"^f_\d \. M_\d+ on step {s} is not an integer vector divisible by \d+$"


@pytest.mark.parametrize(
    "module,family,s,message",
    [
        ("c3_node2", "g", 0, r"^\[e_1, f_1\] of piece 0 is not delta h$"),
        ("c3_node2", "g", 1, r"^\[e_1, f_1\] of piece 1 is not delta h$"),
        ("c3_node2", "t", 0, KILLS_NO_X),
        ("c3_node2", "t", 1, replay_divides_no(1)),
        ("c4_node1", "g", 0, r"^\[e_1, f_1\] of piece 0 is not delta h$"),
        ("c4_node1", "t", 0, replay_divides_no(0)),
        ("c4_node2", "t", 0, KILLS_NO_X),
    ],
    ids=["g-piece0", "g-piece1", "t-step0", "t-step1", "trivial-last-g-piece0", "trivial-last-t-step0", "c4-node2-t-step0"],
)
def test_verify_relations_catches_a_planted_entry(request, module, family, s, message):
    # 1/3 on f_1 of piece s, or on the maximal vector X_s of step s
    cm = request.getfixturevalue(module)
    broken = add_a_third(cm, family, s, ("f", 1))
    with pytest.raises(TheoremCheckError, match=message):
        modforge.verify_current_relations(broken)
    # the oracles: SpMat brackets of the piece's generators, or of X_s with
    # the e_i of its pieces; where the e_i . X_s hold, X_s is one entry (a
    # map onto V(0)), the planted X_s a multiple of it by a fraction, and
    # only the replay's integrality meets it
    if family == "g":
        with pytest.raises(TheoremCheckError, match=r"^\[e_1, f_1\] failed$"):
            verify_matrix_rep(cm.rs, broken.pieces[s])
        return
    src, tgt, bad = cm.pieces[s], cm.pieces[s + 1], broken.maximal[s]
    killed = all(not (e1 @ bad - bad @ e0).data for e0, e1 in zip(src.e, tgt.e))
    assert killed == (message != KILLS_NO_X)
    if killed:
        (_, _, v), = bad.entries()
        assert tgt.dim == 1 and type(v) is Fraction


@pytest.mark.parametrize("name,node,replayed", [("C3", 2, 18), ("C4", 3, 36)])
def test_verify_relations_replays_only_the_transport(monkeypatch, name, node, replayed):
    # verify reads x_-beta (x) t on each step, for the transport, and no
    # t^2 step here; the KR relations in t hold by weight, as beta_0 is not
    # alpha_i: one division per f-tree edge on the paths to the x_-beta,
    # where the full replay takes k (D - 1)
    rs = rs_of(name)
    cm = modforge.build_kr_fundamental(rs, node)
    cb = modforge.chevalley(rs)
    parent = {z: b for z, _, b, _ in cb.f_tree}

    def path(z):
        return set() if z not in parent else {z} | path(parent[z])

    read = [[cb.minus_index(rs.int_root_coords(tuple(map(sub, cm.chain[s], cm.chain[s + 1]))))] for s in range(cm.k)]
    assert sum(len(set().union(*map(path, wanted))) for wanted in read) == replayed
    real, calls = modforge._bracket_quotient, []

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(modforge, "_bracket_quotient", counted)
    assert modforge._tsquare_steps(cm) == []
    modforge.verify_current_relations(cm)
    assert len(calls) == replayed < cm.k * (cb.dim_g - 1)


def test_verify_relations_checks_the_weights_of_the_generators(c3_node2):
    broken = move_off_its_weight(c3_node2, "g", 1, ("e", 2))
    with pytest.raises(TheoremCheckError, match=r"^e_2 of piece 1 does not move weights by alpha_2$"):
        modforge.verify_current_relations(broken)


def test_verify_relations_checks_the_weight_of_the_maximal_vector(c3_node2):
    # the e_i . X check would catch this fault too, as the SpMat oracle
    # shows, but the weight comes first
    cm = c3_node2
    theta = modforge.chevalley(cm.rs).plus_index(cm.rs.theta)
    broken = move_off_its_weight(cm, "t", 0)
    message = rf"^x_{theta} \(x\) t on piece 0 does not move weights by theta$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.verify_current_relations(broken)
    src, tgt, bad = cm.pieces[0], cm.pieces[1], broken.maximal[0]
    assert any((e1 @ bad - bad @ e0).data for e0, e1 in zip(src.e, tgt.e))


def test_verify_relations_checks_the_maximal_vector_is_not_zero(c3_node2):
    # the zero map moves no weight and every e_i kills it
    cm = c3_node2
    theta = modforge.chevalley(cm.rs).plus_index(cm.rs.theta)
    X = cm.maximal[1]
    broken = cm._replace(maximal=(cm.maximal[0], SpMat(X.rows, X.cols)))
    with pytest.raises(TheoremCheckError, match=rf"^x_{theta} \(x\) t on piece 1 is zero$"):
        modforge.verify_current_relations(broken)


def test_verify_relations_residue_budget(monkeypatch, c4_node2):
    # the presentations bound the product-kernel work: rank^2 residues per
    # piece, the [e_j, f_i] of its generators, per step rank e_i . X and at
    # most D - 1 replayed edges, D - 1 per t^2 step; a loop over the pairs
    # with a generator would take 2 rank D per piece
    cm = c4_node2
    rs = cm.rs
    n, D = rs.rank, modforge.chevalley(rs).dim_g
    real = modforge.residue
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(modforge, "residue", counted)
    modforge.verify_current_relations(cm)
    assert cm.k == 2
    piece, step, tsquare = n * n, n + D - 1, D - 1
    assert len(calls) <= (cm.k + 1) * piece + cm.k * step + (cm.k - 1) * tsquare


def zero_theta_theta(rs):
    """Pieces V(0), g, g, with maximal vectors v0 -> 3 x_theta and ad x_theta:
    both steps are g-equivariant, replayed as v0 -> 3 x and as ad x, so
    every bracket and mixed relation holds, but [x_a (x) t, x_b (x) t] v0 =
    6 [x_a, x_b]; the two-step count Hom_g(ext^2 g (x) V(0), g) is 1."""
    cb = modforge.chevalley(rs)
    theta = cb.plus_index(rs.theta)
    triv = modforge.highest_module(rs, rs.zero())
    adj = adjoint_rep(rs)
    maximal = (SpMat(cb.dim_g, 1, {0: {0: 3}}), cb.realize(adj)[theta])
    return modforge.CurrentModule(rs, 1, 2, (triv, adj, adj), maximal)


TSQUARE_FAILS = r"\[x_\d+ \(x\) t, x_\d+ \(x\) t\] does not vanish on piece 0"


def test_verify_relations_catches_a_tsquare_error():
    cm = zero_theta_theta(rs_of("C2"))
    with pytest.raises(TheoremCheckError, match=TSQUARE_FAILS) as got:
        modforge.verify_current_relations(cm)
    with pytest.raises(TheoremCheckError) as want:
        spmat_relation_counts(cm)
    assert str(got.value) == str(want.value)


def test_verify_relations_checks_that_the_chain_lowers_by_a_positive_root():
    # pieces V(0), g at level 0 with v0 -> x_theta: X_0 is maximal and moves
    # weights by theta, and the rows in (x) 1 hold, but beta_0 = -theta, so
    # the weight lemma of _check_kr_relations does not apply, and e_j (x) t
    # v0 = x_alpha_j is not 0
    rs = rs_of("C2")
    cb = modforge.chevalley(rs)
    theta = cb.plus_index(rs.theta)
    adj = adjoint_rep(rs)
    X = SpMat(cb.dim_g, 1, {0: {0: 1}})
    cm = modforge.CurrentModule(rs, 1, 0, (modforge.highest_module(rs, rs.zero()), adj), (X,))
    with pytest.raises(TheoremCheckError, match=r"^step 0 of the chain does not lower by a positive root$"):
        modforge.verify_current_relations(cm)
    assert any(t_action(cm)[0][a].apply({0: 1}) for a in range(len(rs.positive_roots)))


def test_check_tsquare_catches_a_pair_off_the_generators(monkeypatch, c3_node2):
    # x_theta is no generator: doubling x_theta (x) t on step 1 as _t_maps
    # gives it breaks only the t^2 pairs with x_theta, one of which the
    # generator a0 = 0 meets (doubling the stored X_1 would double every
    # map of the step and keep t^2 = 0)
    cm = c3_node2
    cb = modforge.chevalley(cm.rs)
    theta = cb.plus_index(cm.rs.theta)
    assert cb.generators[0] == 0 and theta not in cb.generators
    real = modforge._t_maps

    def doubled(cm_, s, wanted, cols=None):
        maps = real(cm_, s, wanted, cols)
        if s == 1 and theta in maps:
            maps[theta] = maps[theta].scale(2)
        return maps

    monkeypatch.setattr(modforge, "_t_maps", doubled)
    message = rf"\[x_0 \(x\) t, x_{theta} \(x\) t\] does not vanish on piece 0"
    with pytest.raises(TheoremCheckError, match=message):
        modforge._check_tsquare(cm, [0])


def test_verify_relations_checks_tsquare_only_where_the_two_step_hom_is_nonzero(monkeypatch, c3_node2):
    # Hom_g(ext^2 g (x) V(0, 2, 0), V(0)) = 0, so the lemma of _tsquare_steps
    # establishes the t^2 pairs of C3 node 2 and no product is computed;
    # the (0, theta, theta) module of the t^2 test has count 1 and is checked
    planted = zero_theta_theta(c3_node2.rs)
    assert modforge._tsquare_steps(c3_node2) == [] and modforge._tsquare_steps(planted) == [0]
    real, checked = modforge._check_tsquare, []

    def recorded(cm, steps):
        checked.append(list(steps))
        real(cm, steps)

    monkeypatch.setattr(modforge, "_check_tsquare", recorded)
    report = modforge.verify_current_relations(c3_node2)
    assert checked == [[]] and report.tsquare_pairs == 21 * 20 // 2


def test_verify_relations_checks_tsquare_where_the_count_is_past_the_guard(monkeypatch):
    # ext^2 of the B4 adjoint has 233 weights; the pieces of B4 node 4 and
    # their ambients have at most 126 dimensions, so a guard of 200 admits
    # the module but not the count, and the step is checked directly
    cm = modforge.build_kr_fundamental(rs_of("B4"), 4)
    report = modforge.verify_current_relations(cm)
    assert cm.k == 2 and modforge._tsquare_steps(cm) == []
    monkeypatch.setenv("KR_MAX_DIM", "200")
    assert modforge._tsquare_steps(cm) == [0]
    assert modforge.verify_current_relations(cm) == report


def test_verify_relations_checks_the_character_of_each_piece(c3_node2):
    # piece 1 becomes V(2, 0, 0) + V(0): the new line has weight 0, zero
    # generators and zero t-rows and t-columns, so every relation and the
    # transport hold, but the generator spans 112 of the 113 dimensions
    cm = c3_node2
    p = cm.pieces[1]
    dim = p.dim + 1

    def widen(m):
        return SpMat(dim, dim, m.data)

    piece = modforge.MatrixRep(tuple(map(widen, p.e)), tuple(map(widen, p.f)), p.basis_weights + (cm.rs.zero(),))
    into, out_of = cm.maximal
    maximal = (SpMat(dim, into.cols, into.data), SpMat(out_of.rows, dim, out_of.data))
    broken = cm._replace(pieces=(cm.pieces[0], piece, cm.pieces[2]), maximal=maximal)
    assert spmat_relation_counts(broken) == spmat_relation_counts(cm)
    with pytest.raises(TheoremCheckError, match=r"^the weights of piece 1 are not the character of V\(\(2, 0, 0\)\)$"):
        modforge.verify_current_relations(broken)
    span = modforge._lowering_span(modforge.tensor_rep([broken]), 0, modforge._current_lowering(cm.rs))
    assert sum(ech.dim for ech in span.values()) == 112 < broken.total_dim


@pytest.mark.parametrize("piece,wt", [(0, (0, 0, 0)), (1, (-2, 0, 0))])
def test_verify_relations_checks_that_basis_vector_0_is_each_pieces_top(c3_node2, piece, wt):
    # a piece relabeled so that basis vector 0 is a vector of weight wt, the
    # dominant weight 0 of V(0, 2, 0) or the lowest weight of V(2, 0, 0):
    # the generators still pass, and the piece's weights are not those of
    # V(wt), which in the second case is no simple module at all
    cm = c3_node2
    p = cm.pieces[piece]
    k = p.basis_weights.index(wt)
    pieces = list(cm.pieces)
    pieces[piece] = relabel_basis(p, {0: k, k: 0})
    message = rf"^the weights of piece {piece} are not the character of V\({re.escape(str(wt))}\)$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.verify_current_relations(cm._replace(pieces=tuple(pieces)))


@pytest.mark.parametrize("name,node", cli._MODFORGE_DEFAULT + [("C4", 2), ("C4", 3)])
def test_cyclic_dim_matches_the_lowering_span(name, node):
    # verify reads cyclicity off the pieces' characters and the transport;
    # the span of the generator under f_i (x) 1 and f_i (x) t confirms it
    cm = modforge.build_kr_fundamental(rs_of(name), node)
    report = modforge.verify_current_relations(cm)
    span = modforge._lowering_span(modforge.tensor_rep([cm]), 0, modforge._current_lowering(cm.rs))
    assert report.cyclic_dim == sum(ech.dim for ech in span.values()) == cm.total_dim


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
        [(k, left.data, right.data) for k, left, right in products],
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
    assert cm.maximal == ()
    assert cm.chain == ((2, 0),)
    report = modforge.verify_current_relations(cm)
    assert report.cyclic_dim == report.total_dim == 6
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


def realized_slot(cm):
    """cm as a tensor_rep slot whose operator (a, tpow) is x_a (x) t^tpow
    for every basis element x_a, the g-action realized."""
    offs = cm.offsets()
    grades, weights, _ = cm.slot()
    actions = (realized(cm), t_action(cm))

    def cols(op):
        a, tpow = op
        return {
            offs[s] + c: {offs[s + tpow] + r: v for r, v in col.items()}
            for s, mats in enumerate(actions[tpow])
            for c, col in mats[a].data.items()
        }

    return grades, weights, cols


def full_product(rs, i, m, slot=modforge.CurrentModule.slot):
    """V_m1 (x) fund^(x)m0 with every factor its own slot(factor), the
    product that modforge.kr_tensor_submodule replaces by V_m1 (x)
    S^m0(fund)."""
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    factors = [modforge.evaluation_module(rs, i, m1)] if m1 else []
    if m0:
        if rs.epsilon(rs.theta, i) == 2:
            fund = modforge.build_kr_fundamental(rs, i)
        else:
            fund = modforge.evaluation_module(rs, i, d)
        factors += [fund] * m0
    return modforge._Tensor([slot(fct) for fct in factors], [1] * len(factors))


def all_operator_submodule(rs, i, m):
    """The span of the top vector under all 2 dim g operators x_a (x) t^p,
    every (grade, weight) block kept and decomposed as it stands: the oracle
    for the lowering span of modforge.kr_tensor_submodule, which assumes none
    of its premises."""
    gt = full_product(rs, i, m, realized_slot)
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


def lowers_by_alpha_1(rs):
    """A C2 module that is no KR module: pieces V(2 omega_1) and V(omega_2),
    and X_0 the x_theta block of the one integral g-map g (x) V(2 omega_1)
    -> V(omega_2) of tensor_intertwiner (intertwiner's transport scale
    does not divide it).  Its step beta_0 = alpha_1, so x-_alpha_1 (x) t
    sends the generator to the top of piece 1."""
    cb = modforge.chevalley(rs)
    chain = ((2, 0), (0, 1))
    source, target = (modforge.highest_module(rs, mu) for mu in chain)
    (T,) = tensor_intertwiner(rs, modforge.tensor_rep([cb, source]), target)
    sdim, theta = source.dim, cb.plus_index(rs.theta)
    X = SpMat(target.dim, sdim, {c % sdim: col for c, col in T.data.items() if c // sdim == theta})
    return modforge.CurrentModule(rs, 1, 2, (source, target), (X,))


def test_kr_tensor_submodule_checks_the_top_vector(monkeypatch):
    # x+_a (x) t and h_j (x) t kill the generator by weight, once X_0 moves
    # weights by theta: the build's nullspace comes back with a value on
    # x_theta (x) top as well, an entry of X_0 off that weight, and the
    # build's check of X_0 meets it
    rs = rs_of("C2")
    cb = modforge.chevalley(rs)
    source = modforge.highest_module(rs, (2, 0))
    transport = cb.minus_index(rs.theta) * source.dim
    real = modforge.nullspace

    def planted(eqs, variables):
        sols = real(eqs, variables)
        sols[0][cb.plus_index(rs.theta) * source.dim] = sols[0][transport]
        return sols

    monkeypatch.setattr(modforge, "nullspace", planted)
    message = r"^the maximal vector of Hom\(g \(x\) V\(2, 0\), V\(0, 0\)\) does not move weights by theta$"
    with pytest.raises(TheoremCheckError, match=message):
        modforge.kr_tensor_submodule(rs, 1, 2)


@pytest.mark.parametrize(
    "where,j,row,message",
    [
        ("g_action", 2, 1, r"x-_alpha_2 does not kill the generator"),
        ("t_action", 1, 0, r"x-_alpha_1 \(x\) t does not kill the generator"),
    ],
)
def test_kr_tensor_submodule_checks_every_lowering_relation(monkeypatch, where, j, row, message):
    # x-_alpha_2 (x) 1 and x-_alpha_1 (x) t must kill the generator of the
    # C2 node 1 fundamental; neither is an e or h (x) t relation.  A fault
    # in the g-action is planted in piece 0's own generator f_2, sending v
    # to row `row`; x-_alpha_1 (x) t is replayed only where beta_0 = alpha_1,
    # and lowers_by_alpha_1, in which it sends v to row `row`, is built as
    # the fundamental
    rs = rs_of("C2")
    if where == "g_action":
        real = modforge.build_kr_fundamental

        def broken(rs_, i):
            cm = real(rs_, i)
            m = cm.pieces[0].f[j - 1].copy()
            m.set(row, 0, 1)
            return with_generator(cm, 0, "f", j, m)

        monkeypatch.setattr(modforge, "build_kr_fundamental", broken)
    else:
        cm = lowers_by_alpha_1(rs)
        b = modforge.chevalley(rs).minus_index((1, 0))
        assert set(modforge._t_maps(cm, 0, [b])[b].apply({0: 1})) == {row}
        monkeypatch.setattr(modforge, "build_kr_fundamental", lambda rs_, i: cm)
        with pytest.raises(TheoremCheckError, match=message):
            modforge.verify_current_relations(cm)
    with pytest.raises(TheoremCheckError, match=message):
        modforge.kr_tensor_submodule(rs, 1, 2)


def test_kr_tensor_submodule_checks_tsquare(monkeypatch):
    # the (0, theta, theta) module as the C2 node 1 fundamental: its
    # two-step count is 1, so the t^2 check runs on step 0 and fails
    rs = rs_of("C2")
    cm = zero_theta_theta(rs)
    assert modforge._tsquare_steps(cm) == [0]
    monkeypatch.setattr(modforge, "build_kr_fundamental", lambda rs_, i: cm)
    with pytest.raises(TheoremCheckError, match=TSQUARE_FAILS):
        modforge.kr_tensor_submodule(rs, 1, 2)

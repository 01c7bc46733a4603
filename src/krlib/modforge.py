"""Exact matrix realization of the graded KR construction, over the integers.

The route: build the defining representation with integer matrices, generate a
Chevalley basis of g (integer structure constants) by iterated brackets of
the Chevalley generators, realize V(mu) on its Kostant lattice U_Z^- v+
inside tensor products of wedge powers, solve the intertwiner
g (x) V_s -> V_{s+1} one weight space of V_{s+1} at a time (a nullspace for
the top weight, then a downward sweep through the e_i, checked against the
f_i and the character count of the Hom space), and assemble the graded
module with x(x)t acting through the normalized intertwiners.  Every
matrix of a module is an int matrix: each step that relies on Kostant's
integrality theorem divides exactly or raises TheoremCheckError.
verify_current_relations checks every relation pair by pair, each left
factor a column table and each right factor a row table, in the one product
kernel linalg.residue.  Everything is exact and deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import add, ge, sub
from types import MappingProxyType

from . import charlib, krset
from .errors import DimensionGuardError, ScopeError, TheoremCheckError
from .linalg import Echelon, SpMat, flatten, lattice_basis, lattice_coords, nullspace, residue, rows
from .rootsys import LieType, RootSystem, Weight, build


class MatrixRep(
    namedtuple("MatrixRep", "rs dim e f h basis_weights highest_index highest_weight")
):
    """A g-module with exact matrices for the Chevalley generators.

    Basis vectors are always h-eigenvectors; their weights are recorded in
    fundamental coordinates.  The h matrices are diagonal with those weights.
    """

    __slots__ = ()

    @property
    def highest_vector(self) -> dict[int, object]:
        return {self.highest_index: 1}

    def gen(self, kind: str, i: int) -> SpMat:
        return {"e": self.e, "f": self.f, "h": self.h}[kind][i - 1]

    def slot(self):
        """This module as a tensor_rep factor: operators ("e", i) and
        ("f", i), every basis vector in grade 0."""

        def cols(op):
            return {c: list(col.items()) for c, col in self.gen(*op).data.items()}

        return [0] * self.dim, self.basis_weights, cols


def _weights_from_h(hs, dim: int) -> tuple[Weight, ...]:
    """The basis weights read off the diagonal h matrices; an off-diagonal
    entry raises."""
    for m in hs:
        for r, c, _ in m.entries():
            if r != c:
                raise TheoremCheckError("h generator is not diagonal")
    return tuple(tuple(int(m.get(r, r)) for m in hs) for r in range(dim))


def _quotient(vec: dict[int, object], q: int, what: str) -> dict[int, int]:
    """vec / q for an int vector whose every entry q divides; anything else
    raises TheoremCheckError naming `what`."""
    if any(type(v) is not int or v % q for v in vec.values()):
        raise TheoremCheckError(f"{what} is not an integer vector divisible by {q}")
    return {r: v // q for r, v in vec.items()}


def _divided(m: SpMat, q: int, what: str) -> SpMat:
    return SpMat(m.rows, m.cols, {c: _quotient(col, q, what) for c, col in m.data.items()})


def _from_generators(rs: RootSystem, ee, ff, top: int = 0) -> MatrixRep:
    """The module with generators e_j, f_j and h_j = [e_j, f_j], whose basis
    vector `top` is the highest; the weights come from the diagonal of h."""
    dim = ee[0].rows
    hh = tuple(e.bracket(f) for e, f in zip(ee, ff))
    weights = _weights_from_h(hh, dim)
    return MatrixRep(rs, dim, tuple(ee), tuple(ff), hh, weights, top, weights[top])


@lru_cache(maxsize=None)
def _defining(lt: LieType) -> MatrixRep:
    rs = build(lt)
    n = lt.rank
    fam = lt.family
    dim = n + 1 if fam == "A" else 2 * n + (fam == "B")

    def mat(*entries) -> SpMat:
        m = SpMat(dim, dim)
        for r, c, v in entries:
            m.set(r, c, v)
        return m

    ee = []
    ff = []
    for i in range(1, n + 1 if fam == "A" else n):
        e, f = [(i - 1, i, 1)], [(i, i - 1, 1)]
        if fam != "A":
            # B, C, D: node i also acts, negated, on the mirror image r -> dim - 1 - r
            e.append((dim - 1 - i, dim - i, -1))
            f.append((dim - i, dim - 1 - i, -1))
        ee.append(mat(*e))
        ff.append(mat(*f))
    if fam == "C":
        ee.append(mat((n - 1, n, 1)))
        ff.append(mat((n, n - 1, 1)))
    elif fam == "B":
        # short node: the asymmetric 1/2 split keeps all matrices integral
        ee.append(mat((n - 1, n, 1), (n, n + 1, 2)))
        ff.append(mat((n, n - 1, 2), (n + 1, n, 1)))
    elif fam == "D":
        ee.append(mat((n - 2, n, 1), (n - 1, n + 1, -1)))
        ff.append(mat((n, n - 2, 1), (n + 1, n - 1, -1)))
    rep = _from_generators(rs, ee, ff)
    if rep.highest_weight != rs.fundamental(1):
        raise TheoremCheckError("defining rep does not have highest weight omega_1")
    return rep


def defining_rep(rs: RootSystem) -> MatrixRep:
    """The vector representation, with integer matrices."""
    return _defining(rs.type)


class ChevalleyBasis:
    """A Chevalley basis of g (Humphreys, section 25.2), up to sign, built
    from the generators by iterated brackets.

    Each positive root alpha of height > 1 stores a recipe (i, parent, q)
    with x_alpha = [e_i, x_parent] / q and x_-alpha = [f_i, x_-parent] / q,
    where q = p + 1 for the largest p with parent - p alpha_i a root; then
    every structure constant is an integer.  Replaying the recipes inside a
    representation on an admissible lattice realizes the whole basis there,
    and a division that is not exact raises TheoremCheckError.  Structure
    constants are read off the defining representation one weight at a
    time: [x_a, x_b] has the weight gamma of the pair, so it is c x_gamma
    when gamma is a root, lies in the span of the h_j when gamma = 0, and
    vanishes otherwise.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        pos = rs.positive_roots
        pos_set = set(pos)
        self.recipe: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, int]] = {}
        for rc in pos:
            if sum(rc) == 1:
                self.recipe[rc] = (rc.index(1) + 1, None, 1)
                continue
            for i in range(1, n + 1):
                step = tuple(int(j == i - 1) for j in range(n))
                chain = [tuple(c - k * s for c, s in zip(rc, step)) for k in range(1, 5)]
                if chain[0] in pos_set:
                    # the alpha_i-string through a root has at most 4 roots
                    q = next(k for k, below in enumerate(chain) if below not in pos_set)
                    self.recipe[rc] = (i, chain[0], q)
                    break
            else:
                raise TheoremCheckError(f"root {rc} has no simple-root predecessor")
        self.simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        # the basis: x_alpha for the positive roots, x_-alpha, then h_1..h_n;
        # roots[a] is the root coordinates of the weight of basis element a
        self.roots = list(pos) + [tuple(-c for c in rc) for rc in pos] + [(0,) * n] * n
        self._h0 = 2 * len(pos)
        self._of_root = {rc: a for a, rc in enumerate(self.roots[: self._h0])}
        self.dim_g = len(self.roots)

        drep = defining_rep(rs)
        self.def_mats = self.realize(drep)
        # the right factors of _bracket_coords; a change to def_mats must
        # change these too
        self.def_rows = [rows(m.data) for m in self.def_mats]
        ech = Echelon()
        for m in self.def_mats:
            if ech.add(flatten(m.data, drep.dim)) is None:
                raise TheoremCheckError("basis of g is dependent in the defining rep")
        self._h_ech = Echelon()
        for m in self.def_mats[self._h0 :]:
            self._h_ech.add(flatten(m.data, drep.dim))
        self._struct: list[Mapping[int, object] | None] = [None] * (self.dim_g * self.dim_g)

    def plus_index(self, rc) -> int:
        return self._of_root[rc]

    def minus_index(self, rc) -> int:
        return self._of_root[tuple(-c for c in rc)]

    def h_index(self, j: int) -> int:
        return self._h0 + j - 1

    def realize(self, rep: MatrixRep) -> list[SpMat]:
        """Matrices of the whole basis inside rep, by replaying the recipes."""
        plus: dict[tuple[int, ...], SpMat] = {}
        minus: dict[tuple[int, ...], SpMat] = {}
        for rc in self.rs.positive_roots:
            i, parent, q = self.recipe[rc]
            if parent is None:
                plus[rc] = rep.e[i - 1]
                minus[rc] = rep.f[i - 1]
            else:
                what = f"the recipe bracket of root {rc}"
                plus[rc] = _divided(rep.e[i - 1].bracket(plus[parent]), q, what)
                minus[rc] = _divided(rep.f[i - 1].bracket(minus[parent]), q, what)
        out = [plus[rc] for rc in self.rs.positive_roots]
        out += [minus[rc] for rc in self.rs.positive_roots]
        out += list(rep.h)
        return out

    def struct(self, a: int, b: int) -> Mapping[int, object]:
        """[basis_a, basis_b] expressed in the basis, with int coefficients.
        For a > b it is the negated struct(b, a): [x, y] = -[y, x] holds for
        any two matrices, so each unordered pair is bracketed once.  Do not
        mutate the result."""
        key = a * self.dim_g + b
        out = self._struct[key]
        if out is None:
            if a > b:
                out = {z: -c for z, c in self.struct(b, a).items()}
            else:
                out = self._bracket_coords(a, b)
            out = self._struct[key] = out or _NO_TERMS
        return out

    def _bracket_coords(self, a: int, b: int) -> dict[int, int]:
        n = self.def_mats[a].rows
        x, y = self.def_mats[a].data, self.def_mats[b].data
        products = ((1, x, self.def_rows[b]), (-1, y, self.def_rows[a]))
        br = {key: v for key, v in residue(n, products).items() if v}
        gamma = tuple(map(add, self.roots[a], self.roots[b]))
        z = self._of_root.get(gamma)
        if z is not None:
            # the weight space of a root is the line of x_gamma
            xz = flatten(self.def_mats[z].data, n)
            key0 = next(iter(xz))
            c, rem = divmod(br.get(key0, 0), xz[key0])
            if not rem and br == {key: c * v for key, v in xz.items() if c}:
                return {z: c} if c else {}
        elif not any(gamma):
            coords = self._h_ech.coords(br)
            if coords is not None and all(type(v) is int for v in coords.values()):
                return {self._h0 + k: v for k, v in coords.items()}
        elif not br:
            return {}
        # off the span, or a non-integral structure constant
        raise TheoremCheckError("bracket left the span of the g-basis over Z")


# the struct of every pair whose bracket vanishes
_NO_TERMS: Mapping[int, object] = MappingProxyType({})


@lru_cache(maxsize=None)
def _chevalley(lt: LieType) -> ChevalleyBasis:
    return ChevalleyBasis(build(lt))


def chevalley(rs: RootSystem) -> ChevalleyBasis:
    return _chevalley(rs.type)


def adjoint_rep(rs: RootSystem) -> MatrixRep:
    """g acting on itself; basis order and structure constants come from the
    Chevalley basis, the highest vector is the theta root vector."""
    cb = chevalley(rs)
    D = cb.dim_g

    def action_of(a: int) -> SpMat:
        m = SpMat(D, D)
        for b in range(D):
            for z, v in cb.struct(a, b).items():
                m.set(z, b, v)
        return m

    ee = [action_of(cb.plus_index(rc)) for rc in cb.simple]
    ff = [action_of(cb.minus_index(rc)) for rc in cb.simple]
    rep = _from_generators(rs, ee, ff, cb.plus_index(rs.theta))
    if rep.basis_weights != tuple(rs.root_weight(rc) for rc in cb.roots):
        raise TheoremCheckError("adjoint h eigenvalues disagree with the root weights")
    return rep


def wedge_rep(rs: RootSystem, j: int) -> MatrixRep:
    """The j-th wedge power of the defining representation.

    Irreducible except in type C; the cyclic span in highest_module extracts
    the top component there.
    """
    drep = defining_rep(rs)
    if not 1 <= j <= drep.dim:
        raise ValueError(f"wedge degree {j} out of range")
    basis = list(combinations(range(drep.dim), j))
    pos = {s: a for a, s in enumerate(basis)}
    dim = len(basis)

    def act(gmat: SpMat) -> SpMat:
        out = SpMat(dim, dim)
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

    rep = _from_generators(rs, [act(m) for m in drep.e], [act(m) for m in drep.f])
    expect = tuple(
        sum(drep.basis_weights[s][t] for s in range(j)) for t in range(rs.rank)
    )
    if rep.highest_weight != expect:
        raise TheoremCheckError(f"top wedge vector has weight {rep.highest_weight}, expected {expect}")
    return rep


class _Tensor:
    """Operators on a tensor product, applied slot by slot.

    A slot is (grades, weights, cols) for one factor, where cols(op)[c] lists
    the (row, value) pairs of column c of operator op on that factor; every
    slot has the same operators.  On the
    product, op acts as the sum over the slots of op on that slot and the
    identity on the others, so grades and weights add across the slots.
    Index digits are mixed-radix with the first factor most significant.
    Only the factor tables are stored, never an operator on the product, and
    an operator's shift tables are built the first time it is applied.
    """

    def __init__(self, slots):
        self.slots = slots
        sizes = [len(grades) for grades, _, _ in slots]
        self.dim = prod(sizes)
        self.layout = [(prod(sizes[t + 1 :]), size) for t, size in enumerate(sizes)]
        # op -> per slot (stride, size, column -> [(index shift, value)])
        self.shifts: dict[object, list] = {}

    def _tables(self, op) -> list:
        tables = self.shifts.get(op)
        if tables is None:
            tables = self.shifts[op] = [
                (stride, size, {
                    c: [((r - c) * stride, v) for r, v in pairs]
                    for c, pairs in cols(op).items()
                })
                for (stride, size), (_, _, cols) in zip(self.layout, self.slots)
            ]
        return tables

    def grade_weight(self, idx: int) -> tuple[int, Weight]:
        grade, weight = 0, None
        for (stride, size), (grades, weights, _) in zip(self.layout, self.slots):
            d = idx // stride % size
            grade += grades[d]
            weight = weights[d] if weight is None else tuple(map(add, weight, weights[d]))
        return grade, weight

    def apply(self, op, vec: dict[int, object]) -> dict[int, object]:
        tables = self._tables(op)
        out: dict[int, object] = {}
        for idx, val in vec.items():
            for stride, size, table in tables:
                for shift, v in table.get(idx // stride % size, ()):
                    key = idx + shift
                    w = out.get(key, 0) + v * val
                    if w:
                        out[key] = w
                    else:
                        del out[key]
        return out


def tensor_rep(factors) -> _Tensor:
    """The tensor product of MatrixReps or CurrentModules as one slot-wise
    operator; each factor supplies its own slot."""
    return _Tensor([fct.slot() for fct in factors])


def _lowering_span(space: _Tensor, start: int, ops, keep=lambda wt: True):
    """The span of basis vector `start` of a tensor_rep under the operators
    `ops`, found depth first, as an Echelon per (grade, weight) block.

    ops lists (op, grade step, root): op maps the block (grade, weight) into
    (grade + grade step, weight - root), roots in fundamental coordinates.
    Past the start, a block whose weight fails `keep` is never entered, nor
    is anything reached through it.
    """
    blocks: dict[tuple[int, Weight], Echelon] = {}
    key = space.grade_weight(start)
    queue = [({start: 1}, key)]
    blocks[key] = Echelon()
    blocks[key].add({start: 1})
    while queue:
        vec, (grade, wt) = queue.pop()
        for op, dg, root in ops:
            img = space.apply(op, vec)
            if not img:
                continue
            nwt = tuple(map(sub, wt, root))
            key = (grade + dg, nwt)
            if keep(nwt) and blocks.setdefault(key, Echelon()).add(img) is not None:
                queue.append((img, key))
    return blocks


def _current_lowering(rs: RootSystem) -> list:
    """f_i (x) 1 and f_i (x) t as _lowering_span operators on a tensor_rep of
    CurrentModules.  Their span from a vector is the g[t]-submodule that the
    vector generates whenever the premises of PBW hold: the factors are
    g (x) C[t]/t^2-modules and the vector is killed by e_i (x) 1, e_i (x) t
    and h_j (x) t."""
    cb = chevalley(rs)
    return [
        ((cb.minus_index(rc), tpow), tpow, alpha)
        for rc, alpha in zip(cb.simple, rs.cartan)
        for tpow in (0, 1)
    ]


def _scope_factors(rs: RootSystem, lam: Weight) -> list[MatrixRep]:
    n = rs.rank
    fam = rs.type.family
    factors: list[MatrixRep] = []
    for j, c in enumerate(lam, start=1):
        if not c:
            continue
        if (fam == "B" and j == n and c % 2) or (fam == "D" and j >= n - 1):
            raise ScopeError(f"spin weight {lam} of {rs.type} is outside the matrix scope")
        # the B spin node enters through the wedge of degree n, 2 omega_n
        factors += [wedge_rep(rs, j)] * (c // 2 if fam == "B" and j == n else c)
    return factors


def highest_module(rs: RootSystem, lam: Weight) -> MatrixRep:
    """V(lam) on its Kostant lattice U_Z^- v+ inside a product of wedges
    (Humphreys, sections 26-27).

    U_Z^- is generated by the divided powers f_i^(k) = f_i^k / k!, so the
    lattice L_mu of weight mu is the Z-span of f_i^(k) L_{mu + k alpha_i}
    over i and k >= 1.  The weights of V(lam) are visited by depth below
    lam; the basis of L_mu is the reduced echelon form of lattice_basis,
    and its rank must be the Freudenthal multiplicity.  e_i and f_i are
    read off as int coordinates over these bases, each f_i image computed
    once: the ambient lattice is admissible and U_Z v+ = U_Z^- v+, so a
    divided power that does not divide, or an image off the lattice below
    or above, raises TheoremCheckError.
    """
    rs._check_weight(lam)
    if not rs.dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    target_dim = charlib.weyl_dim(rs, lam)
    guard = charlib.dimension_guard()
    if target_dim > guard:
        raise DimensionGuardError(f"dim V({lam}) = {target_dim} exceeds {guard}")
    amb = tensor_rep(_scope_factors(rs, lam))
    if amb.dim > guard:
        raise DimensionGuardError(f"ambient dim {amb.dim} exceeds {guard}")
    n = rs.rank
    v0 = {0: 1}
    for i in range(1, n + 1):
        if amb.apply(("e", i), v0):
            raise TheoremCheckError("top vector is not highest in the ambient space")

    mults = charlib.weight_mults(rs, lam)
    depth = {mu: rs.scaled_height(tuple(map(sub, lam, mu))) for mu in mults}
    gens: dict[Weight, list] = {lam: [v0]}
    # weight -> (i, r, f_i of basis vector r) for each image landing there
    f_images: dict[Weight, list] = {}
    lattices: dict[Weight, tuple[dict, int]] = {}
    ee, ff = [{} for _ in range(n)], [{} for _ in range(n)]
    basis_wts: list[Weight] = []

    def read(table, name: str, r: int, img, wt: Weight) -> None:
        """Column r of a generator's table: img over the lattice basis of wt."""
        lat, start = lattices.get(wt, ({}, 0))
        coords = lattice_coords(lat, img) if img else {}
        if coords is None:
            raise TheoremCheckError(
                f"{name} maps basis vector {r} of V({lam}) off the lattice of weight {wt}"
            )
        if coords:
            table[r] = {start + k: v for k, v in coords.items()}

    for mu in sorted(mults, key=depth.__getitem__):
        lat = lattice_basis(gens.pop(mu, ()))
        if len(lat) != mults[mu]:
            raise TheoremCheckError(
                f"the lattice of weight {mu} in V({lam}) has rank {len(lat)},"
                f" the multiplicity is {mults[mu]}"
            )
        lattices[mu] = (lat, len(basis_wts))
        for i, r, img in f_images.pop(mu, ()):
            read(ff[i - 1], f"f_{i}", r, img, mu)
        for r, vec in enumerate(lat.values(), len(basis_wts)):
            for i, alpha in enumerate(rs.cartan, start=1):
                read(ee[i - 1], f"e_{i}", r, amb.apply(("e", i), vec), tuple(map(add, mu, alpha)))
                # f_i^(k) vec = f_i f_i^(k-1) vec / k, a generator k steps below
                img, wt, k = amb.apply(("f", i), vec), tuple(map(sub, mu, alpha)), 1
                if img:
                    f_images.setdefault(wt, []).append((i, r, img))
                while img and wt in mults:
                    gens.setdefault(wt, []).append(img)
                    k += 1
                    img = _quotient(amb.apply(("f", i), img), k, f"f_{i}^({k}) of basis vector {r}")
                    wt = tuple(map(sub, wt, alpha))
        basis_wts += [mu] * len(lat)
    for wt, pending in f_images.items():
        # nonzero f images at weights that V(lam) lacks
        for i, r, img in pending:
            read(ff[i - 1], f"f_{i}", r, img, wt)
    dim = len(basis_wts)
    if dim != target_dim:
        raise TheoremCheckError(f"V({lam}) has dim {dim}, Weyl dimension is {target_dim}")
    hh = [SpMat.from_diag([wt[i] for wt in basis_wts]) for i in range(n)]
    ee, ff = ([SpMat(dim, dim, m) for m in mats] for mats in (ee, ff))
    return MatrixRep(rs, dim, tuple(ee), tuple(ff), tuple(hh), tuple(basis_wts), 0, lam)


def intertwiner(rs: RootSystem, source: _Tensor, target: MatrixRep) -> list[SpMat]:
    """Basis of the g-equivariant maps from the tensor_rep source M to the
    simple target V(lam), solved one weight space at a time.

    Hom_g(M, V(lam)) is dual to M_lam / sum_i f_i M_{lam + alpha_i}
    (Humphreys, sections 20-21), so one nullspace over the source columns of
    weight lam gives the top of every map.  Below the top, phi(c) for a
    column c of weight mu is the unique x in V(lam)_mu with e_i x = phi(e_i c)
    for every i: the weights are visited by increasing depth below lam, so
    every phi(e_i c) is already known, and x is read off an echelon of the
    stacked e_i images of V(lam)_mu.  That echelon is injective below the top
    only if the target is simple, so a dependent insert raises.  A column
    whose weight V(lam) lacks must have phi(e_i c) = 0, and
    phi(f_i c) = f_i phi(c) is checked for every column and every i where
    either side can be nonzero; together with e-equivariance by
    construction, each returned map is g-equivariant.
    """
    n = rs.rank
    lam = target.highest_weight
    dim = target.dim

    def shift(wt: Weight, i: int, sign: int) -> Weight:
        return tuple(a + sign * b for a, b in zip(wt, rs.cartan[i - 1]))

    cols_by_wt: dict[Weight, list[int]] = {}
    for c in range(source.dim):
        cols_by_wt.setdefault(source.grade_weight(c)[1], []).append(c)
    rows_by_wt: dict[Weight, list[int]] = {}
    for r, wt in enumerate(target.basis_weights):
        rows_by_wt.setdefault(wt, []).append(r)
    top = target.highest_index
    if rows_by_wt.get(lam) != [top]:
        raise TheoremCheckError(f"weight {lam} of the target is not a highest line")
    # below[i] holds nu with nu + alpha_i a target weight, above[i] nu with
    # nu - alpha_i one
    below = {i: {shift(mu, i, -1) for mu in rows_by_wt} for i in range(1, n + 1)}
    above = {i: {shift(mu, i, 1) for mu in rows_by_wt} for i in range(1, n + 1)}

    # the top: unknowns are the columns of weight lam, rows the f_i images
    # of the columns of weight lam + alpha_i
    rows = [
        source.apply(("f", i), {c: 1})
        for i in range(1, n + 1)
        for c in cols_by_wt.get(shift(lam, i, 1), ())
    ]
    maps = [
        SpMat(dim, source.dim, {c: {top: v} for c, v in sol.items()})
        for sol in nullspace(rows, cols_by_wt.get(lam, []))
    ]
    if not maps:
        return []

    # downward from lam, which is alone at depth 0
    depth = {mu: rs.scaled_height(tuple(a - b for a, b in zip(lam, mu))) for mu in rows_by_wt}
    for mu in sorted(rows_by_wt, key=depth.__getitem__)[1:]:
        basis = rows_by_wt[mu]
        ech = Echelon()
        for r in basis:
            stacked = {
                (i - 1) * dim + z: v
                for i in range(1, n + 1)
                for z, v in target.e[i - 1].col(r).items()
            }
            if ech.add(stacked) is None:
                raise TheoremCheckError(f"the e_i are not injective on weight {mu} of V({lam})")
        live = [i for i in range(1, n + 1) if mu in below[i]]
        for c in cols_by_wt.get(mu, ()):
            ups = [(i, source.apply(("e", i), {c: 1})) for i in live]
            for phi in maps:
                rhs = {
                    (i - 1) * dim + z: v for i, up in ups for z, v in phi.apply(up).items()
                }
                if not rhs:
                    continue
                x = ech.coords(rhs)
                if x is None:
                    raise TheoremCheckError(
                        f"no vector of weight {mu} in V({lam}) matches the e-images"
                        f" of source column {c}"
                    )
                phi.data[c] = {basis[k]: v for k, v in x.items()}

    for nu, cols in cols_by_wt.items():
        if nu in rows_by_wt:
            continue
        for i in range(1, n + 1):
            if nu not in below[i]:
                continue
            for c in cols:
                up = source.apply(("e", i), {c: 1})
                if any(phi.apply(up) for phi in maps):
                    raise TheoremCheckError(
                        f"source column {c} has weight {nu}, absent from V({lam}),"
                        f" but its e_{i} image does not map to zero"
                    )

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
    return maps


class CurrentModule(
    namedtuple("CurrentModule", "rs node level chain pieces g_action t_action")
):
    """Graded module for g[t]: pieces V_0..V_k, x(x)1 block-diagonal, x(x)t
    mapping each piece to the next, everything else acting as zero."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.pieces) - 1

    @property
    def total_dim(self) -> int:
        return sum(p.dim for p in self.pieces)

    def offsets(self) -> list[int]:
        out = [0]
        for p in self.pieces:
            out.append(out[-1] + p.dim)
        return out

    def slot(self):
        """This module as a tensor_rep factor: operator (a, tpow) is
        x_a (x) t^tpow, which raises the grade (the piece) by tpow."""
        offs = self.offsets()
        grades = [s for s, p in enumerate(self.pieces) for _ in range(p.dim)]
        weights = [w for p in self.pieces for w in p.basis_weights]

        def cols(op):
            a, tpow = op
            return {
                offs[s] + c: [(offs[s + tpow] + r, v) for r, v in col.items()]
                for s, mats in enumerate((self.g_action, self.t_action)[tpow])
                for c, col in mats[a].data.items()
            }

        return grades, weights, cols


def evaluation_module(rs: RootSystem, node: int, m: int) -> CurrentModule:
    """V(m omega_i) with t g[t] acting as zero."""
    lam = rs.fundamental(node, m) if m else rs.zero()
    piece = highest_module(rs, lam)
    cb = chevalley(rs)
    mats = tuple(cb.realize(piece))
    return CurrentModule(rs, node, m, (lam,), (piece,), (mats,), ())


def build_kr_fundamental(rs: RootSystem, i: int) -> CurrentModule:
    """The graded module on the chain of node i at level dcheck_i, with x(x)t
    given by the unique normalized intertwiners."""
    if rs.epsilon(rs.theta, i) != 2:
        raise ValueError(f"node {i} of {rs.type} is not a construction node")
    d = rs.dcheck[i - 1]
    chain = krset.enumerate_chain(rs, i).weights
    pieces = tuple(highest_module(rs, mu) for mu in chain)
    cb = chevalley(rs)
    g_action = tuple(tuple(cb.realize(p)) for p in pieces)
    adj = adjoint_rep(rs)

    t_action = []
    for s in range(len(chain) - 1):
        src = tensor_rep([adj, pieces[s]])
        sols = intertwiner(rs, src, pieces[s + 1])
        count = charlib.hom_dim(rs, [adj.highest_weight, chain[s]], chain[s + 1])
        if len(sols) != count:
            raise TheoremCheckError(
                f"Hom(g (x) V{chain[s]}, V{chain[s + 1]}) has dimension {len(sols)},"
                f" the character count is {count}"
            )
        if len(sols) != 1:
            raise TheoremCheckError(
                f"Hom(g (x) V{chain[s]}, V{chain[s + 1]}) has dimension {len(sols)}"
            )
        T = sols[0]
        beta = tuple(a - b for a, b in zip(chain[s], chain[s + 1]))
        bidx = cb.minus_index(rs.int_root_coords(beta))
        col = T.col(bidx * pieces[s].dim + pieces[s].highest_index)
        scale = col.get(pieces[s + 1].highest_index, 0)
        if scale == 0 or set(col) != {pieces[s + 1].highest_index}:
            raise TheoremCheckError(
                f"intertwiner does not transport the highest vector at step {s}"
            )
        T = _divided(T, scale, f"the intertwiner at step {s} over its transport scale")
        dim = pieces[s].dim
        mats = [SpMat(pieces[s + 1].dim, dim) for _ in range(cb.dim_g)]
        for c in sorted(T.data):
            mats[c // dim].data[c % dim] = T.data[c]
        t_action.append(tuple(mats))
    return CurrentModule(rs, i, d, chain, pieces, g_action, tuple(t_action))


class RelationReport(
    namedtuple(
        "RelationReport",
        "label total_dim bracket_pairs mixed_pairs tsquare_pairs generator_checks"
        " cyclic_dim transport_steps",
    )
):
    """Counts of verified identities for one module."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.cyclic_dim == self.total_dim


def _check_tsquare(cm: CurrentModule) -> int:
    """[x_a (x) t, x_b (x) t] = 0 on every piece, since x (x) t^2 acts as
    zero; returns the number of pairs checked."""
    D = len(cm.g_action[0])
    pairs = 0
    for s in range(cm.k - 1):
        lo, hi = [rows(m.data) for m in cm.t_action[s]], [m.data for m in cm.t_action[s + 1]]
        for a in range(D):
            for b in range(a + 1, D):
                res = residue(cm.pieces[s + 2].dim, ((1, hi[a], lo[b]), (-1, hi[b], lo[a])))
                if any(res.values()):
                    raise TheoremCheckError(
                        f"[x_{a} (x) t, x_{b} (x) t] does not vanish on piece {s}"
                    )
                pairs += 1
    return pairs


def verify_current_relations(cm: CurrentModule, i: int | None = None, m: int | None = None) -> RelationReport:
    """Exact matrix verification of the current-algebra structure and of the
    defining relations of KR(m omega_i) on the generator.

    With N = x and M = x (x) t as column tables and c_z the structure
    constants of a pair, it checks [N_a, N_b] = sum c_z N_z and
    N^{s+1}_a M_b - M_b N^s_a = sum c_z M_z, each as one residue.  The
    right factors become row tables one piece (or one step) at a time, as
    its loop starts.
    """
    rs = cm.rs
    cb = chevalley(rs)
    i = cm.node if i is None else i
    m = cm.level if m is None else m
    D = cb.dim_g
    k = cm.k
    dims = [p.dim for p in cm.pieces]

    gvals = [[x.data for x in mats] for mats in cm.g_action]
    bracket_pairs = 0
    for s, N in enumerate(gvals):
        R = [rows(x) for x in N]
        for a in range(D):
            for b in range(a + 1, D):
                terms = [(-c, N[z]) for z, c in cb.struct(a, b).items()]
                if any(residue(dims[s], ((1, N[a], R[b]), (-1, N[b], R[a])), terms).values()):
                    raise TheoremCheckError(f"[x_{a}, x_{b}] fails on piece {s}")
                bracket_pairs += 1

    mixed_pairs = 0
    for s, mats in enumerate(cm.t_action):
        M, N1 = [x.data for x in mats], gvals[s + 1]
        MR, R0 = [rows(x) for x in M], [rows(x) for x in gvals[s]]
        for a in range(D):
            for b in range(D):
                terms = [(-c, M[z]) for z, c in cb.struct(a, b).items()]
                if any(residue(dims[s + 1], ((1, N1[a], MR[b]), (-1, M[b], R0[a])), terms).values()):
                    raise TheoremCheckError(f"[x_{a} (x) 1, x_{b} (x) t] fails on piece {s}")
                mixed_pairs += 1

    tsquare_pairs = _check_tsquare(cm)

    # defining relations on the generator
    v0 = cm.pieces[0].highest_vector
    checks = 0
    npos = len(rs.positive_roots)
    for a in range(npos):
        if cm.g_action[0][a].apply(v0):
            raise TheoremCheckError(f"x+_{a} does not kill the generator")
        checks += 1
        if k > 0 and cm.t_action[0][a].apply(v0):
            raise TheoremCheckError(f"x+_{a} (x) t does not kill the generator")
        checks += 1
    for j in range(1, rs.rank + 1):
        got = cm.g_action[0][cb.h_index(j)].apply(v0)
        want = {cm.pieces[0].highest_index: m} if (j == i and m) else {}
        if got != want:
            raise TheoremCheckError(f"h_{j} eigenvalue on the generator is wrong")
        checks += 1
        if k > 0 and cm.t_action[0][cb.h_index(j)].apply(v0):
            raise TheoremCheckError(f"h_{j} (x) t does not kill the generator")
        checks += 1
    for j, rc in enumerate(cb.simple, start=1):
        a = cb.minus_index(rc)
        if j != i:
            if cm.g_action[0][a].apply(v0):
                raise TheoremCheckError(f"x-_alpha_{j} does not kill the generator")
            checks += 1
        else:
            vec = dict(v0)
            for _ in range(m + 1):
                vec = cm.g_action[0][a].apply(vec)
            if vec:
                raise TheoremCheckError(f"(x-_alpha_{i})^{m + 1} does not kill the generator")
            checks += 1
            if k > 0 and cm.t_action[0][a].apply(v0):
                raise TheoremCheckError(f"x-_alpha_{i} (x) t does not kill the generator")
            checks += 1

    # cyclicity: the relations and generator checks above are the premises of
    # _current_lowering, so the f_i (x) 1 and f_i (x) t images of the
    # generator span the g[t]-submodule it generates
    blocks = _lowering_span(tensor_rep([cm]), cm.pieces[0].highest_index, _current_lowering(rs))
    cyclic_dim = sum(ech.dim for ech in blocks.values())
    if cyclic_dim != cm.total_dim:
        raise TheoremCheckError(f"generator spans {cyclic_dim} of {cm.total_dim} dimensions")

    # transport along the chain through the normalized intertwiners
    transport = 0
    for s in range(k):
        beta = tuple(a - b for a, b in zip(cm.chain[s], cm.chain[s + 1]))
        a = cb.minus_index(rs.int_root_coords(beta))
        got = cm.t_action[s][a].apply(cm.pieces[s].highest_vector)
        if got != cm.pieces[s + 1].highest_vector:
            raise TheoremCheckError(f"transport fails at step {s}")
        transport += 1

    label = f"{rs.type.family}{rs.rank} node {i} level {m}"
    return RelationReport(
        label, cm.total_dim, bracket_pairs, mixed_pairs, tsquare_pairs, checks, cyclic_dim, transport
    )


def kr_tensor_submodule(rs: RootSystem, i: int, m: int) -> dict[int, dict[Weight, int]]:
    """Cyclic submodule generated by the top vector v of the tensor product of
    fundamental graded modules; returns grade -> decomposition and checks it
    against the combinatorial graded character.

    The span is computed under f_i (x) 1 and f_i (x) t alone.  With A the
    algebra C[t]/t^2, PBW (Humphreys 17.3) gives
    U(g (x) A) = U(n- (x) A) U(h (x) A) U(n+ (x) A), so the g[t]-span of v is
    U(n- (x) A) v, which those 2 rank operators generate, provided:
    - each factor is a g-module: highest_module builds every piece as the
      cyclic span of a highest vector and realize replays the brackets;
    - [x (x) 1, y (x) t] = [x, y] (x) t on each factor: the intertwiner is
      g-equivariant, f by its explicit check and e by construction;
    - [x (x) t, y (x) t] = 0 on each factor: _check_tsquare, here;
    - v is killed by e_i (x) 1, e_i (x) t and h_j (x) t, hence by n+ (x) A
      and h (x) t: checked here.
    The product is then a g (x) A-module with x (x) t acting slot by slot.
    Only weights nu with nu - mu in Q+ for a dominant mu <= m omega_i are
    kept: an f-word only lowers the weight, so every word that ends on a
    dominant weight passes through kept weights alone.  The span is a
    g-module, so the multiplicities of its dominant weights, spread over
    their Weyl orbits, are its character; a grade whose character is not a
    sum of simple characters, or a decomposition other than the
    combinatorial one, raises TheoremCheckError.
    """
    rs._check_node(i)
    if m < 0:
        raise ValueError("level must be non-negative")
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    target = krset.graded_character(rs, i, m).as_dict()
    if m == 0:
        return {0: {rs.zero(): 1}}

    factors: list[CurrentModule] = []
    if m1:
        factors.append(evaluation_module(rs, i, m1))
    if m0:
        if rs.epsilon(rs.theta, i) == 2:
            fund = build_kr_fundamental(rs, i)
        else:
            fund = evaluation_module(rs, i, d)
        _check_tsquare(fund)
        factors.extend([fund] * m0)

    guard = charlib.dimension_guard()
    total = 1
    for cm in factors:
        total *= cm.total_dim
    if total > guard:
        raise DimensionGuardError(f"tensor space dim {total} exceeds {guard}")

    gt = tensor_rep(factors)
    cb = chevalley(rs)
    killers = [
        (f"e_{j} (x) {'t' if tpow else '1'}", (cb.plus_index(rc), tpow))
        for j, rc in enumerate(cb.simple, start=1)
        for tpow in (0, 1)
    ] + [(f"h_{j} (x) t", (cb.h_index(j), 1)) for j in range(1, rs.rank + 1)]
    for name, op in killers:
        if gt.apply(op, {0: 1}):
            raise TheoremCheckError(f"{name} does not kill the top vector")

    lam = gt.grade_weight(0)[1]
    floors = [rs.scaled_root_coords(mu) for mu in charlib._dominant_below(rs.type, lam)]

    @lru_cache(maxsize=None)
    def above_dominant(nu: Weight) -> bool:
        sc = rs.scaled_root_coords(nu)
        return any(all(map(ge, sc, fl)) for fl in floors)

    blocks = _lowering_span(gt, 0, _current_lowering(rs), above_dominant)
    chars: dict[int, dict[Weight, int]] = {}
    for (g, wt), ech in blocks.items():
        if rs.dominant(wt):
            chi = chars.setdefault(g, {})
            for w in rs.weyl_orbit(wt):
                chi[w] = ech.dim
    out: dict[int, dict[Weight, int]] = {}
    for g, chi in sorted(chars.items()):
        try:
            out[g] = charlib.decompose_character(rs, chi)
        except ValueError as err:
            raise TheoremCheckError(f"grade {g} of the span: {err}") from err
    if out != target:
        raise TheoremCheckError(
            f"graded submodule decomposition {out} differs from the"
            f" combinatorial character {target}"
        )
    return out

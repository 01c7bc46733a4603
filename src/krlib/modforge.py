"""Exact matrix realization of the graded KR construction, over the integers.

The route: build the defining representation with integer matrices, generate a
Chevalley basis of g (integer structure constants) by iterated brackets of
the Chevalley generators, realize V(mu) on its Kostant lattice U_Z^- v+
inside tensor products of wedge powers, and give x(x)t from V_s to V_{s+1} as
the g-orbit of one maximal vector of weight theta in Hom(V_s, V_{s+1}) (the
top from one small nullspace, checked against the character count of the
Hom space, the rest by a downward sweep through the e_i on V_s), replayed
along a tree of f-brackets from x_theta and normalized by its transport of
the highest vector; then assemble the graded module.  Every matrix of a
module is an int matrix: each step that relies on Kostant's integrality
theorem divides exactly or raises TheoremCheckError.
verify_current_relations checks presentations, Serre's for each piece and
one maximal vector and its f-tree for each step, each left factor a column
table and each right factor a row table, in the one product kernel
linalg.residue; every other relation follows.  All exact and deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, count
from math import comb, prod
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
    def highest_vector(self) -> dict[int, int]:
        return {self.highest_index: 1}

    def gen(self, kind: str, i: int) -> SpMat:
        return {"e": self.e, "f": self.f, "h": self.h}[kind][i - 1]

    def slot(self):
        """This module as a tensor_rep factor: operators ("e", i) and
        ("f", i), every basis vector in grade 0."""

        def cols(op):
            return self.gen(*op).data

        return [0] * self.dim, self.basis_weights, cols


def _weights_from_h(hs, dim: int) -> tuple[Weight, ...]:
    """The basis weights read off the diagonal h matrices; an off-diagonal
    entry raises."""
    if any(r != c for m in hs for c, col in m.data.items() for r in col):
        raise TheoremCheckError("h generator is not diagonal")
    return tuple(tuple(m.data.get(r, {}).get(r, 0) for m in hs) for r in range(dim))


def _quotient(vec: dict[int, object], q: int, what: str) -> dict[int, int]:
    """vec / q for an int vector whose every entry q divides; anything else
    raises TheoremCheckError naming `what`."""
    if any(type(v) is not int or v % q for v in vec.values()):
        raise TheoremCheckError(f"{what} is not an integer vector divisible by {q}")
    return {r: v // q for r, v in vec.items()}


def _bracket_quotient(a: SpMat, m: SpMat, b_rows, q: int, what: str) -> SpMat:
    """(A M - M B) / q, for the row table b_rows of B, through residue; a
    quotient that is not exact raises TheoremCheckError naming `what`."""
    out = SpMat(a.rows, m.cols)
    res = residue(a.rows, ((1, a.data, rows(m.data)), (-1, m.data, b_rows)))
    for key, v in _quotient(res, q, what).items():
        if v:
            c, r = divmod(key, a.rows)
            out.data.setdefault(c, {})[r] = v
    return out


def _from_generators(rs: RootSystem, ee, ff, top: int = 0) -> MatrixRep:
    """The module with generators e_j, f_j and h_j = [e_j, f_j], whose basis
    vector `top` is the highest; the weights come from the diagonal of h."""
    dim = ee[0].rows
    hh = tuple(_bracket_quotient(e, f, rows(e.data), 1, "h") for e, f in zip(ee, ff))
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

    The 2 rank generators e_j = x_alpha_j and f_j = x_-alpha_j generate the
    basis as a Lie algebra (Humphreys, section 14), which the relation checks
    of verify_current_relations rely on; the constructor checks it from the
    structure constants: [e_i, x_parent] = q x_alpha and [f_i, x_-parent] =
    q x_-alpha for every recipe, and [e_j, f_j] = h_j.
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
        self._struct: list[Mapping[int, int] | None] = [None] * (self.dim_g * self.dim_g)
        self.generators = tuple(sorted(
            idx(rc) for idx in (self.plus_index, self.minus_index) for rc in self.simple
        ))
        self._check_generation()

    def _check_generation(self) -> None:
        # read through _bracket_coords, so the struct cache starts empty
        for rc, (i, parent, q) in self.recipe.items():
            if parent is None:
                continue
            for idx in (self.plus_index, self.minus_index):
                if self._bracket_coords(idx(self.simple[i - 1]), idx(parent)) != {idx(rc): q}:
                    raise TheoremCheckError(
                        f"the generators do not generate the basis: the recipe bracket of root {rc}"
                    )
        for j, rc in enumerate(self.simple, start=1):
            if self._bracket_coords(self.plus_index(rc), self.minus_index(rc)) != {self.h_index(j): 1}:
                raise TheoremCheckError(f"the generators do not generate the basis: [e_{j}, f_{j}] is not h_{j}")

    @cached_property
    def f_tree(self) -> tuple[tuple[int, int, int, int], ...]:
        """Edges (z, i, b, c) with [f_i, x_b] = c x_z, parents first: a tree of
        f-brackets from x_theta, breadth first, that reaches the whole basis."""
        reached, edges = [self.plus_index(self.rs.theta)], []
        for b in reached:  # breadth first: the list grows as it is read
            for i, rc in enumerate(self.simple, start=1):
                terms = self.struct(self.minus_index(rc), b)
                z = next(iter(terms), None)
                if len(terms) == 1 and z not in reached:
                    reached.append(z)
                    edges.append((z, i, b, terms[z]))
        if len(reached) != self.dim_g:
            raise TheoremCheckError("the f-brackets from x_theta do not reach the whole basis")
        return tuple(edges)

    def plus_index(self, rc) -> int:
        return self._of_root[rc]

    def minus_index(self, rc) -> int:
        return self._of_root[tuple(-c for c in rc)]

    def h_index(self, j: int) -> int:
        return self._h0 + j - 1

    def realize(self, rep: MatrixRep) -> list[SpMat]:
        """Matrices of the whole basis inside rep, by replaying the recipes."""
        out: list[SpMat] = []
        for xs in (rep.e, rep.f):
            # the x_alpha from the e_i, then the x_-alpha from the f_i
            xrows = [rows(x.data) for x in xs]
            mats: dict[tuple[int, ...], SpMat] = {}
            for rc in self.rs.positive_roots:
                i, parent, q = self.recipe[rc]
                x, what = xs[i - 1], f"the recipe bracket of root {rc}"
                mats[rc] = x if parent is None else _bracket_quotient(x, mats[parent], xrows[i - 1], q, what)
            out += mats.values()
        return out + list(rep.h)

    def struct(self, a: int, b: int) -> Mapping[int, int]:
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
            got = self._h_ech.coords(br)
            if got is not None and got[1] == 1:
                return {self._h0 + k: v for k, v in got[0].items()}
        elif not br:
            return {}
        # off the span, or a non-integral structure constant
        raise TheoremCheckError("bracket left the span of the g-basis over Z")


# the struct of every pair whose bracket vanishes
_NO_TERMS: Mapping[int, int] = MappingProxyType({})


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


def _derivation(col, stride: int, monos, ranks):
    """The shifts of an operator with factor column table col on S^k, as a
    function of the monomial's rank c: the operator acts as a derivation,
    so over the distinct entries d of the monomial, one copy of d becomes
    each row r of column d, and the value is multiplied by the copies of d."""

    def shifts(c: int) -> list:
        mono, out = monos[c], []
        for at, d in enumerate(mono):
            if d in col and not (at and mono[at - 1] == d):
                rest, copies = mono[:at] + mono[at + 1 :], mono.count(d)
                for r, v in col[d].items():
                    out.append(((ranks[tuple(sorted(rest + (r,)))] - c) * stride, copies * v))
        return out

    return shifts


class _Tensor:
    """Operators on a tensor product of symmetric powers, applied slot by slot.

    A slot is (grades, weights, cols) for one factor, where cols(op) is the
    column table {c: {r: value}} of operator op on that factor, read-only;
    every slot has the same operators.  Slot t is S^k(factor), k = powers[t]:
    k = 1 is the factor itself, a plain slot, and for k > 1 the basis is
    the sorted k-tuples of factor indices (the monomials), ranked in
    lexicographic order, on which op acts as a derivation.  On the product,
    op acts as the sum over the slots of op on that slot and the identity on
    the others, so grades and weights add over the entries of every slot.
    Index digits are mixed-radix with the first slot most significant.  Only
    the factor tables are stored, never an operator on the product: an
    operator's shifts on a plain slot are built the first time it is
    applied, and on S^k one monomial at a time, the first time it is met.
    """

    def __init__(self, slots, powers):
        self.slots, self.powers = slots, powers
        sizes = [comb(len(grades) + k - 1, k) for (grades, _, _), k in zip(slots, powers)]
        self.dim = prod(sizes)
        self.layout = [(prod(sizes[t + 1 :]), size) for t, size in enumerate(sizes)]
        # op -> per slot (stride, size, [(index shift, value)] per column, fill),
        # a column of S^k None until fill(column) builds it
        self.shifts: dict[object, list] = {}

    @cached_property
    def monomials(self) -> list:
        """Per slot S^k, k > 1, the monomials and their ranks; None on a
        plain slot."""
        out = []
        for (grades, _, _), k in zip(self.slots, self.powers):
            if k == 1:
                out.append(None)
            else:
                monos = list(combinations_with_replacement(range(len(grades)), k))
                out.append((monos, dict(zip(monos, count()))))
        return out

    def _tables(self, op) -> list:
        tables = self.shifts.get(op)
        if tables is None:
            tables = self.shifts[op] = []
            for (stride, size), (_, _, cols), ranked in zip(self.layout, self.slots, self.monomials):
                col = cols(op)
                if ranked and col:
                    table, fill = [None] * size, _derivation(col, stride, *ranked)
                else:
                    table, fill = [()] * size, None
                    for c, entries in col.items():
                        table[c] = [((r - c) * stride, v) for r, v in entries.items()]
                tables.append((stride, size, table, fill))
        return tables

    def grade_weight(self, idx: int) -> tuple[int, Weight]:
        grade, weight = 0, None
        for (stride, size), (grades, weights, _), ranked in zip(self.layout, self.slots, self.monomials):
            digit = idx // stride % size
            for d in (digit,) if ranked is None else ranked[0][digit]:
                grade += grades[d]
                weight = weights[d] if weight is None else tuple(map(add, weight, weights[d]))
        return grade, weight

    def apply(self, op, vec: dict[int, int]) -> dict[int, int]:
        tables = self._tables(op)
        out: dict[int, int] = {}
        for idx, val in vec.items():
            for stride, size, table, fill in tables:
                digit = idx // stride % size
                shifts = table[digit]
                if shifts is None:
                    shifts = table[digit] = fill(digit)
                for shift, v in shifts:
                    key = idx + shift
                    w = out.get(key, 0) + v * val
                    if w:
                        out[key] = w
                    else:
                        del out[key]
        return out


def tensor_rep(factors, powers=None) -> _Tensor:
    """The tensor product of MatrixReps or CurrentModules as one slot-wise
    operator; each factor supplies its own slot, S^k(factor) where powers
    gives k (by default 1 for every factor)."""
    return _Tensor([fct.slot() for fct in factors], powers or [1] * len(factors))


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
    g (x) C[t]/t^2-modules and the vector is killed by n+ (x) C[t]/t^2 and
    h (x) t, as the product of generators that pass _check_kr_relations is."""
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


def _moves_weights(tab, source, target, shift) -> bool:
    """Whether tab sends each basis weight w of source to w + shift of target."""
    return all(target[r] == tuple(map(add, source[c], shift)) for c, col in tab.items() for r in col)


def _generator_tables(rs: RootSystem, slot, what: str):
    """The tables of e_i, f_i of a slot keyed (kind, i) and the weight
    diagonals h_i; TheoremCheckError unless they move weights by +-alpha_i."""
    _, weights, cols = slot
    tabs = {}
    for kind, sign in (("e", 1), ("f", -1)):
        for i, alpha in enumerate(rs.cartan, start=1):
            tab = tabs[kind, i] = cols((kind, i))
            if not _moves_weights(tab, weights, weights, [sign * a for a in alpha]):
                raise TheoremCheckError(f"{kind}_{i} of {what} does not move weights by alpha_{i}")
    return tabs, [{c: {c: wt[i]} for c, wt in enumerate(weights) if wt[i]} for i in range(rs.rank)]


def _check_generators(rs: RootSystem, slot, what: str) -> None:
    """The premises intertwiner needs of a piece or the adjoint, as a slot:
    _generator_tables, then [e_j, f_i] = delta_ij h_i, one residue each."""
    tabs, diag = _generator_tables(rs, slot, what)
    row_tabs = {op: rows(tab) for op, tab in tabs.items()}
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            products = ((1, tabs["e", j], row_tabs["f", i]), (-1, tabs["f", i], row_tabs["e", j]))
            if any(residue(len(slot[1]), products, [(-1, diag[i - 1])] if i == j else ()).values()):
                raise TheoremCheckError(f"[e_{j}, f_{i}] of {what} is not delta h")


def intertwiner(rs: RootSystem, source: MatrixRep, target: MatrixRep, adj: MatrixRep) -> list[SpMat]:
    """The maps M_y = y (x) t from V_s = source to V_{s+1} = target, one per
    basis element y of g, that make y (x) v -> M_y v a g-map, normalized so
    that x_-beta (x) t sends top to top, beta the difference of the weights.

    Hom(V_s, V_{s+1}) is a g-module under x . X = N_x X - X N_x, as V_s and
    V_{s+1} are (see kr_tensor_submodule), so Hom_g(g (x) V_s, V_{s+1}) ~
    Hom_g(g, Hom(V_s, V_{s+1})) by phi -> (y -> M_y), the space of maximal
    vectors X = M_x_theta of weight theta.  Such an X != 0 generates a
    standard cyclic module (Humphreys, sections 20-21), irreducible by
    Weyl's theorem (section 6.3): a copy of g, with x_theta -> X.  Hence,
    with the premises on the factors checked by build_kr_fundamental first:
    - the top: Hom_g(g (x) V_s, V(lam)) is dual to (g (x) V_s)_lam modulo
      f_i (g (x) V_s)_{lam + alpha_i}, one nullspace over the columns
      x_b (x) v of weight lam, paired by weight, of dimension the character
      count, and 1; divided by its value on x_-beta (x) top, the transport
      scale, its values on the x_theta (x) v are the top of X;
    - below it, by increasing depth, X v is the unique x with e_i x = X e_i v
      for all i, read off an echelon of the stacked e_i of V_{s+1}, which
      are injective below the top only if V_{s+1} is simple, so a dependent
      insert raises, and so does an x that is not integral;
    - X != 0 and e_i . X = 0 for every i are checked, one residue each;
    - M_z = f_i . M_b / c along ChevalleyBasis.f_tree, [f_i, x_b] = c x_z,
      each division exact or raising, and M_-beta must send top to top.
    """
    cb = chevalley(rs)
    theta_wt, theta = adj.highest_weight, adj.highest_index
    lam, top, dim, sdim = target.highest_weight, target.highest_index, target.dim, source.dim
    hom = f"Hom(g (x) V{source.highest_weight}, V{lam})"
    rows_by_wt: dict[Weight, list[int]] = {}
    cols_by_wt: dict[Weight, list[int]] = {}
    for by_wt, rep in ((rows_by_wt, target), (cols_by_wt, source)):
        for k, wt in enumerate(rep.basis_weights):
            by_wt.setdefault(wt, []).append(k)
    if rows_by_wt.get(lam) != [top]:
        raise TheoremCheckError(f"weight {lam} of the target is not a highest line")

    def columns(nu: Weight) -> list[int]:
        # the x_b (x) v of weight nu, at index b * sdim + v of g (x) V_s
        pairs = ((b, tuple(map(sub, nu, wt))) for b, wt in enumerate(adj.basis_weights))
        return [b * sdim + c for b, mu in pairs for c in cols_by_wt.get(mu, ())]

    prod_space = tensor_rep([adj, source])
    above = [columns(tuple(map(add, lam, alpha))) for alpha in rs.cartan]
    eqs = [prod_space.apply(("f", i), {c: 1}) for i, cs in enumerate(above, start=1) for c in cs]
    sols = nullspace(eqs, columns(lam))
    count = charlib.hom_dim(rs, [theta_wt, source.highest_weight], lam)
    if len(sols) != count:
        raise TheoremCheckError(f"{hom} has dimension {len(sols)}, the character count is {count}")
    if count != 1:
        raise TheoremCheckError(f"{hom} has dimension {count}")
    # x_-beta (x) top of V_s has weight lam: its value is the transport
    # scale, divided out here, so that X and the replay come out normalized
    minus_beta = cb.minus_index(rs.int_root_coords(tuple(map(sub, source.highest_weight, lam))))
    scale = sols[0].get(minus_beta * sdim + source.highest_index, 0)
    if not scale:
        raise TheoremCheckError(f"{hom} does not transport the highest vector")
    sol = _quotient(sols[0], scale, f"the top of {hom} over its transport scale")
    X = SpMat(dim, sdim, {c % sdim: {top: v} for c, v in sol.items() if c // sdim == theta})

    # downward from lam, alone at depth 0, through the target weights and
    # those one simple root below them: elsewhere X v and all X e_i v are 0
    weights = {tuple(map(sub, mu, alpha)) for mu in rows_by_wt for alpha in rs.cartan}
    depth = {mu: rs.scaled_height(tuple(map(sub, lam, mu))) for mu in weights | rows_by_wt.keys()}
    for mu in sorted(depth.keys() - {lam}, key=lambda mu: (depth[mu], mu)):
        basis = rows_by_wt.get(mu, ())
        ech = Echelon()
        for r in basis:
            if ech.add(flatten({i: e.col(r) for i, e in enumerate(target.e)}, dim)) is None:
                raise TheoremCheckError(f"the e_i are not injective on weight {mu} of V({lam})")
        # the e_i whose images X can send to nonzero vectors
        live = [i for i, alpha in enumerate(rs.cartan) if tuple(map(add, mu, alpha)) in rows_by_wt]
        for c in cols_by_wt.get(tuple(map(sub, mu, theta_wt)), ()):
            rhs = {i * dim + z: v for i in live for z, v in X.apply(source.e[i].col(c)).items()}
            if not rhs:
                continue
            got = ech.coords(rhs)
            if got is None or got[1] != 1:
                raise TheoremCheckError(f"no int vector of weight {mu} in V({lam}) matches X e_i of column {c}")
            X.data[c] = {basis[k]: v for k, v in got[0].items()}

    if not any(any(col.values()) for col in X.data.values()):
        raise TheoremCheckError(f"the maximal vector of {hom} is zero")
    for i, (e0, e1) in enumerate(zip(source.e, target.e), start=1):
        if _bracket_quotient(e1, X, rows(e0.data), 1, f"e_{i} . X").data:
            raise TheoremCheckError(f"e_{i} does not kill the maximal vector of {hom}")
    maps = {theta: X}
    f_rows = [rows(f.data) for f in source.f]
    for z, i, b, c in cb.f_tree:
        maps[z] = _bracket_quotient(target.f[i - 1], maps[b], f_rows[i - 1], c, f"f_{i} . M_{b} on {hom}")

    if maps[minus_beta].col(source.highest_index) != {top: 1}:
        raise TheoremCheckError(f"{hom} does not transport the highest vector")
    return [maps[z] for z in range(cb.dim_g)]


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
                offs[s] + c: {offs[s + tpow] + r: v for r, v in col.items()}
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
    from each piece to the next given by intertwiner, whose premises
    _check_generators checks first, once per piece and once on the adjoint."""
    if rs.epsilon(rs.theta, i) != 2:
        raise ValueError(f"node {i} of {rs.type} is not a construction node")
    d = rs.dcheck[i - 1]
    chain = krset.enumerate_chain(rs, i).weights
    pieces = tuple(highest_module(rs, mu) for mu in chain)
    for s, piece in enumerate(pieces):
        _check_generators(rs, piece.slot(), f"piece {s}")
    adj = adjoint_rep(rs)
    _check_generators(rs, adj.slot(), "the adjoint")
    cb = chevalley(rs)
    g_action = tuple(tuple(cb.realize(p)) for p in pieces)
    t_action = [tuple(intertwiner(rs, pieces[s], pieces[s + 1], adj)) for s in range(len(chain) - 1)]
    return CurrentModule(rs, i, d, chain, pieces, g_action, tuple(t_action))


class RelationReport(
    namedtuple(
        "RelationReport",
        "label total_dim bracket_pairs mixed_pairs tsquare_pairs generator_checks"
        " cyclic_dim transport_steps",
    )
):
    """Counts of the identities established for one module: each bracket,
    mixed and t^2 pair counts whether verify_current_relations checked it
    directly or its lemma implies it."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.cyclic_dim == self.total_dim


def _check_tsquare(cm: CurrentModule, t_rows=None) -> int:
    """[x_a (x) t, x_b (x) t] = 0 on every piece, since x (x) t^2 acts as
    zero; returns the number of pairs established.

    Only the pairs of the generator a0 = generators[0] with every b are
    checked, in the order of b: once x (x) t is g-equivariant,
    {x : [x (x) t, y (x) t] = 0 for all y} is an ideal of g (bracket the
    identity with z (x) 1), it contains x_a0 != 0, and a nonzero ideal of
    the simple g is g."""
    cb = chevalley(cm.rs)
    D = cb.dim_g
    a = cb.generators[0]
    pairs = 0
    for s in range(cm.k - 1):
        lo = t_rows[s] if t_rows else [rows(m.data) for m in cm.t_action[s]]
        hi = [m.data for m in cm.t_action[s + 1]]
        for b in [b for b in range(D) if b != a]:
            if any(residue(cm.pieces[s + 2].dim, ((1, hi[a], lo[b]), (-1, hi[b], lo[a]))).values()):
                raise TheoremCheckError(f"[x_{a} (x) t, x_{b} (x) t] does not vanish on piece {s}")
        pairs += D * (D - 1) // 2
    return pairs


def _check_kr_relations(cm: CurrentModule) -> int:
    """The defining relations of KR(m omega_i) on the generator v, the top
    of piece 0: x+_a (x) 1, x+_a (x) t, h_j (x) t, x-_alpha_j (x) 1 for
    j != i, (x-_alpha_i)^(m+1) and x-_alpha_i (x) t kill v, and h_j v =
    m delta_ij v.  Each row applies one matrix to v a given number of times;
    on a module without x (x) t the t rows read a zero matrix.  Returns the
    number of rows checked."""
    rs, i, m = cm.rs, cm.node, cm.level
    cb = chevalley(rs)
    g = cm.g_action[0]
    t = cm.t_action[0] if cm.t_action else [SpMat(0, cm.pieces[0].dim)] * cb.dim_g
    top = cm.pieces[0].highest_index
    eigen = {top: m} if m else {}
    table = []
    for a in range(len(rs.positive_roots)):
        table.append((g[a], 1, {}, f"x+_{a} does not kill the generator"))
        table.append((t[a], 1, {}, f"x+_{a} (x) t does not kill the generator"))
    for j in range(1, rs.rank + 1):
        h = cb.h_index(j)
        table.append((g[h], 1, eigen if j == i else {}, f"h_{j} eigenvalue on the generator is wrong"))
        table.append((t[h], 1, {}, f"h_{j} (x) t does not kill the generator"))
    for j, rc in enumerate(cb.simple, start=1):
        a = cb.minus_index(rc)
        if j != i:
            table.append((g[a], 1, {}, f"x-_alpha_{j} does not kill the generator"))
        else:
            table.append((g[a], m + 1, {}, f"(x-_alpha_{i})^{m + 1} does not kill the generator"))
            table.append((t[a], 1, {}, f"x-_alpha_{i} (x) t does not kill the generator"))
    for mat, power, want, msg in table:
        vec = {top: 1}
        for _ in range(power):
            vec = mat.apply(vec)
        if vec != want:
            raise TheoremCheckError(msg)
    return len(table)


def verify_current_relations(cm: CurrentModule) -> RelationReport:
    """Exact matrix verification of the current-algebra structure and of the
    defining relations of KR(m omega_i) on the generator.

    With N = x and M = x (x) t as column tables and c_z the structure
    constants of a pair, the relations are [N_a, N_b] = sum c_z N_z and
    N^{s+1}_a M_b - M_b N^s_a = sum c_z M_z.  A presentation of each is
    checked, a bracket as one residue in the order of its pair (a, b); the
    report counts every pair, as the rest follow.
    Pieces: N_h_j is the weight diagonal h_j, e_j and f_i move weights by
    +-alpha, [e_j, f_i] = delta_ij h_i, and q N_alpha = [N_e_i, N_parent]
    for each ChevalleyBasis.recipe and sign.  So [h_i, e_j] = a_ij e_j with
    a_ij = alpha_j(h_i), and Serre's relations hold: in the finite-
    dimensional sl_2-module gl(V) under ad (e_i, h_i, f_i), U = (ad e_i)^(1
    - a_ij) e_j is killed by ad f_i, as [f_i, e_j] = 0, but has weight 2 -
    a_ij > 0, so U = 0.  By Serre's theorem (Humphreys, section 18.3) N on
    the generators extends to a representation rho of g, and N = rho by
    height, as the recipes hold in g (ChevalleyBasis checks them).
    Steps: X = M_x_theta moves weights by theta, e_i . X = 0, and c M_z =
    f_i . M_b along each edge of ChevalleyBasis.f_tree, x . Y = N^{s+1}_x Y
    - Y N^s_x.  So X is 0 or a maximal vector of weight theta in the
    g-module Hom(V_s, V_{s+1}), x_theta -> X extends to a g-map phi (the
    lemma of intertwiner), and phi(x_z) = f_i . phi(x_b) / c = M_z.
    """
    rs, cb = cm.rs, chevalley(cm.rs)
    D, h0, theta = cb.dim_g, cb.h_index(1), cb.plus_index(rs.theta)
    es, fs = ([idx(rc) for rc in cb.simple] for idx in (cb.plus_index, cb.minus_index))
    index = {(kind, i): a for kind, xs in (("e", es), ("f", fs)) for i, a in enumerate(xs, start=1)}
    pairs = sorted({(a, b) for a in es for b in fs} | {
        tuple(sorted((idx(cb.simple[i - 1]), idx(p))))
        for i, p, _ in cb.recipe.values() if p for idx in (cb.plus_index, cb.minus_index)
    })
    gvals = [[x.data for x in mats] for mats in cm.g_action]
    g_rows = [{a: rows(N[a]) for a in {a for pair in pairs for a in pair}} for N in gvals]
    for s, (N, R) in enumerate(zip(gvals, g_rows)):
        weights, n = cm.pieces[s].basis_weights, cm.pieces[s].dim
        _, diag = _generator_tables(rs, (None, weights, {op: N[a] for op, a in index.items()}.get), f"piece {s}")
        for j, h in enumerate(diag, start=1):
            if {k: v for k, v in flatten(N[h0 + j - 1], n).items() if v} != flatten(h, n):
                raise TheoremCheckError(f"h_{j} of piece {s} is not the weight diagonal")
        Z = N[:h0] + diag  # the right-hand sides, with h_i the weight diagonal
        for a, b in pairs:
            terms = [(-c, Z[z]) for z, c in cb.struct(a, b).items()]
            if any(residue(n, ((1, N[a], R[b]), (-1, N[b], R[a])), terms).values()):
                raise TheoremCheckError(f"[x_{a}, x_{b}] fails on piece {s}")

    steps = sorted([(a, theta) for a in es] + [(fs[i - 1], b) for _, i, b, _ in cb.f_tree])
    t_rows = [[rows(x.data) for x in mats] for mats in cm.t_action]
    for s, mats in enumerate(cm.t_action):
        M, N1, R0, MR = [x.data for x in mats], gvals[s + 1], g_rows[s], t_rows[s]
        target = cm.pieces[s + 1].basis_weights
        if not _moves_weights(M[theta], cm.pieces[s].basis_weights, target, rs.root_weight(rs.theta)):
            raise TheoremCheckError(f"x_{theta} (x) t does not move weights by theta on piece {s}")
        for a, b in steps:
            terms = [(-c, M[z]) for z, c in cb.struct(a, b).items()]
            if any(residue(len(target), ((1, N1[a], MR[b]), (-1, M[b], R0[a])), terms).values()):
                raise TheoremCheckError(f"[x_{a} (x) 1, x_{b} (x) t] fails on piece {s}")

    tsquare_pairs = _check_tsquare(cm, t_rows)
    checks = _check_kr_relations(cm)

    # cyclicity: the relations and generator checks above are the premises of
    # _current_lowering, so the f_i (x) 1 and f_i (x) t images of the
    # generator span the g[t]-submodule it generates
    blocks = _lowering_span(tensor_rep([cm]), cm.pieces[0].highest_index, _current_lowering(rs))
    cyclic_dim = sum(ech.dim for ech in blocks.values())
    if cyclic_dim != cm.total_dim:
        raise TheoremCheckError(f"generator spans {cyclic_dim} of {cm.total_dim} dimensions")

    # transport along the chain through the normalized intertwiners
    transport = 0
    for s in range(cm.k):
        beta = tuple(a - b for a, b in zip(cm.chain[s], cm.chain[s + 1]))
        a = cb.minus_index(rs.int_root_coords(beta))
        got = cm.t_action[s][a].apply(cm.pieces[s].highest_vector)
        if got != cm.pieces[s + 1].highest_vector:
            raise TheoremCheckError(f"transport fails at step {s}")
        transport += 1

    label = f"{rs.type.family}{rs.rank} node {cm.node} level {cm.level}"
    counts = (len(gvals) * D * (D - 1) // 2, cm.k * D * D, tsquare_pairs)
    return RelationReport(label, cm.total_dim, *counts, checks, cyclic_dim, transport)


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
    - [x (x) 1, y (x) t] = [x, y] (x) t on each factor: intertwiner
      replays x (x) t from a maximal vector of weight theta, whose orbit is
      a copy of g in Hom(V_s, V_{s+1}) once the pieces are g-modules;
    - [x (x) t, y (x) t] = 0 on each factor: _check_tsquare, here, checks
      the pairs with one generator, and by the previous premise the rest
      follow;
    - each factor's generator satisfies the KR relations: _check_kr_relations,
      here.  So v, the product of the generators, is killed by n+ (x) A and
      h (x) t, which act slot by slot.
    The product is then a g (x) A-module with x (x) t acting slot by slot.
    The m0 fundamental factors are spanned in S^m0(fund), not fund^(x)m0:
    x (x) t^p acts slot by slot, so it commutes with permuting the identical
    factors; the generator v_m1 (x) v^(x)m0 is symmetric, so its span lies in
    the symmetric tensors, which over Q are S^m0(fund), x (x) t^p acting on
    the monomials as a derivation; and the dimensions of the (grade, weight)
    blocks do not depend on the basis.  Only weights nu with nu - mu in Q+
    for a dominant mu <= m omega_i are kept: an f-word only lowers the
    weight, so every word that ends on a dominant weight passes through kept
    weights alone.  The span is a
    g-module, so its character is Weyl-invariant and the multiplicities of
    its dominant weights determine it; a grade whose character is not a
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
    powers: list[int] = []
    if m1:
        factors.append(evaluation_module(rs, i, m1))
        powers.append(1)
        _check_kr_relations(factors[0])
    if m0:
        if rs.epsilon(rs.theta, i) == 2:
            fund = build_kr_fundamental(rs, i)
        else:
            fund = evaluation_module(rs, i, d)
        _check_tsquare(fund)
        _check_kr_relations(fund)
        factors.append(fund)
        powers.append(m0)

    gt = tensor_rep(factors, powers)
    guard = charlib.dimension_guard()
    if gt.dim > guard:
        raise DimensionGuardError(f"tensor space dim {gt.dim} exceeds {guard}")
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
            chars.setdefault(g, {})[wt] = ech.dim
    out: dict[int, dict[Weight, int]] = {}
    for g, chi in sorted(chars.items()):
        try:
            out[g] = charlib.decompose_dominant(rs, chi)
        except ValueError as err:
            raise TheoremCheckError(f"grade {g} of the span: {err}") from err
    if out != target:
        raise TheoremCheckError(
            f"graded submodule decomposition {out} differs from the"
            f" combinatorial character {target}"
        )
    return out

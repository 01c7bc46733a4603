"""Exact matrix realization of the graded KR construction, over the integers.

The route: build the defining representation with integer matrices, generate a
Chevalley basis of g (integer structure constants) by iterated brackets of
the Chevalley generators, realize V(mu) on its Kostant lattice U_Z^- v+
inside a product of wedge powers of the defining representation, give x(x)t
from V_s to V_{s+1} as the g-orbit of one maximal vector X of weight theta
in Hom(V_s, V_{s+1}) (intertwiner), and assemble the graded module.  One
tensor engine, _Tensor, acts on every product, with wedge and symmetric
powers of a factor as slots.  Every matrix of a module is an int matrix:
each step that relies on Kostant's integrality theorem divides exactly or
raises TheoremCheckError.
A MatrixRep is its generators e_i, f_i and its basis weights, h_i being
the weight diagonal and basis vector 0 the top; a module stores its
pieces' generators and one X per step, and _t_maps replays any other
x_b (x) t from X along a tree of f-brackets where it is read.  g acts on
itself through ChevalleyBasis.slot, with no module of its own, by the
three lemmas of ChevalleyBasis (generation, independence, Jacobi).  Serre's premises are checked where
_from_generators makes a representation, hold for highest_module by its
lemma, and verify_current_relations checks them on each piece, each X,
and each piece's weights against its character, in the one product kernel
linalg.residue; every other relation follows, cyclicity from the
transport, and x (x) t^2 = 0 from the paper's two-step Hom count.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, namedtuple
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, count
from math import comb, prod
from operator import add, ge, sub
from types import MappingProxyType

from . import charlib, homcheck, krset
from .errors import DimensionGuardError, ScopeError, TheoremCheckError
from .linalg import Echelon, SpMat, flatten, lattice_basis, lattice_coords, nullspace, residue
from .rootsys import LieType, RootSystem, Weight, build


class MatrixRep(namedtuple("MatrixRep", "e f basis_weights")):
    """A g-module with exact matrices for the generators e_i and f_i.

    Basis vectors are always h-eigenvectors; their weights are recorded in
    fundamental coordinates, so h_i is the diagonal of the weights' i-th
    coordinates and is never stored.  Basis vector 0 is the highest weight
    vector of every module, as it is of every tensor_rep product, so
    basis_weights[0] is the highest weight.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis_weights)

    def gen(self, kind: str, i: int) -> SpMat:
        return (self.e if kind == "e" else self.f)[i - 1]

    def slot(self):
        """This module as a tensor_rep factor: operators ("e", i) and
        ("f", i), every basis vector in grade 0."""
        return [0] * self.dim, self.basis_weights, lambda op: self.gen(*op).data


def _quotient(vec: dict[int, object], q: int, what: str) -> dict[int, int]:
    """vec / q for an int vector whose every entry q divides; anything else
    raises TheoremCheckError naming `what`."""
    if any(type(v) is not int or v % q for v in vec.values()):
        raise TheoremCheckError(f"{what} is not an integer vector divisible by {q}")
    return {r: v // q for r, v in vec.items()}


def _bracket_quotient(a: SpMat, m: SpMat, b: SpMat, q: int, what: str, cols=None) -> SpMat:
    """(A M - M B) / q through residue, at the columns cols (all by default);
    an inexact quotient raises TheoremCheckError naming `what`."""
    out = SpMat(a.rows, m.cols)
    mc, bc = (t.data if cols is None else {c: t.data[c] for c in cols if c in t.data} for t in (m, b))
    res = residue(a.rows, ((1, a.data, mc), (-1, m.data, bc)))
    for key, v in _quotient(res, q, what).items():
        if v:
            c, r = divmod(key, a.rows)
            out.data.setdefault(c, {})[r] = v
    return out


def _from_generators(rs: RootSystem, ee, ff, what: str) -> MatrixRep:
    """The module `what` with generators e_j and f_j: the weights are read
    off the diagonals of the [e_j, f_j], and _check_generators checks the
    rest."""
    dim = ee[0].rows
    hh = [residue(dim, ((1, e.data, f.data), (-1, f.data, e.data))) for e, f in zip(ee, ff)]
    weights = tuple(tuple(h.get(r * dim + r, 0) for h in hh) for r in range(dim))
    rep = MatrixRep(tuple(ee), tuple(ff), weights)
    _check_generators(rs, rep.slot(), what)
    return rep


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
    rep = _from_generators(rs, ee, ff, "the defining representation")
    if rep.basis_weights[0] != rs.fundamental(1):
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

    Three lemmas settle the rest.  Generation: the e_j = x_alpha_j and
    f_j = x_-alpha_j generate the basis (Humphreys, section 14), as realize
    divides each recipe bracket exactly and [e_j, f_j] = h_j is checked on
    the defining representation.  Independence: each x_alpha is checked
    nonzero and the h_j independent; x_alpha moves the defining weights by
    alpha, so it is an ad h eigenvector of weight alpha, and the weights of
    distinct roots differ.  The adjoint: the def_mats are a faithful,
    bracket-closed basis rho(g) whose struct constants _bracket_coords
    checks as exact coordinates, so ad x = [x, .] is a representation by
    the Jacobi identity in gl(V); slot gives it, with no module of its own,
    and builds only the ad f_i columns that intertwiner applies.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        pos = rs.positive_roots
        pos_set = set(pos)
        self.simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        self.recipe: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, int]] = {}
        for rc in pos:
            if sum(rc) == 1:
                self.recipe[rc] = (rc.index(1) + 1, None, 1)
                continue
            for i in range(1, n + 1):
                chain = [tuple(c - k * s for c, s in zip(rc, self.simple[i - 1])) for k in range(1, 5)]
                if chain[0] in pos_set:
                    # the alpha_i-string through a root has at most 4 roots
                    q = next(k for k, below in enumerate(chain) if below not in pos_set)
                    self.recipe[rc] = (i, chain[0], q)
                    break
            else:
                raise TheoremCheckError(f"root {rc} has no simple-root predecessor")
        # the basis: x_alpha for the positive roots, x_-alpha, then h_1..h_n;
        # roots[a] is the root coordinates of the weight of basis element a
        self.roots = list(pos) + [tuple(-c for c in rc) for rc in pos] + [(0,) * n] * n
        self._h0 = 2 * len(pos)
        self._of_root = {rc: a for a, rc in enumerate(self.roots[: self._h0])}
        self.dim_g = len(self.roots)

        drep = defining_rep(rs)
        self.def_mats = self.realize(drep)
        for rc, m in zip(self.roots, self.def_mats[: self._h0]):
            if not m.data:
                raise TheoremCheckError(f"the root vector of {rc} is zero in the defining rep")
        self._h_ech = Echelon()
        for j, m in enumerate(self.def_mats[self._h0 :], start=1):
            if self._h_ech.add(flatten(m.data, drep.dim)) is None:
                raise TheoremCheckError(f"h_{j} is dependent in the defining rep")
        self._struct: list[Mapping[int, int] | None] = [None] * (self.dim_g * self.dim_g)
        self.root_weights = tuple(rs.root_weight(rc) for rc in self.roots)
        self._ad: dict[tuple[str, int], dict[int, Mapping[int, int]]] = {}
        self.generators = tuple(sorted(
            idx(rc) for idx in (self.plus_index, self.minus_index) for rc in self.simple
        ))

    @cached_property
    def f_tree(self) -> tuple[tuple[int, int, int, int], ...]:
        """Edges (z, i, b, c) with [f_i, x_b] = c x_z, parents first: a tree of
        f-brackets from x_theta, breadth first, that reaches the whole basis."""
        reached, edges = [self.plus_index(self.rs.theta)], []
        seen = set(reached)
        for b in reached:  # breadth first: the list grows as it is read
            for i, rc in enumerate(self.simple, start=1):
                terms = self.struct(self.minus_index(rc), b)
                z = next(iter(terms), None)
                if len(terms) == 1 and z not in seen:
                    seen.add(z)
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

    def slot(self):
        """g as a tensor_rep factor under the adjoint action: operators
        ("e", i) and ("f", i), every basis vector in grade 0 with its root
        weight, and column b of ad x_a the struct(a, b), each operator's
        columns built the first time it is asked for."""
        return [0] * self.dim_g, self.root_weights, self._ad_cols

    def _ad_cols(self, op) -> dict[int, Mapping[int, int]]:
        if op not in self._ad:
            kind, i = op
            a = (self.plus_index if kind == "e" else self.minus_index)(self.simple[i - 1])
            self._ad[op] = {b: col for b in range(self.dim_g) if (col := self.struct(a, b))}
        return self._ad[op]

    def realize(self, rep: MatrixRep) -> list[SpMat]:
        """Matrices of the whole basis inside rep, by replaying the recipes."""
        out: list[SpMat] = []
        for xs in (rep.e, rep.f):
            # the x_alpha from the e_i, then the x_-alpha from the f_i
            mats: dict[tuple[int, ...], SpMat] = {}
            for rc in self.rs.positive_roots:
                i, parent, q = self.recipe[rc]
                x, what = xs[i - 1], f"the recipe bracket of root {rc}"
                mats[rc] = x if parent is None else _bracket_quotient(x, mats[parent], x, q, what)
            out += mats.values()
        return out + [SpMat.from_diag([wt[j] for wt in rep.basis_weights]) for j in range(self.rs.rank)]

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
        if not (_composes(x, y) or _composes(y, x)):
            # residue would find nothing to multiply
            return {}
        products = ((1, x, y), (-1, y, x))
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


def _composes(left, right) -> bool:
    """Whether the product of column tables left and right has a term: some
    row of right is a column of left."""
    for col in right.values():
        for r in col:
            if r in left:
                return True
    return False


# the struct of every pair whose bracket vanishes
_NO_TERMS: Mapping[int, int] = MappingProxyType({})


@lru_cache(maxsize=None)
def _chevalley(lt: LieType) -> ChevalleyBasis:
    return ChevalleyBasis(build(lt))


def chevalley(rs: RootSystem) -> ChevalleyBasis:
    return _chevalley(rs.type)


def _derivation(col, stride: int, monos, ranks, exterior: bool):
    """The shifts of an operator with factor column table col on S^k or
    wedge^k, as a function of the monomial's rank c: the operator acts as a
    derivation, so over the distinct entries d of the monomial, one copy of
    d becomes each row r of column d, the value multiplied by the copies of
    d.  With to the index at which r sorts into the rest of the monomial,
    the image is that monomial; on wedge^k the term vanishes when r is
    already in the rest, and otherwise sorting r into place passes the
    |to - at| entries between d and r, each flipping the sign (Fulton-Harris,
    Lecture 6)."""

    def shifts(c: int) -> list:
        mono, out = monos[c], []
        for at, d in enumerate(mono):
            if d in col and not (at and mono[at - 1] == d):
                rest, copies = mono[:at] + mono[at + 1 :], mono.count(d)
                for r, v in col[d].items():
                    to = bisect(rest, r)
                    if exterior:
                        if to and rest[to - 1] == r:
                            continue
                        v = -v if (to - at) % 2 else v
                    out.append(((ranks[rest[:to] + (r,) + rest[to:]] - c) * stride, copies * v))
        return out

    return shifts


class _Tensor:
    """Operators on a tensor product of symmetric or exterior powers,
    applied slot by slot.

    A slot is (grades, weights, cols) for one factor, where cols(op) is the
    column table {c: {r: value}} of operator op on that factor, read-only;
    every slot has the same operators.  Slot t is S^k(factor), or wedge^k
    (factor) when exterior is set, k = powers[t]: k = 1 is the factor
    itself, a plain slot, and for k > 1 the basis is the monomials, the
    sorted k-tuples of factor indices (strictly increasing on wedge^k),
    ranked in lexicographic order, on which op acts as a derivation
    (_derivation).  On the product, op acts as the sum over the slots of op
    on that slot and the identity on the others, so grades and weights add
    over the entries of every slot.  Index digits are mixed-radix with the
    first slot most significant.  Only the factor tables are stored, never
    an operator on the product: an operator's shifts on a plain slot are
    built the first time it is applied, and on a power one monomial at a
    time, the first time it is met.
    """

    def __init__(self, slots, powers, exterior: bool = False):
        self.slots, self.powers, self.exterior = slots, powers, exterior
        # C(n, k) monomials on wedge^k, C(n + k - 1, k) on S^k
        sizes = [comb(len(g) + (not exterior) * (k - 1), k) for (g, _, _), k in zip(slots, powers)]
        self.dim = prod(sizes)
        self.layout = [(prod(sizes[t + 1 :]), size) for t, size in enumerate(sizes)]
        # op -> per slot (stride, size, [(index shift, value)] per column, fill),
        # a column of a power None until fill(column) builds it
        self.shifts: dict[object, list] = {}

    @cached_property
    def monomials(self) -> list:
        """Per power slot, k > 1, the monomials and their ranks; None on a
        plain slot."""
        power = combinations if self.exterior else combinations_with_replacement
        out = []
        for (grades, _, _), k in zip(self.slots, self.powers):
            if k == 1:
                out.append(None)
            else:
                monos = list(power(range(len(grades)), k))
                out.append((monos, dict(zip(monos, count()))))
        return out

    def _tables(self, op) -> list:
        tables = self.shifts.get(op)
        if tables is None:
            tables = self.shifts[op] = []
            for (stride, size), (_, _, cols), ranked in zip(self.layout, self.slots, self.monomials):
                col = cols(op)
                if ranked and col:
                    table, fill = [None] * size, _derivation(col, stride, *ranked, self.exterior)
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


def tensor_rep(factors, powers=None, exterior: bool = False) -> _Tensor:
    """The tensor product of MatrixReps, CurrentModules or a ChevalleyBasis
    (g under the adjoint action) as one slot-wise
    operator; each factor supplies its own slot, S^k(factor), or wedge^k
    (factor) when exterior is set, where powers gives k (by default 1 for
    every factor)."""
    return _Tensor([fct.slot() for fct in factors], powers or [1] * len(factors), exterior)


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
    return [(("f", i, tpow), tpow, alpha) for i, alpha in enumerate(rs.cartan, start=1) for tpow in (0, 1)]


def _ambient(rs: RootSystem, lam: Weight) -> _Tensor:
    """The product of wedge powers of the defining representation whose top
    vector has weight lam, one wedge^j per unit of the coefficient of
    omega_j; nothing is built until an operator is applied."""
    n = rs.rank
    fam = rs.type.family
    degrees: list[int] = []
    for j, c in enumerate(lam, start=1):
        if not c:
            continue
        if (fam == "B" and j == n and c % 2) or (fam == "D" and j >= n - 1):
            raise ScopeError(f"spin weight {lam} of {rs.type} is outside the matrix scope")
        # the B spin node enters through the wedge of degree n, 2 omega_n
        degrees += [j] * (c // 2 if fam == "B" and j == n else c)
    return tensor_rep([defining_rep(rs)] * len(degrees), degrees, exterior=True)


def highest_module(rs: RootSystem, lam: Weight) -> MatrixRep:
    """V(lam) on its Kostant lattice U_Z^- v+ inside _ambient, a product of
    wedge powers (Humphreys, sections 26-27).

    U_Z^- is generated by the divided powers f_i^(k) = f_i^k / k!, so the
    lattice L_mu of weight mu is the Z-span of f_i^(k) L_{mu + k alpha_i}
    over i and k >= 1.  The weights of V(lam) are visited by depth below
    lam; the basis of L_mu is the reduced echelon form of lattice_basis.
    e_i and f_i are read off as int coordinates over these bases, each f_i
    image computed once: the ambient lattice is admissible and U_Z v+ =
    U_Z^- v+, so a divided power that does not divide, or an image off the
    lattice, raises TheoremCheckError.

    An image is computed only toward a weight of mults, the Freudenthal
    character, and each f_i-string stops at its last weight there.  v+ is
    checked highest and the ambient is a finite-dimensional g-module, so
    U(g) v+ = U(n^-) v+ is standard cyclic, hence V(lam) (sections 20.2,
    21.2), whose weights are unbroken along every alpha_i-string (21.3):
    an image toward a weight that V(lam) lacks is 0.  The checks that stay
    confirm that mults is that character.  A lattice's rank is at most the
    multiplicity in V(lam) and must equal the listed one, and the ranks
    must add up to the Weyl dimension, so a dropped weight fails the
    dimension check and a spurious or raised one fails a rank check.

    The result meets Serre's premises with no check here: the defining
    representation's generators pass _check_generators where
    _from_generators makes them, so they extend to a representation of g
    (Serre's theorem, Humphreys 18.3), as do their derivations on the
    ambient; the lattice spans a U_Z-invariant subspace (sections 26-27),
    read checks every image computed against it, the others are 0 by the
    lemma above, and the ambient's generators restricted to an invariant
    subspace keep every relation, with h_i acting on each basis vector by
    its weight.
    """
    rs._check_weight(lam)
    if not rs.dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    target_dim = charlib.weyl_dim(rs, lam)
    guard = charlib.dimension_guard()
    if target_dim > guard:
        raise DimensionGuardError(f"dim V({lam}) = {target_dim} exceeds {guard}")
    amb = _ambient(rs, lam)
    if amb.dim > guard:
        raise DimensionGuardError(f"ambient dim {amb.dim} exceeds {guard}")
    # the top vector, index 0, is 0 ^ 1 ^ ... ^ (k - 1) in each wedge^k slot
    n = rs.rank
    tops = [w for (_, weights, _), k in zip(amb.slots, amb.powers) for w in weights[:k]]
    top = tuple(sum(w[t] for w in tops) for t in range(n))
    if top != lam:
        raise TheoremCheckError(f"the top ambient vector has weight {top}, expected {lam}")
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
        lat, start = lattices[wt]
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
                up, wt = tuple(map(add, mu, alpha)), tuple(map(sub, mu, alpha))
                if up in mults:
                    read(ee[i - 1], f"e_{i}", r, amb.apply(("e", i), vec), up)
                # f_i^(k) vec = f_i f_i^(k-1) vec / k, a generator k steps
                # below, down to the end of the alpha_i-string
                img, k = amb.apply(("f", i), vec) if wt in mults else None, 1
                if img:
                    f_images.setdefault(wt, []).append((i, r, img))
                while img:
                    gens.setdefault(wt, []).append(img)
                    wt, k = tuple(map(sub, wt, alpha)), k + 1
                    if wt not in mults:
                        break
                    img = _quotient(amb.apply(("f", i), img), k, f"f_{i}^({k}) of basis vector {r}")
        basis_wts += [mu] * len(lat)
    dim = len(basis_wts)
    if dim != target_dim:
        raise TheoremCheckError(f"V({lam}) has dim {dim}, Weyl dimension is {target_dim}")
    ee, ff = ([SpMat(dim, dim, m) for m in mats] for mats in (ee, ff))
    return MatrixRep(tuple(ee), tuple(ff), tuple(basis_wts))


def _moves_weights(tab, source, target, shift) -> bool:
    """Whether tab sends each basis weight w of source to w + shift of target."""
    return all(target[r] == tuple(map(add, source[c], shift)) for c, col in tab.items() for r in col)


def _check_generators(rs: RootSystem, slot, what: str) -> None:
    """Serre's premises on the generators of a slot: e_i and f_i move
    weights by +-alpha_i, and [e_j, f_i] = delta_ij h_i, one residue each,
    h_i the weight diagonal.  Run where a module is made from generators
    (_from_generators) and on every module verify_current_relations is
    handed."""
    _, weights, cols = slot
    tabs = {}
    for kind, sign in (("e", 1), ("f", -1)):
        for i, alpha in enumerate(rs.cartan, start=1):
            tab = tabs[kind, i] = cols((kind, i))
            if not _moves_weights(tab, weights, weights, [sign * a for a in alpha]):
                raise TheoremCheckError(f"{kind}_{i} of {what} does not move weights by alpha_{i}")
    for i in range(1, rs.rank + 1):
        diag = [(-1, {c: {c: wt[i - 1]} for c, wt in enumerate(weights) if wt[i - 1]})]
        for j in range(1, rs.rank + 1):
            products = ((1, tabs["e", j], tabs["f", i]), (-1, tabs["f", i], tabs["e", j]))
            if any(residue(len(weights), products, diag if i == j else ()).values()):
                raise TheoremCheckError(f"[e_{j}, f_{i}] of {what} is not delta h")


def _check_maximal(rs: RootSystem, X: SpMat, source: MatrixRep, target: MatrixRep, what: str) -> None:
    """X is maximal of weight theta in Hom(source, target): it moves weights
    by theta, X != 0, and e_i . X = 0 for every i, one residue each."""
    if not _moves_weights(X.data, source.basis_weights, target.basis_weights, rs.root_weight(rs.theta)):
        raise TheoremCheckError(f"{what} does not move weights by theta")
    if not any(any(col.values()) for col in X.data.values()):
        raise TheoremCheckError(f"{what} is zero")
    for i, (e0, e1) in enumerate(zip(source.e, target.e), start=1):
        if any(residue(target.dim, ((1, e1.data, X.data), (-1, X.data, e0.data))).values()):
            raise TheoremCheckError(f"e_{i} does not kill {what}")


def intertwiner(rs: RootSystem, source: MatrixRep, target: MatrixRep) -> SpMat:
    """The maximal vector X = x_theta (x) t of weight theta in Hom(V_s,
    V_{s+1}), V_s = source and V_{s+1} = target, normalized so that
    x_-beta (x) t sends top to top (basis vector 0: in V(lam) the one weight
    line with no weight lam + alpha_i), beta the difference of the weights.

    Hom_g(g (x) V_s, V_{s+1}) ~ Hom_g(g, Hom(V_s, V_{s+1})), the maximal
    vectors of weight theta (the lemma of _t_maps), with source and target
    g-modules (highest_module's lemma) and g acting on itself through
    ChevalleyBasis.slot (its adjoint lemma):
    - the top: Hom_g(g (x) V_s, V(lam)) is dual to (g (x) V_s)_lam modulo
      f_i (g (x) V_s)_{lam + alpha_i}, one nullspace over the columns
      x_b (x) v of weight lam, paired by weight, of dimension the character
      count, and 1; only the ad f_i act.  Divided by its value on
      x_-beta (x) top, the transport scale, its values on the x_theta (x) v
      are the top of X;
    - below it, by increasing depth, X v is the unique x with e_i x = X e_i v
      for all i, read off an echelon of the stacked e_i of V_{s+1}, which
      are injective below the top only if V_{s+1} is simple, so a dependent
      insert raises, and so does a missing x, or an x that is not integral
      (then the g-map normalized by the transport scale is not integral);
    - _check_maximal checks X, and verify_current_relations checks that
      x_-beta (x) t sends top to top.
    """
    cb = chevalley(rs)
    theta_wt, theta = rs.root_weight(rs.theta), cb.plus_index(rs.theta)
    mu0, lam, dim, sdim = source.basis_weights[0], target.basis_weights[0], target.dim, source.dim
    hom = f"Hom(g (x) V{mu0}, V{lam})"
    rows_by_wt: dict[Weight, list[int]] = {}
    cols_by_wt: dict[Weight, list[int]] = {}
    for by_wt, rep in ((rows_by_wt, target), (cols_by_wt, source)):
        for k, wt in enumerate(rep.basis_weights):
            by_wt.setdefault(wt, []).append(k)
    if rows_by_wt.get(lam) != [0] or any(tuple(map(add, lam, alpha)) in rows_by_wt for alpha in rs.cartan):
        raise TheoremCheckError(f"weight {lam} of the target is not a highest line")

    def columns(nu: Weight) -> list[int]:
        # the x_b (x) v of weight nu, at index b * sdim + v of g (x) V_s
        pairs = ((b, tuple(map(sub, nu, wt))) for b, wt in enumerate(cb.root_weights))
        return [b * sdim + c for b, mu in pairs for c in cols_by_wt.get(mu, ())]

    prod_space = tensor_rep([cb, source])
    above = [columns(tuple(map(add, lam, alpha))) for alpha in rs.cartan]
    eqs = [prod_space.apply(("f", i), {c: 1}) for i, cs in enumerate(above, start=1) for c in cs]
    sols = nullspace(eqs, columns(lam))
    count = charlib.hom_dim(rs, [theta_wt, mu0], lam)
    if len(sols) != count:
        raise TheoremCheckError(f"{hom} has dimension {len(sols)}, the character count is {count}")
    if count != 1:
        raise TheoremCheckError(f"{hom} has dimension {count}")
    # x_-beta (x) top of V_s has weight lam: its value is the transport
    # scale, divided out here, so that X comes out normalized
    minus_beta = cb.minus_index(rs.int_root_coords(tuple(map(sub, mu0, lam))))
    scale = sols[0].get(minus_beta * sdim, 0)
    if not scale:
        raise TheoremCheckError(f"{hom} does not transport the highest vector")
    sol = _quotient(sols[0], scale, f"the top of {hom} over its transport scale")
    X = SpMat(dim, sdim, {c % sdim: {0: v} for c, v in sol.items() if c // sdim == theta})

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
            if got is None:
                raise TheoremCheckError(f"no int vector of weight {mu} in V({lam}) matches X e_i of column {c}")
            if got[1] != 1:
                raise TheoremCheckError(
                    f"the maximal vector of {hom} over its transport scale is not integral"
                    f" at weight {mu}, column {c}"
                )
            X.data[c] = {basis[k]: v for k, v in got[0].items()}

    _check_maximal(rs, X, source, target, f"the maximal vector of {hom}")
    return X


class CurrentModule(namedtuple("CurrentModule", "rs node level pieces maximal")):
    """Graded module for g[t]: pieces V_0..V_k, x(x)1 block-diagonal, x(x)t
    mapping each piece to the next, everything else acting as zero.  x(x)1
    is the pieces' e and f alone (h_i is the weight diagonal, x_alpha acts
    as rho(x_alpha), see verify_current_relations); maximal[s] is x_theta (x) t
    on piece s, and _t_maps derives every other x_b (x) t from it."""

    __slots__ = ()

    @property
    def chain(self) -> tuple:
        """The pieces' highest weights mu_0..mu_k."""
        return tuple(p.basis_weights[0] for p in self.pieces)

    @property
    def g_action(self) -> tuple:
        """Each piece's e and f: derived, and read only by the benchmark
        tracer's count of stored entries."""
        return tuple(p.e + p.f for p in self.pieces)

    @property
    def t_action(self) -> tuple:
        """Each step's maximal vector, read only by the benchmark tracer."""
        return tuple((X,) for X in self.maximal)

    @property
    def k(self) -> int:
        return len(self.pieces) - 1

    @property
    def total_dim(self) -> int:
        return sum(p.dim for p in self.pieces)

    def offsets(self) -> list[int]:
        return [0, *accumulate(p.dim for p in self.pieces)]

    def slot(self):
        """This module as a tensor_rep factor: operator (kind, i, tpow) is
        e_i or f_i (x) t^tpow, kind "e" or "f", which raises the grade (the
        piece) by tpow."""
        cb = chevalley(self.rs)
        offs = self.offsets()
        grades = [s for s, p in enumerate(self.pieces) for _ in range(p.dim)]
        weights = [w for p in self.pieces for w in p.basis_weights]
        replayed = {}

        def cols(op):
            kind, i, tpow = op
            if tpow:
                idx = cb.plus_index if kind == "e" else cb.minus_index
                if kind not in replayed:
                    replayed[kind] = [_t_maps(self, s, [idx(rc) for rc in cb.simple]) for s in range(self.k)]
                mats = [maps[idx(cb.simple[i - 1])] for maps in replayed[kind]]
            else:
                mats = [p.gen(kind, i) for p in self.pieces]
            return {
                offs[s] + c: {offs[s + tpow] + r: v for r, v in col.items()}
                for s, m in enumerate(mats)
                for c, col in m.data.items()
            }

        return grades, weights, cols


def _t_maps(cm: CurrentModule, s: int, wanted, cols=None) -> dict[int, SpMat]:
    """x_b (x) t from piece s to piece s + 1 for each b in wanted, at least
    at the source columns cols (every column by default): X = cm.maximal[s]
    replayed along the edges of ChevalleyBasis.f_tree on the paths from
    x_theta to wanted, M_z = f_i . M_b / c where [f_i, x_b] = c x_z, each
    division exact or raising TheoremCheckError.  Columns C of f_i . M_b
    read M_b at C and at the rows of f_i on C, children before parents.

    The lemma: let the pieces be g-modules, so Hom(V_s, V_{s+1}) is one under
    x . Y = N^{s+1}_x Y - Y N^s_x, and let X pass _check_maximal.  Then X
    is a maximal vector of weight theta and generates a standard cyclic
    module (Humphreys, sections 20-21), irreducible by Weyl's theorem
    (section 6.3): a copy of g, so x_theta -> X extends to exactly one
    g-map phi.  As [f_i, x_b] = c x_z, phi(x_z) = f_i . phi(x_b) / c, so
    by induction along the tree every map replayed here is phi(x_b), and
    [x (x) 1, y (x) t] = [x, y] (x) t holds on them by definition."""
    cb = chevalley(cm.rs)
    source, target = cm.pieces[s], cm.pieces[s + 1]
    need = dict.fromkeys(wanted, cols)
    for z, i, b, _ in reversed(cb.f_tree):
        if z in need:
            cs, up = need[z], need.get(b, set())
            reads = None if cs is None else cs.union(*(source.f[i - 1].col(c) for c in cs))
            need[b] = None if reads is None or up is None else up | reads
    maps = {cb.plus_index(cm.rs.theta): cm.maximal[s]}
    for z, i, b, c in cb.f_tree:
        if z in need:
            f0, what = source.f[i - 1], f"f_{i} . M_{b} on step {s}"
            maps[z] = _bracket_quotient(target.f[i - 1], maps[b], f0, c, what, need[z])
    return {z: maps[z] for z in wanted}


def evaluation_module(rs: RootSystem, node: int, m: int) -> CurrentModule:
    """V(m omega_i) with t g[t] acting as zero."""
    lam = rs.fundamental(node, m) if m else rs.zero()
    return CurrentModule(rs, node, m, (highest_module(rs, lam),), ())


def build_kr_fundamental(rs: RootSystem, i: int) -> CurrentModule:
    """The graded module on the chain of node i at level dcheck_i, with the
    maximal vector of x(x)t from each piece to the next given by
    intertwiner.  Its premises hold without a check here: each piece is a
    g-module by the lemma of highest_module, and g acts on itself through
    its Chevalley basis, a representation by the adjoint lemma of
    ChevalleyBasis, so no adjoint module is built."""
    if rs.epsilon(rs.theta, i) != 2:
        raise ValueError(f"node {i} of {rs.type} is not a construction node")
    pieces = tuple(highest_module(rs, mu) for mu in krset.enumerate_chain(rs, i).weights)
    maximal = tuple(intertwiner(rs, *pieces[s : s + 2]) for s in range(len(pieces) - 1))
    return CurrentModule(rs, i, rs.dcheck[i - 1], pieces, maximal)


_REPORT = "label total_dim bracket_pairs mixed_pairs tsquare_pairs generator_checks cyclic_dim transport_steps"


class RelationReport(namedtuple("RelationReport", _REPORT)):
    """Counts of the identities established for one module: each bracket,
    mixed and t^2 pair counts whether verify_current_relations checked it
    directly or its lemma implies it, and cyclic_dim is the dimension of
    the submodule the generator spans, all of it once the pieces' characters
    and the transport are checked."""

    __slots__ = ()


def _check_tsquare(cm: CurrentModule, steps) -> None:
    """[x_a (x) t, x_b (x) t] = 0 from piece s to piece s + 2, for each s
    in steps, since x (x) t^2 acts as zero, the maps read through _t_maps.

    Only the pairs of the generator a0 = generators[0] with every b are
    computed, in the order of b: x (x) t is g-equivariant (the lemma of
    _t_maps), so {x : [x (x) t, y (x) t] = 0 for all y} is an ideal of g
    (bracket the identity with z (x) 1), it contains x_a0 != 0, and a
    nonzero ideal of the simple g is g.  verify_current_relations and
    kr_tensor_submodule check the steps that _tsquare_steps lists."""
    cb = chevalley(cm.rs)
    D = cb.dim_g
    a = cb.generators[0]
    for s in steps:
        lo, hi = ({b: m.data for b, m in _t_maps(cm, u, range(D)).items()} for u in (s, s + 1))
        for b in [b for b in range(D) if b != a]:
            if any(residue(cm.pieces[s + 2].dim, ((1, hi[a], lo[b]), (-1, hi[b], lo[a]))).values()):
                raise TheoremCheckError(f"[x_{a} (x) t, x_{b} (x) t] does not vanish on piece {s}")


def _tsquare_steps(cm: CurrentModule) -> list[int]:
    """The steps s with Hom_g(ext^2 g (x) V(mu_s), V(mu_{s+2})) != 0, the
    only ones where [x (x) t, y (x) t] can fail to vanish on V(mu_s).

    Let the pieces be g-modules with V_s ~ V(mu_s), and let the mixed
    relations hold, z . M_x = M_[z,x] for z . Y = N_z Y - Y N_z.  Then
    B(x, y) = M_x M_y - M_y M_x from V_s to V_{s+2} is a g-map
    ext^2 g -> Hom(V_s, V_{s+2}), by the Leibniz rule:
        z . (M_x M_y) = (z . M_x) M_y + M_x (z . M_y)
                      = M_[z,x] M_y + M_x M_[z,y],
    so z . B(x, y) = B([z, x], y) + B(x, [z, y]), the action of z on
    x ^ y.  Hence B lies in Hom_g(ext^2 g, Hom(V_s, V_{s+2})) ~
    Hom_g(ext^2 g (x) V(mu_s), V(mu_{s+2})), the paper's two-step Hom
    (homcheck.two_step_hom), and is 0 wherever that count is.  The mixed
    relations hold by the lemma of _t_maps.  A count whose ext^2 character
    is past the dimension guard is not read, and its step is listed."""
    rs, chain = cm.rs, cm.chain
    steps = []
    for s in range(cm.k - 1):
        try:
            count = homcheck.two_step_hom(rs, chain[s], chain[s + 2])
        except DimensionGuardError:
            count = None
        if count != 0:
            steps.append(s)
    return steps


def _check_kr_relations(cm: CurrentModule) -> int:
    """The defining relations of KR(m omega_i) on the generator v, the top
    of piece 0: x+_a (x) 1, x+_a (x) t, h_j (x) t, x-_alpha_j (x) 1 for
    j != i, (x-_alpha_i)^(m+1) and x-_alpha_i (x) t kill v, and h_j v =
    m delta_ij v.  v is basis vector 0, so h_j v is read off its weight;
    each other row applies a word of matrices to v, which must give 0, and
    the x+_a (x) 1 rows are checked on the e_j alone, as they generate n+.

    The rows in t hold by weight: x_b (x) t, replayed from X_0, which moves
    weights by theta (_check_maximal), moves them by the root of b, and
    piece 1 ~ V(mu_1) by its character, mu_1 = mu_0 - beta_0 with beta_0
    checked to be a positive root.  So x_b (x) t v, of weight mu_0 +
    root(b), is 0 for b positive or in h, and for b = -alpha_i unless
    beta_0 = alpha_i, the one row replayed; x (x) t is 0 on a module
    without steps.  Returns the rows established, by a check or by this
    lemma: 5 rank + 1, and x+_a (x) 1 and (x) t for each non-simple a."""
    rs, i, m = cm.rs, cm.node, cm.level
    cb = chevalley(rs)
    beta = rs.int_root_coords(tuple(map(sub, *cm.chain[:2]))) if cm.maximal else None
    if cm.maximal and beta not in rs.positive_roots:
        raise TheoremCheckError("step 0 of the chain does not lower by a positive root")
    lowers = beta == cb.simple[i - 1]
    piece = cm.pieces[0]
    for j, w in enumerate(piece.basis_weights[0], start=1):
        if w != m * (j == i):
            raise TheoremCheckError(f"h_{j} eigenvalue on the generator is wrong")
    table = []
    for j, rc in enumerate(cb.simple, start=1):
        table.append(((piece.e[j - 1],), f"x+_{cb.plus_index(rc)} does not kill the generator"))
        if j != i:
            table.append(((piece.f[j - 1],), f"x-_alpha_{j} does not kill the generator"))
        else:
            table.append(((piece.f[j - 1],) * (m + 1), f"(x-_alpha_{i})^{m + 1} does not kill the generator"))
    if lowers:
        b = cb.minus_index(cb.simple[i - 1])
        table.append(((_t_maps(cm, 0, [b], {0})[b],), f"x-_alpha_{i} (x) t does not kill the generator"))
    for word, msg in table:
        vec = {0: 1}
        for mat in word:
            vec = mat.apply(vec)
        if vec:
            raise TheoremCheckError(msg)
    # h_j; by the lemmas: e_j and h_j (x) t, x-_alpha_i (x) t unless replayed, x+_a (x) 1 and (x) t, a not simple
    return len(table) + 3 * rs.rank + (not lowers) + 2 * (len(rs.positive_roots) - rs.rank)


def verify_current_relations(cm: CurrentModule) -> RelationReport:
    """Exact matrix verification of the current-algebra structure and of the
    defining relations of KR(m omega_i) on the generator.

    With N = x and M = x (x) t as column tables and c_z the structure
    constants of a pair, the relations are [N_a, N_b] = sum c_z N_z and
    N^{s+1}_a M_b - M_b N^s_a = sum c_z M_z.  A presentation of the first
    is checked, a bracket as one residue, and the second holds by a lemma;
    the report counts every pair, as the rest follow.
    Pieces: _check_generators, so e_j and f_i move weights by +-alpha and
    [e_j, f_i] = delta_ij h_i, h_i the weight diagonal.  So [h_i, e_j] =
    a_ij e_j with a_ij = alpha_j(h_i), and
    Serre's relations hold: in the finite-dimensional sl_2-module gl(V)
    under ad (e_i, h_i, f_i), U = (ad e_i)^(1 - a_ij) e_j is killed by
    ad f_i, as [f_i, e_j] = 0, but has weight 2 - a_ij > 0, so U = 0.  By
    Serre's theorem (Humphreys, section 18.3) the generators extend to a
    representation rho of g, and N_a is defined as rho(x_a).  The basis
    weights of piece s have the multiplicities of V(mu_s), mu_s = chain[s]
    the weight of its basis vector 0, so piece s ~ V(mu_s), vector 0 its top
    line: it is a sum of simples (Weyl's theorem, section 6.3), and a
    character determines that sum (sections 20-22).
    Steps: _check_maximal on each X_s = cm.maximal[s]; then every x_b (x) t
    that _t_maps replays from X_s is a value of one g-map (its lemma), so
    the mixed relations hold by definition, and no map is compared.
    t^2: by the lemma of _tsquare_steps, _check_tsquare runs only on the
    steps whose two-step Hom count is nonzero.
    Cyclicity: the transport checks x_-beta (x) t top_s = top_{s+1}.  The
    top of V_0 is the generator v, and U(g) top_s = V_s as V_s is simple,
    so by induction the submodule that v generates contains every piece
    and cyclic_dim = total_dim.
    """
    rs, cb = cm.rs, chevalley(cm.rs)
    D, theta = cb.dim_g, cb.plus_index(rs.theta)
    for s, (piece, mu) in enumerate(zip(cm.pieces, cm.chain)):
        _check_generators(rs, piece.slot(), f"piece {s}")
        if not rs.dominant(mu) or Counter(piece.basis_weights) != charlib.weight_mults(rs, mu):
            raise TheoremCheckError(f"the weights of piece {s} are not the character of V({mu})")

    for s, (X, source, target) in enumerate(zip(cm.maximal, cm.pieces[:-1], cm.pieces[1:], strict=True)):
        _check_maximal(rs, X, source, target, f"x_{theta} (x) t on piece {s}")

    _check_tsquare(cm, _tsquare_steps(cm))
    checks = _check_kr_relations(cm)

    # transport along the chain through the normalized intertwiners: with
    # the pieces simple, the generator spans the module
    for s in range(cm.k):
        a = cb.minus_index(rs.int_root_coords(tuple(map(sub, *cm.chain[s : s + 2]))))
        if _t_maps(cm, s, [a], {0})[a].apply({0: 1}) != {0: 1}:
            raise TheoremCheckError(f"transport fails at step {s}")

    label = f"{rs.type.family}{rs.rank} node {cm.node} level {cm.level}"
    counts = (len(cm.pieces) * D * (D - 1) // 2, cm.k * D * D, max(cm.k - 1, 0) * D * (D - 1) // 2)
    return RelationReport(label, cm.total_dim, *counts, checks, cm.total_dim, cm.k)


def kr_tensor_submodule(rs: RootSystem, i: int, m: int) -> dict[int, dict[Weight, int]]:
    """Cyclic submodule generated by the top vector v of the tensor product of
    fundamental graded modules; returns grade -> decomposition and checks it
    against the combinatorial graded character.

    The span is computed under f_i (x) 1 and f_i (x) t alone.  With A the
    algebra C[t]/t^2, PBW (Humphreys 17.3) gives
    U(g (x) A) = U(n- (x) A) U(h (x) A) U(n+ (x) A), so the g[t]-span of v is
    U(n- (x) A) v, which those 2 rank operators generate, provided:
    - each factor is a g-module: highest_module makes every piece, of a
      fundamental or an evaluation module, and its lemma gives the piece's
      generators Serre's premises, so N_alpha is defined as rho(x_alpha),
      rho the representation they extend to;
    - [x (x) 1, y (x) t] = [x, y] (x) t on each factor, by the lemma of
      _t_maps, as intertwiner checks each maximal vector it makes;
    - [x (x) t, y (x) t] = 0 on each factor: _check_tsquare, here, on the
      steps that _tsquare_steps lists, by its lemma;
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
    weights alone.  The span is a g-module, so its character is
    Weyl-invariant and the multiplicities of its dominant weights determine
    it; a grade whose character is not a sum of simple characters, or a
    decomposition other than the combinatorial one, raises
    TheoremCheckError.
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
        _check_tsquare(fund, _tsquare_steps(fund))
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

"""Exact matrix realization of the graded KR construction.

The route: build the defining representation with integer matrices, generate a
basis of g by iterated brackets of the Chevalley generators, realize V(mu) as
the cyclic span of a highest vector inside tensor products of wedge powers,
solve the intertwiner g (x) V_s -> V_{s+1} one weight space of V_{s+1} at a
time (a nullspace for the top weight, then a downward sweep through the e_i,
checked against the f_i and the character count of the Hom space), and
assemble the graded module with x(x)t acting through the normalized
intertwiners.  verify_current_relations checks every relation pair by pair
over integer column tables (linalg.residue).
Everything is exact and deterministic; every integral entry is stored as an int.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import add, ge, sub
from types import MappingProxyType

from . import charlib, krset
from .errors import DimensionGuardError, ScopeError, TheoremCheckError
from .linalg import Echelon, SpMat, flatten, integral, integral_family, nullspace, residue
from .rootsys import LieType, RootSystem, Weight, build


@dataclass(frozen=True)
class MatrixRep:
    """A g-module with exact matrices for the Chevalley generators.

    Basis vectors are always h-eigenvectors; their weights are recorded in
    fundamental coordinates.  The h matrices are diagonal with those weights.
    """

    rs: RootSystem
    dim: int
    e: tuple[SpMat, ...]
    f: tuple[SpMat, ...]
    h: tuple[SpMat, ...]
    basis_weights: tuple[Weight, ...]
    highest_index: int
    highest_weight: Weight

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


def _from_generators(rs: RootSystem, ee, ff, top: int = 0) -> MatrixRep:
    """The module with generators e_j, f_j and h_j = [e_j, f_j], whose basis
    vector `top` is the highest; the weights come from the diagonal of h."""
    dim = ee[0].rows
    hh = tuple(e.bracket(f).demote() for e, f in zip(ee, ff))
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
    """A basis of g built from the generators by iterated brackets.

    Each positive root alpha of height > 1 stores a recipe (i, parent) with
    x_alpha = [e_i, x_parent]; replaying the recipes inside any representation
    realizes the whole basis there.  Structure constants are read off the
    defining representation one weight at a time: [x_a, x_b] has the weight
    gamma of the pair, so it is c x_gamma when gamma is a root, lies in the
    span of the h_j when gamma = 0, and vanishes otherwise.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        pos = rs.positive_roots
        pos_set = set(pos)
        self.recipe: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None]] = {}
        for rc in pos:
            if sum(rc) == 1:
                self.recipe[rc] = (rc.index(1) + 1, None)
                continue
            for i in range(1, n + 1):
                parent = tuple(c - (1 if j == i - 1 else 0) for j, c in enumerate(rc))
                if parent in pos_set:
                    self.recipe[rc] = (i, parent)
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
        ech = Echelon()
        for m in self.def_mats:
            if ech.add(m.to_flat_vec()) is None:
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
            i, parent = self.recipe[rc]
            if parent is None:
                plus[rc] = rep.e[i - 1]
                minus[rc] = rep.f[i - 1]
            else:
                plus[rc] = rep.e[i - 1].bracket(plus[parent]).demote()
                minus[rc] = rep.f[i - 1].bracket(minus[parent]).demote()
        out = [plus[rc] for rc in self.rs.positive_roots]
        out += [minus[rc] for rc in self.rs.positive_roots]
        out += list(rep.h)
        return out

    def struct(self, a: int, b: int) -> Mapping[int, object]:
        """[basis_a, basis_b] expressed in the basis; a coefficient is an int
        unless it is non-integral.  Do not mutate the result."""
        key = a * self.dim_g + b
        out = self._struct[key]
        if out is None:
            out = self._struct[key] = self._bracket_coords(a, b) or _NO_TERMS
        return out

    def _bracket_coords(self, a: int, b: int) -> dict[int, object]:
        n = self.def_mats[a].rows
        x, y = self.def_mats[a].data, self.def_mats[b].data
        br = {key: v for key, v in residue(n, ((1, x, y), (-1, y, x))).items() if v}
        gamma = tuple(map(add, self.roots[a], self.roots[b]))
        z = self._of_root.get(gamma)
        if z is not None:
            # the weight space of a root is the line of x_gamma
            xz = flatten(self.def_mats[z].data, n)
            key0 = next(iter(xz))
            c = Fraction(br.get(key0, 0), xz[key0])
            c = c.numerator if c.denominator == 1 else c
            if br == {key: c * v for key, v in xz.items() if c}:
                return {z: c} if c else {}
        elif not any(gamma):
            coords = self._h_ech.coords(br)
            if coords is not None:
                return {self._h0 + k: v for k, v in coords.items()}
        elif not br:
            return {}
        raise TheoremCheckError("bracket left the span of the g-basis")


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
            for t, src in enumerate(subset):
                col = gmat.col(src)
                for r, v in col.items():
                    if r in inside and r != src:
                        continue
                    new = list(subset)
                    new[t] = r
                    sign = 1
                    # bubble the replaced slot into sorted position
                    k = t
                    while k > 0 and new[k] < new[k - 1]:
                        new[k], new[k - 1] = new[k - 1], new[k]
                        sign = -sign
                        k += -1
                    while k < j - 1 and new[k] > new[k + 1]:
                        new[k], new[k + 1] = new[k + 1], new[k]
                        sign = -sign
                        k += 1
                    out.add_to(pos[tuple(new)], a, sign * v)
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
    `ops`, found depth first; returns (vectors, blocks).

    ops lists (op, grade step, root): op maps the block (grade, weight) into
    (grade + grade step, weight - root), roots in fundamental coordinates.
    vectors are the accepted vectors in the order found, and blocks maps
    each (grade, weight) to its Echelon and the positions in vectors of its
    members.  Past the start, a block whose weight fails `keep` is never
    entered, nor is anything reached through it.
    """
    vectors: list[dict[int, object]] = []
    keys: list[tuple[int, Weight]] = []
    blocks: dict[tuple[int, Weight], tuple[Echelon, list[int]]] = {}

    def insert(vec: dict[int, object], key: tuple[int, Weight]) -> bool:
        ech, members = blocks.setdefault(key, (Echelon(), []))
        if ech.add(vec) is None:
            return False
        members.append(len(vectors))
        vectors.append(vec)
        keys.append(key)
        return True

    insert({start: 1}, space.grade_weight(start))
    queue = [0]
    while queue:
        r = queue.pop()
        grade, wt = keys[r]
        for op, dg, root in ops:
            img = space.apply(op, vectors[r])
            if not img:
                continue
            nwt = tuple(map(sub, wt, root))
            if keep(nwt) and insert(img, (grade + dg, nwt)):
                queue.append(len(vectors) - 1)
    return vectors, blocks


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
    for j in range(1, n + 1):
        c = lam[j - 1]
        if c == 0:
            continue
        if fam == "B" and j == n:
            if c % 2:
                raise ScopeError(
                    f"spin weight {lam} of {rs.type} is outside the matrix scope"
                )
            factors.extend(wedge_rep(rs, n) for _ in range(c // 2))
            continue
        if fam == "D" and j >= n - 1:
            raise ScopeError(
                f"spin weight {lam} of {rs.type} is outside the matrix scope"
            )
        factors.extend(wedge_rep(rs, j) for _ in range(c))
    return factors


def highest_module(rs: RootSystem, lam: Weight) -> MatrixRep:
    """V(lam) as the cyclic span of the top vector in a product of wedges."""
    rs._check_weight(lam)
    if not rs.dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    target_dim = charlib.weyl_dim(rs, lam)
    guard = charlib.dimension_guard()
    if target_dim > guard:
        raise DimensionGuardError(f"dim V({lam}) = {target_dim} exceeds {guard}")
    n = rs.rank
    if all(c == 0 for c in lam):
        z = SpMat(1, 1)
        return MatrixRep(rs, 1, (z,) * n, (z,) * n, (z,) * n, (rs.zero(),), 0, lam)
    amb = tensor_rep(_scope_factors(rs, lam))
    if amb.dim > guard:
        raise DimensionGuardError(f"ambient dim {amb.dim} exceeds {guard}")

    v0 = {0: 1}
    for i in range(1, n + 1):
        if amb.apply(("e", i), v0):
            raise TheoremCheckError("top vector is not highest in the ambient space")

    vecs, blocks = _lowering_span(amb, 0, [(("f", i), 0, a) for i, a in enumerate(rs.cartan, 1)])
    dim = len(vecs)
    if dim != target_dim:
        raise TheoremCheckError(
            f"cyclic span of V({lam}) has dim {dim}, Weyl dimension is {target_dim}"
        )

    ee = [SpMat(dim, dim) for _ in range(n)]
    ff = [SpMat(dim, dim) for _ in range(n)]
    basis_wts: list[Weight] = [()] * dim
    for (_, wt), (_, members) in blocks.items():
        # (operator, its matrix, the block it maps this one into)
        moves = []
        for i, alpha in enumerate(rs.cartan, start=1):
            moves.append((("e", i), ee[i - 1], blocks.get((0, tuple(map(add, wt, alpha))))))
            moves.append((("f", i), ff[i - 1], blocks.get((0, tuple(map(sub, wt, alpha))))))
        for r in members:
            basis_wts[r] = wt
            for op, mat, entry in moves:
                img = amb.apply(op, vecs[r])
                if not img:
                    continue
                local = entry[0].coords(img) if entry else None
                if local is None:
                    raise TheoremCheckError("span is not stable under the generators")
                for k, v in local.items():
                    mat.set(entry[1][k], r, v)
    hh = [SpMat.from_diag([basis_wts[r][i] for r in range(dim)]) for i in range(n)]
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
                raise TheoremCheckError(
                    f"the e_i are not injective on weight {mu} of V({lam})"
                )
        live = [i for i in range(1, n + 1) if shift(mu, i, 1) in rows_by_wt]
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
            if shift(nu, i, 1) not in rows_by_wt:
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
            if nu not in rows_by_wt and shift(nu, i, -1) not in rows_by_wt:
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


@dataclass(frozen=True)
class CurrentModule:
    """Graded module for g[t]: pieces V_0..V_k, x(x)1 block-diagonal, x(x)t
    mapping each piece to the next, everything else acting as zero."""

    rs: RootSystem
    node: int
    level: int
    chain: tuple[Weight, ...]
    pieces: tuple[MatrixRep, ...]
    g_action: tuple[tuple[SpMat, ...], ...]
    t_action: tuple[tuple[SpMat, ...], ...]

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
        T = T.scale(Fraction(1, scale)).demote()
        dim = pieces[s].dim
        mats = [SpMat(pieces[s + 1].dim, dim) for _ in range(cb.dim_g)]
        for c in sorted(T.data):
            mats[c // dim].data[c % dim] = T.data[c]
        t_action.append(tuple(mats))
    return CurrentModule(rs, i, d, chain, pieces, g_action, tuple(t_action))


@dataclass(frozen=True)
class RelationReport:
    """Counts of verified identities for one module."""

    label: str
    total_dim: int
    bracket_pairs: int
    mixed_pairs: int
    tsquare_pairs: int
    generator_checks: int
    cyclic_dim: int
    transport_steps: int

    @property
    def ok(self) -> bool:
        return self.cyclic_dim == self.total_dim


def _check_tsquare(cm: CurrentModule) -> int:
    """[x_a (x) t, x_b (x) t] = 0 on every piece, since x (x) t^2 acts as
    zero; returns the number of pairs checked.  With M = e_s t over
    integers, each pair checks M^{s+1}_a M^s_b = M^{s+1}_b M^s_a."""
    D = len(cm.g_action[0])
    tvals = [integral_family(mats)[0] for mats in cm.t_action]
    pairs = 0
    for s in range(cm.k - 1):
        lo, hi = tvals[s], tvals[s + 1]
        for a in range(D):
            for b in range(a + 1, D):
                res = residue(cm.pieces[s + 2].dim, ((1, hi[a], lo[b]), (-1, hi[b], lo[a])))
                if any(res.values()):
                    raise TheoremCheckError(
                        f"[x_{a} (x) t, x_{b} (x) t] does not vanish on piece {s}"
                    )
                pairs += 1
        tvals[s] = None
    return pairs


def verify_current_relations(cm: CurrentModule, i: int | None = None, m: int | None = None) -> RelationReport:
    """Exact matrix verification of the current-algebra structure and of the
    defining relations of KR(m omega_i) on the generator.

    With N = d_s x and M = e_s t integral (d_s, e_s least common
    denominators) and L clearing the structure constants c_z of a pair, it
    checks L [N_a, N_b] = L d_s sum c_z N_z and
    L (d_s N^{s+1}_a M_b - d_{s+1} M_b N^s_a) = L d_s d_{s+1} sum c_z M_z:
    the rational identities times nonzero integers.
    """
    rs = cm.rs
    cb = chevalley(rs)
    if i is None:
        i = cm.node
    if m is None:
        m = cm.level
    D = cb.dim_g
    k = cm.k
    dims = [p.dim for p in cm.pieces]

    gvals = [integral_family(mats) for mats in cm.g_action]
    bracket_pairs = 0
    for s in range(k + 1):
        N, d = gvals[s]
        for a in range(D):
            for b in range(a + 1, D):
                coeffs, L = integral(cb.struct(a, b))
                res = residue(
                    dims[s],
                    ((L, N[a], N[b]), (-L, N[b], N[a])),
                    [(-d * c, N[z]) for z, c in coeffs.items()],
                )
                if any(res.values()):
                    raise TheoremCheckError(
                        f"[x_{a}, x_{b}] fails on piece {s}"
                    )
                bracket_pairs += 1

    tvals = [integral_family(mats)[0] for mats in cm.t_action]
    mixed_pairs = 0
    for s in range(k):
        (N0, d0), (N1, d1), M = gvals[s], gvals[s + 1], tvals[s]
        for a in range(D):
            for b in range(D):
                coeffs, L = integral(cb.struct(a, b))
                res = residue(
                    dims[s + 1],
                    ((L * d0, N1[a], M[b]), (-L * d1, M[b], N0[a])),
                    [(-d0 * d1 * c, M[z]) for z, c in coeffs.items()],
                )
                if any(res.values()):
                    raise TheoremCheckError(
                        f"[x_{a} (x) 1, x_{b} (x) t] fails on piece {s}"
                    )
                mixed_pairs += 1
        gvals[s] = tvals[s] = None
    del gvals, tvals

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
                raise TheoremCheckError(
                    f"(x-_alpha_{i})^{m + 1} does not kill the generator"
                )
            checks += 1
            if k > 0 and cm.t_action[0][a].apply(v0):
                raise TheoremCheckError(
                    f"x-_alpha_{i} (x) t does not kill the generator"
                )
            checks += 1

    # cyclicity: the relations and generator checks above are the premises of
    # _current_lowering, so the f_i (x) 1 and f_i (x) t images of the
    # generator span the g[t]-submodule it generates
    vecs, _ = _lowering_span(
        tensor_rep([cm]), cm.pieces[0].highest_index, _current_lowering(rs)
    )
    cyclic_dim = len(vecs)
    if cyclic_dim != cm.total_dim:
        raise TheoremCheckError(
            f"generator spans {cyclic_dim} of {cm.total_dim} dimensions"
        )

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
        label,
        cm.total_dim,
        bracket_pairs,
        mixed_pairs,
        tsquare_pairs,
        checks,
        cyclic_dim,
        transport,
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

    _, blocks = _lowering_span(gt, 0, _current_lowering(rs), above_dominant)
    chars: dict[int, dict[Weight, int]] = {}
    for (g, wt), (ech, _) in blocks.items():
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

"""Characters of finite-dimensional simple modules, exactly.

Two independent routes are kept side by side on purpose: multiplicities come
from the Freudenthal recursion, tensor products from the Klimyk reflection
count, and decompose_character re-derives decompositions by stripping highest
weights off a raw weight character.  The routes cross-check each other and
none of them is ever collapsed into the other.

Everything is integer arithmetic; weights are fundamental-coordinate tuples.
Weyl dimensions and Freudenthal read each positive root's weight and parent
from the root tables of RootSystem instead of redoing root arithmetic.

Products are computed once per process: Weyl dimensions keyed (type,
weight), Freudenthal multiplicities and full characters keyed (type,
highest weight), and Klimyk products keyed (type, lam, mu) after
tensor_decompose has swapped the smaller factor into mu.  The cached maps
are read-only, and the public functions hand out fresh dicts.  No cached
function reads the dimension guard or checks dominance: the public
functions do both on every call, before they read a cached product, so a
lowered KR_MAX_DIM takes effect at once.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import prod
from operator import add, mul, sub
from types import MappingProxyType

from .errors import DimensionGuardError, TheoremCheckError
from .rootsys import LieType, RootSystem, Weight, build

WeightCharacter = dict[Weight, int]
DominantCharacter = dict[Weight, int]

DEFAULT_MAX_DIM = 100_000


def dimension_guard() -> int:
    """The guard value: KR_MAX_DIM if set, else DEFAULT_MAX_DIM.

    KR_MAX_DIM must be a positive integer; any other value raises ValueError.
    This is the only reader of the variable.
    """
    env = os.environ.get("KR_MAX_DIM")
    if not env:
        return DEFAULT_MAX_DIM
    # int() would also take " 50", "+50", "1_000" and non-ASCII digits
    if not (env.isascii() and env.isdigit()) or int(env) == 0:
        raise ValueError(f"KR_MAX_DIM must be a positive integer, got {env!r}")
    return int(env)


def _require_dominant(rs: RootSystem, lam: Weight, what: str = "weight") -> None:
    if not rs.dominant(lam):
        raise ValueError(f"{what} {lam} is not dominant")


def _rho_pairings(rs: RootSystem, lam: Weight) -> int:
    """The product of 2(lam + rho, alpha) over the positive roots alpha: with
    p_j = (2 // dcheck_j) * (lam_j + 1) the term of a root is that of its
    parent plus p_i.  A simple root reads terms[-1], still 0: theta comes last."""
    p = [(2 // d) * (c + 1) for d, c in zip(rs.dcheck, lam)]
    terms = [0] * len(rs.root_parents)
    for k, (up, i) in enumerate(rs.root_parents):
        terms[k] = terms[up] + p[i]
    return prod(terms)


@lru_cache(maxsize=None)
def _weyl_den(lt: LieType) -> tuple[RootSystem, int]:
    """The root system and Weyl's denominator, the product of 2(rho, alpha)."""
    rs = build(lt)
    return rs, _rho_pairings(rs, rs.zero())


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the simple module with highest weight lam."""
    _require_dominant(rs, lam)
    return _weyl_dim(rs.type, lam)


@lru_cache(maxsize=None)
def _weyl_dim(lt: LieType, lam: Weight) -> int:
    rs, den = _weyl_den(lt)
    num = _rho_pairings(rs, lam)
    if num % den:
        raise TheoremCheckError(f"Weyl dimension of {lam} is {num}/{den}, not an integer")
    return num // den


@lru_cache(maxsize=None)
def _dominant_below(lt: LieType, lam: Weight) -> tuple[Weight, ...]:
    """All dominant weights mu with lam - mu in the positive root lattice.

    The coefficient of alpha_i in lam - mu is bounded by the coefficient of
    alpha_i in lam itself because inv(cartan^T) has non-negative entries, so
    a finite box of coefficient vectors suffices.  A branch is pruned once a
    coordinate no later node moves is negative; the order is the full box's.
    """
    rs = build(lt)
    n, c = rs.rank, rs.cartan
    bounds = [x // rs.root_den for x in rs.scaled_root_coords(lam)]
    # node k moves coordinate j iff c[k][j]; last[j] is the last node that does
    last = [max(k for k in range(n) if c[k][j]) for j in range(n)]
    settled = [[j for j in range(n) if last[j] == i - 1] for i in range(n + 1)]
    out: list[Weight] = []

    def rec(i: int, mu: list[int]) -> None:
        if any(mu[j] < 0 for j in settled[i]):
            return
        if i == n:
            out.append(tuple(mu))
            return
        rec(i + 1, mu)
        cur = mu
        for _ in range(bounds[i]):
            cur = list(map(sub, cur, c[i]))
            if cur[i] < 0 and last[i] == i:
                return  # coordinate i only falls from here on
            rec(i + 1, cur)

    rec(0, list(lam))
    return tuple(out)


@lru_cache(maxsize=None)
def _dominant_mults(lt: LieType, lam: Weight) -> MappingProxyType[Weight, int]:
    """Freudenthal multiplicities of the dominant weights of V(lam), read-only.

    Per positive root alpha: its support, its weight and the form that pairs
    a weight nu to 2(nu, alpha); k * alpha stays below lam - mu on the support.
    """
    rs = build(lt)
    norms = [2 // d for d in rs.dcheck]
    roots = [
        (tuple((j, a) for j, a in enumerate(alpha) if a), weight, tuple(map(mul, alpha, norms)))
        for alpha, weight in zip(rs.positive_roots, rs.root_pairings)
    ]
    diffs = {mu: rs.int_root_coords(tuple(map(sub, lam, mu))) for mu in _dominant_below(lt, lam)}
    if None in diffs.values():
        raise TheoremCheckError(f"a weight listed below {lam} is off the root lattice")
    mults: dict[Weight, int] = {lam: 1}
    # lam itself, at depth 0, sorts first
    for mu in sorted(diffs, key=lambda mu: (sum(diffs[mu]), mu))[1:]:
        diff = diffs[mu]
        num2 = 0
        for support, weight, form in roots:
            nu = mu
            for _ in range(min(diff[j] // a for j, a in support)):
                nu = tuple(map(add, nu, weight))
                m = mults.get(rs.to_dominant(nu)[0])
                if m:
                    num2 += m * sum(map(mul, form, nu))
        den2 = rs.twice_inner_root(tuple(a + b + 2 for a, b in zip(lam, mu)), diff)
        # den2 = 2*((lam+rho, lam+rho) - (mu+rho, mu+rho)) = 2*(lam+mu+2rho, lam-mu)
        if den2 <= 0:
            raise TheoremCheckError(f"Freudenthal denominator {den2} at {mu} in V({lam})")
        if (2 * num2) % den2:
            raise TheoremCheckError(
                f"Freudenthal multiplicity {2 * num2}/{den2} at {mu} in V({lam}) is not an integer"
            )
        m = (2 * num2) // den2
        if m:
            mults[mu] = m
    return MappingProxyType(mults)


@lru_cache(maxsize=None)
def _full_char(lt: LieType, lam: Weight) -> MappingProxyType[Weight, int]:
    rs = build(lt)
    out: dict[Weight, int] = {}
    for mu, m in _dominant_mults(lt, lam).items():
        for w in rs.weyl_orbit(mu):
            out[w] = m
    return MappingProxyType(out)


def _guard_dim(lam: Weight, dim: int) -> None:
    guard = dimension_guard()
    if dim > guard:
        raise DimensionGuardError(f"dim V({lam}) = {dim} exceeds the guard {guard}")


def weight_mults(rs: RootSystem, lam: Weight) -> WeightCharacter:
    """Full weight character of V(lam) as a weight -> multiplicity map."""
    _require_dominant(rs, lam)
    _guard_dim(lam, weyl_dim(rs, lam))
    return dict(_full_char(rs.type, lam))


def _klimyk(rs: RootSystem, lam: Weight, chi: WeightCharacter) -> DominantCharacter:
    # Klimyk's formula: V(lam) (x) chi = sum over weights nu of chi of the
    # signed simple at the dominant rho-shifted image of lam + nu + rho, the
    # sign that of the reflections that carry it there; a singular shift has
    # its image on a wall and contributes nothing, so rs.regular_dominant
    # drops it at the first zero coordinate of its walk.  Entries may be 0
    # or < 0.
    shifted = tuple(c + 1 for c in lam)
    out: dict[Weight, int] = {}
    for nu, m in chi.items():
        hit = rs.regular_dominant(tuple(map(add, shifted, nu)))
        if hit:
            key = tuple(c - 1 for c in hit[0])
            out[key] = out.get(key, 0) + hit[1] * m
    return out


def tensor_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> DominantCharacter:
    """Decomposition of V(lam) (x) V(mu) into simple constituents.

    Klimyk's reflection count over the weight character of the smaller factor;
    contributions whose rho-shift lands on a wall cancel and are dropped.  The
    guard bounds that factor, the only character the count expands, and is
    read on every call.  The product is cached per (type, lam, mu) after the
    swap that puts the smaller factor in mu, and handed out as a fresh dict.
    """
    _require_dominant(rs, lam)
    _require_dominant(rs, mu)
    dl, dm = _weyl_dim(rs.type, lam), _weyl_dim(rs.type, mu)
    if dm > dl:
        lam, mu, dm = mu, lam, dl
    _guard_dim(mu, dm)
    return dict(_klimyk_product(rs.type, lam, mu))


@lru_cache(maxsize=None)
def _klimyk_product(lt: LieType, lam: Weight, mu: Weight) -> MappingProxyType[Weight, int]:
    """V(lam) (x) V(mu) by Klimyk over the character of V(mu), read-only."""
    out = {w: m for w, m in _klimyk(build(lt), lam, _full_char(lt, mu)).items() if m}
    if any(m < 0 for m in out.values()):
        raise TheoremCheckError(f"V({lam}) (x) V({mu}) has a negative multiplicity: {out}")
    return MappingProxyType(out)


def char_product(chi1: WeightCharacter, chi2: WeightCharacter) -> WeightCharacter:
    """Pointwise product of two weight characters (convolution of supports)."""
    out: dict[Weight, int] = {}
    for w1, m1 in chi1.items():
        for w2, m2 in chi2.items():
            key = tuple(map(add, w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return out


def decompose_character(rs: RootSystem, chi: WeightCharacter) -> DominantCharacter:
    """Write a genuine weight character as a sum of simple characters.

    Repeatedly strips the character of the maximal remaining weight.  Raises
    ValueError if the input was not a non-negative sum of simple characters.
    """
    return _strip(rs, chi, _full_char)


def decompose_dominant(rs: RootSystem, chi: DominantCharacter) -> DominantCharacter:
    """decompose_character for a Weyl-invariant character given by its
    dominant weights alone, stripping the dominant part of each simple
    character.  The result and any ValueError are the same as for the full
    character: the maximal weight of a Weyl-invariant character is dominant,
    as each weight lies below the dominant weight of its orbit."""
    return _strip(rs, chi, _dominant_mults)


def _strip(rs: RootSystem, chi, char_of) -> DominantCharacter:
    work = {w: m for w, m in chi.items() if m}
    out: dict[Weight, int] = {}
    while work:
        lam = max(work, key=lambda w: (rs.scaled_height(w), w))
        mult = work[lam]
        if not rs.dominant(lam) or mult < 0:
            raise ValueError(f"not a genuine character: maximal weight {lam} x {mult}")
        out[lam] = mult
        for w, m in char_of(rs.type, lam).items():
            nv = work.get(w, 0) - mult * m
            if nv:
                work[w] = nv
            else:
                work.pop(w, None)
    return out


def ext_square(rs: RootSystem, chi: WeightCharacter) -> WeightCharacter:
    """Weight character of the exterior square of a module with character chi."""
    items = sorted(chi.items())
    out: dict[Weight, int] = {}
    for i, (w1, m1) in enumerate(items):
        diag = m1 * (m1 - 1) // 2
        if diag:
            key = tuple(2 * c for c in w1)
            out[key] = out.get(key, 0) + diag
        for w2, m2 in items[i + 1 :]:
            key = tuple(map(add, w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def adjoint_char(rs: RootSystem) -> WeightCharacter:
    """Weight character of the adjoint module: all roots plus rank * zero."""
    out: dict[Weight, int] = {rs.zero(): rs.rank}
    for w in rs.root_pairings:
        out[w] = 1
        out[tuple(-c for c in w)] = 1
    return out


def hom_dim(rs: RootSystem, factors, target: Weight) -> int:
    """Multiplicity of V(target) in X (x) V(lam), for factors = (X, lam).

    X is a dominant weight or a weight character, lam a dominant weight.  By
    complete reducibility this is dim Hom(X (x) V(lam), V(target)).  When X
    is a weight, this reads the entry of tensor_decompose; when X is a
    character, Klimyk expands it over V(lam).
    """
    x, lam = factors
    _require_dominant(rs, target, "target")
    if isinstance(x, tuple):
        return tensor_decompose(rs, x, lam).get(target, 0)
    _require_dominant(rs, lam, "factor")
    guard = dimension_guard()
    if len(x) > guard:
        raise DimensionGuardError("intermediate character exceeds the guard")
    total = _klimyk(rs, lam, x).get(target, 0)
    if total < 0:
        raise TheoremCheckError(f"multiplicity of V({target}) came out as {total}")
    return total

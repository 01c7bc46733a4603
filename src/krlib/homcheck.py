"""Character-level verification of the Hom conditions behind the KR construction.

Every check here is a multiplicity count: by complete reducibility the
dimension of a Hom space out of a tensor product equals the multiplicity of
the target in the product.  g[t] and g[t]^sigma share one walk: a chain of
weights steps down through the g0-module g1 (g itself when untwisted), each
one-step Hom out of g1 (x) V(mu_s) must be nonzero, and the Homs two steps
down out of ext^2(g1) (x) V(mu_s) -- three steps down out of fixed probes
for the D automorphisms -- must vanish.  The exterior-square decompositions
pin down the module V(nu) whose vanishing carries the two-step condition.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from . import charlib, krset, twisted
from .errors import DimensionGuardError, TheoremCheckError
from .rootsys import LieType, RootSystem, Weight, build


class HomReport(
    namedtuple("HomReport", "label chain next_step two_step three_step", defaults=((),))
):
    """Computed Hom dimensions along one chain; _walk raises on any count
    that breaks a condition, so every report returned meets them all."""

    __slots__ = ()


class WedgeReport(namedtuple("WedgeReport", "label decomposition nu")):
    """Decomposition of an exterior square into simples."""

    __slots__ = ()


def _walk(rs: RootSystem, chain, gap: int, factors, word: str = "") -> tuple[int, ...]:
    """Hom dimensions from each factor (x) V(chain[s]) to V(chain[s + gap]),
    for every s and then every factor: nonzero at gap 1, where word names g1
    in the message, zero at gaps 2 and 3."""
    dims = []
    for s in range(len(chain) - gap):
        a, b = chain[s], chain[s + gap]
        for x in factors:
            try:
                d = charlib.hom_dim(rs, [x, a], b)
            except DimensionGuardError as err:
                raise DimensionGuardError(f"{err} while pairing {(a, b)}") from err
            if gap == 1 and d < 1:
                raise TheoremCheckError(f"{word} step {a} -> {b} has Hom dimension 0")
            if gap > 1 and d != 0:
                steps = "two-step" if gap == 2 else "three-step"
                raise TheoremCheckError(f"{steps} Hom {a} -> {b} is {d}, expected 0")
            dims.append(d)
    return tuple(dims)


def cond_untwisted(rs: RootSystem, i: int) -> HomReport:
    """One-step Homs from the adjoint action are nonzero along the chain and
    two-step Homs from its exterior square vanish."""
    if rs.epsilon(rs.theta, i) != 2:
        raise ValueError(f"node {i} of {rs.type} is not a construction node")
    chain = krset.enumerate_chain(rs, i).weights
    nxt = _walk(rs, chain, 1, [charlib.adjoint_char(rs)], "adjoint")
    two = _walk(rs, chain, 2, [_adjoint_ext_square(rs.type)])
    return HomReport(f"{rs.type.family}{rs.rank} node {i}", chain, nxt, two)


def two_step_hom(rs: RootSystem, mu: Weight, nu: Weight) -> int:
    """dim Hom_g(ext^2 g (x) V(mu), V(nu)), the two-step Hom that
    cond_untwisted requires to vanish along a chain."""
    return charlib.hom_dim(rs, [_adjoint_ext_square(rs.type), mu], nu)


# The exterior squares below carry no guard of their own: each caller reads
# its guard first (hom_dim on every call, weight_mults before the g1 square),
# so a cached square never stands in for a guard.
@lru_cache(maxsize=None)
def _adjoint_ext_square(lt: LieType) -> MappingProxyType[Weight, int]:
    """ext^2 of the adjoint character of lt, read-only."""
    rs = build(lt)
    return MappingProxyType(charlib.ext_square(rs, charlib.adjoint_char(rs)))


@lru_cache(maxsize=None)
def _g1_ext_square(lt: LieType, phi: Weight) -> MappingProxyType[Weight, int]:
    """ext^2 of the character of V(phi) over lt, read-only."""
    return MappingProxyType(charlib.ext_square(build(lt), charlib._full_char(lt, phi)))


def _wedge_check(rs: RootSystem, ext2, nu: Weight | None, what: str) -> dict[Weight, int]:
    """Decompose the exterior square ext2 and require the adjoint of rs plus
    V(nu), or the adjoint alone when nu is None.  ext2 is Weyl-invariant, so
    its dominant weights decompose it (charlib.decompose_dominant)."""
    got = charlib.decompose_dominant(rs, {w: m for w, m in ext2.items() if rs.dominant(w)})
    want = {rs.root_weight(rs.theta): 1}
    if nu is not None:
        want[nu] = 1
    if got != want:
        raise TheoremCheckError(f"{what} decomposes as {got}, expected {want}")
    return got


_NU_SPECIAL = {("B", 3): (1, 0, 2), ("D", 4): (1, 0, 1, 1)}


def wedge_adjoint_nu(rs: RootSystem) -> Weight:
    """The non-adjoint constituent nu of the exterior square of the adjoint:
    2*omega_1+omega_2 in type C, omega_1+2*omega_3 for B_3,
    omega_1+omega_3+omega_4 for D_4, and omega_1+omega_3 otherwise."""
    if rs.type.family == "C":
        nu = tuple(2 if j == 0 else 1 if j == 1 else 0 for j in range(rs.rank))
    elif (rs.type.family, rs.rank) in _NU_SPECIAL:
        nu = _NU_SPECIAL[(rs.type.family, rs.rank)]
    else:
        if rs.rank < 3:
            raise ValueError(f"no listed nu for {rs.type}")
        nu = tuple(1 if j in (0, 2) else 0 for j in range(rs.rank))
    _wedge_check(rs, _adjoint_ext_square(rs.type), nu, f"ext^2(adjoint) of {rs.type}")
    return nu


def wedge_g1_nu(data: twisted.TwistedData) -> Weight | None:
    """Expected non-adjoint constituent of ext^2(V(phi)), or None when the
    square is the g0 adjoint alone (D automorphisms and ambient A_3)."""
    fam, n = data.outer.family, data.outer.n
    if fam == "D" or (fam == "A_odd" and n == 2):
        return None
    if fam == "A_odd":
        return tuple(1 if j in (0, 2) else 0 for j in range(n))
    if n >= 3:
        return tuple(2 if j == 0 else 1 if j == 1 else 0 for j in range(n))
    if n == 2:
        return (2, 2)
    return (6,)


def wedge_g1_decomp(data: twisted.TwistedData) -> WedgeReport:
    """Decompose ext^2 of the odd part as a g0-module and compare with the
    adjoint-plus-nu pattern."""
    g0 = data.g0
    nu = wedge_g1_nu(data)
    charlib.weight_mults(g0, data.phi)  # the guard on g1
    ext2 = _g1_ext_square(g0.type, data.phi)
    got = _wedge_check(g0, ext2, nu, f"ext^2(g1) of {data.outer.label}")
    return WedgeReport(data.outer.label, tuple(sorted(got.items())), nu)


def cond_twisted(data: twisted.TwistedData, i: int) -> HomReport:
    """One-step Homs from the odd part are nonzero along the twisted chain;
    the exterior-square (two-step) and, for D automorphisms, the three-step
    Homs vanish."""
    g0 = data.g0
    chain = twisted.enumerate_chain_sigma(data, i).weights
    label = f"{data.outer.label} node {i}"
    nxt = _walk(g0, chain, 1, [data.phi], "odd-part")
    if data.outer.family != "D":
        charlib.weight_mults(g0, data.phi)  # the guard on g1
        wedge = _g1_ext_square(g0.type, data.phi)
        return HomReport(label, chain, nxt, _walk(g0, chain, 2, [wedge]))
    # ext^2(g1) is the g0 adjoint here, so the two-step condition has no
    # nu constituent to test; the three-step checks carry the burden.
    wedge_g1_decomp(data)
    probes = [g0.fundamental(1)]
    if data.outer.n >= 3:
        probes.append(tuple(a + b for a, b in zip(g0.fundamental(1), g0.fundamental(2))))
    three = _walk(g0, chain, 3, probes)
    if data.outer.n > 3:
        triple_decomp(data)
    return HomReport(label, chain, nxt, (), three)


def triple_decomp(data: twisted.TwistedData) -> dict[Weight, int]:
    """g1 tensor ext^2(g1) for the D automorphisms with n > 3: exactly
    V(omega_1+omega_2) + V(omega_3) + V(omega_1)."""
    g0 = data.g0
    if data.outer.family != "D" or data.outer.n <= 3:
        raise ValueError("triple product decomposition applies to D with n > 3")
    phi_char = charlib.weight_mults(g0, data.phi)
    chi = charlib.char_product(phi_char, _g1_ext_square(g0.type, data.phi))
    got = charlib.decompose_character(g0, chi)
    want = {
        tuple(a + b for a, b in zip(g0.fundamental(1), g0.fundamental(2))): 1,
        g0.fundamental(3): 1,
        g0.fundamental(1): 1,
    }
    if got != want:
        raise TheoremCheckError(
            f"g1 (x) ext^2(g1) of {data.outer.label} decomposes as {got}, expected {want}"
        )
    return got

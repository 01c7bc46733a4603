"""Character computations: dimensions, multiplicities, tensor products."""

from __future__ import annotations

import itertools
import random
import re
from math import prod
from operator import mul

import pytest

from krlib import charlib
from krlib.errors import DimensionGuardError, TheoremCheckError
from krlib.rootsys import LieType, build
from krlib.twisted import TwistedData

A2 = build(LieType("A", 2))
C2 = build(LieType("C", 2))
C3 = build(LieType("C", 3))
B3 = build(LieType("B", 3))
B4 = build(LieType("B", 4))
D4 = build(LieType("D", 4))

SWEEP = [
    build(LieType(f, n))
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 6)
]


def random_dominant(rs, rng, max_coord=2, max_dim=10_000):
    while True:
        lam = tuple(rng.randrange(0, max_coord + 1) for _ in range(rs.rank))
        if charlib.weyl_dim(rs, lam) <= max_dim:
            return lam


def reflect(rs, lam, i):
    """Simple reflection s_i on fundamental coordinates."""
    c = lam[i - 1]
    return tuple(a - c * b for a, b in zip(lam, rs.cartan[i - 1]))


def expand(rs, dchar):
    """Weight character of a sum of simples, highest weight -> multiplicity."""
    out = {}
    for lam, mult in dchar.items():
        for w, m in charlib.weight_mults(rs, lam).items():
            out[w] = out.get(w, 0) + mult * m
    return out


def tensor_by_stripping(rs, lam, mu):
    """Brute-force oracle: multiply weight characters, strip highest weights."""
    prod = charlib.char_product(
        charlib.weight_mults(rs, lam), charlib.weight_mults(rs, mu)
    )
    return charlib.decompose_character(rs, prod)


# ------------------------------------------------------------------ dimensions


def test_weyl_dim_examples():
    assert charlib.weyl_dim(A2, (1, 0)) == 3
    assert charlib.weyl_dim(C2, (2, 0)) == 10
    assert charlib.weyl_dim(C2, (0, 1)) == 5
    assert charlib.weyl_dim(B4, (0, 0, 1, 0)) == 84
    assert charlib.weyl_dim(B4, (1, 0, 0, 0)) == 9
    assert charlib.weyl_dim(B3, (0, 0, 2)) == 35


def test_weyl_dim_adjoint_matches_root_count():
    for rs in SWEEP:
        theta = rs.root_weight(rs.theta)
        assert charlib.weyl_dim(rs, theta) == 2 * len(rs.positive_roots) + rs.rank


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        charlib.weyl_dim(A2, (-1, 0))


# -------------------------------------------------------------- multiplicities


def test_weight_mults_c2_omega2():
    chi = charlib.weight_mults(C2, (0, 1))
    assert sum(chi.values()) == 5
    assert chi[(0, 0)] == 1
    assert len(chi) == 5


def test_cached_characters_are_read_only():
    from krlib import homcheck

    lt = C3.type
    for cached in (
        lambda: charlib._dominant_mults(lt, (1, 1, 0)),
        lambda: charlib._full_char(lt, (1, 1, 0)),
        lambda: charlib._klimyk_product(lt, (1, 1, 0), (1, 0, 0)),
        lambda: homcheck._adjoint_ext_square(lt),
        lambda: homcheck._g1_ext_square(lt, (1, 1, 0)),
    ):
        first = cached()
        assert cached() is first
        before = dict(first)
        with pytest.raises(TypeError):
            first[(0, 0, 0)] = 99
        with pytest.raises(TypeError):
            del first[max(first)]
        assert dict(cached()) == before
    # weight_mults and tensor_decompose hand out a fresh dict each call
    for call in (
        lambda: charlib.weight_mults(C3, (1, 1, 0)),
        lambda: charlib.tensor_decompose(C3, (1, 0, 0), (1, 1, 0)),
    ):
        chi = call()
        before = dict(chi)
        chi[(0, 0, 0)] = 99
        del chi[max(before)]
        assert call() == before


def test_tensor_bound_sweep_computes_each_klimyk_product_once(monkeypatch, capsys):
    # every key the sweep asks for, read through a wrapper around the cache:
    # one miss per distinct key, taken after the swap that puts the smaller
    # factor second, and the repeats are hits
    from krlib import cli

    cached = charlib._klimyk_product
    keys = []

    def recording(*key):
        keys.append(key)
        return cached(*key)

    cached.cache_clear()
    charlib._weyl_dim.cache_clear()
    monkeypatch.setattr(charlib, "_klimyk_product", recording)
    assert cli.main(["verify", "tensor-bound", "--max-rank", "3", "--max-level", "3"]) == 0
    capsys.readouterr()
    info = cached.cache_info()
    assert info.misses == len(set(keys)) == info.currsize
    assert info.hits == len(keys) - len(set(keys)) > 0
    assert all(
        charlib.weyl_dim(build(lt), lam) >= charlib.weyl_dim(build(lt), mu) for lt, lam, mu in keys
    )
    assert charlib._weyl_dim.cache_info().hits > 0


def test_freudenthal_mass_equals_weyl_dim():
    rng = random.Random(23)
    for rs in SWEEP:
        for _ in range(4):
            lam = random_dominant(rs, rng)
            chi = charlib.weight_mults(rs, lam)
            assert sum(chi.values()) == charlib.weyl_dim(rs, lam)


def test_weight_mults_weyl_invariant():
    rng = random.Random(29)
    for rs in (C3, B3, D4):
        lam = random_dominant(rs, rng)
        chi = charlib.weight_mults(rs, lam)
        for _ in range(20):
            w = rng.choice(list(chi))
            i = rng.randrange(1, rs.rank + 1)
            assert chi[reflect(rs, w, i)] == chi[w]


def test_adjoint_char_decomposes_to_theta():
    for rs in SWEEP:
        chi = charlib.adjoint_char(rs)
        theta = rs.root_weight(rs.theta)
        assert charlib.decompose_character(rs, chi) == {theta: 1}
        assert chi == charlib.weight_mults(rs, theta)


# ------------------------------------------------------------- tensor products


def test_tensor_c2_defining_square():
    got = charlib.tensor_decompose(C2, (1, 0), (1, 0))
    assert got == {(2, 0): 1, (0, 1): 1, (0, 0): 1}
    assert 4 * 4 == 10 + 5 + 1


def test_tensor_with_trivial():
    for rs, lam in ((C2, (2, 0)), (B3, (0, 1, 0)), (A2, (1, 1))):
        assert charlib.tensor_decompose(rs, lam, rs.zero()) == {lam: 1}
        assert charlib.tensor_decompose(rs, rs.zero(), lam) == {lam: 1}


def test_tensor_symmetric_in_arguments():
    rng = random.Random(31)
    for rs in (A2, C2, B3):
        a = random_dominant(rs, rng, max_dim=300)
        b = random_dominant(rs, rng, max_dim=300)
        assert charlib.tensor_decompose(rs, a, b) == charlib.tensor_decompose(rs, b, a)


def test_tensor_against_stripping_oracle():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        rs = rng.choice(SWEEP)
        a = random_dominant(rs, rng, max_dim=400)
        b = random_dominant(rs, rng, max_dim=400)
        if charlib.weyl_dim(rs, a) * charlib.weyl_dim(rs, b) > 20_000:
            continue
        assert charlib.tensor_decompose(rs, a, b) == tensor_by_stripping(rs, a, b)
        checked += 1


def test_tensor_dimension_count():
    rng = random.Random(41)
    for rs in (C3, B4, D4):
        a = random_dominant(rs, rng, max_dim=500)
        b = random_dominant(rs, rng, max_dim=500)
        dec = charlib.tensor_decompose(rs, a, b)
        total = sum(m * charlib.weyl_dim(rs, w) for w, m in dec.items())
        assert total == charlib.weyl_dim(rs, a) * charlib.weyl_dim(rs, b)


def test_dimension_guard_trips():
    with pytest.raises(DimensionGuardError):
        charlib.tensor_decompose(C3, (4, 4, 4), (4, 4, 4))
    with pytest.raises(DimensionGuardError):
        charlib.weight_mults(C3, (8, 8, 8))


def test_dimension_guard_env_override(monkeypatch):
    # dims 4 x 10: the guard bounds the smaller factor, not the product
    monkeypatch.setenv("KR_MAX_DIM", "4")
    assert charlib.tensor_decompose(C2, (1, 0), (2, 0))
    assert charlib.tensor_decompose(C2, (2, 0), (1, 0))
    monkeypatch.setenv("KR_MAX_DIM", "3")
    with pytest.raises(DimensionGuardError, match=r"dim V\(\(1, 0\)\) = 4 exceeds the guard 3"):
        charlib.tensor_decompose(C2, (2, 0), (1, 0))


def _guarded_entry_points():
    from krlib import homcheck, krset, modforge, twisted

    a5 = twisted.fixed_point_data(twisted.outer_from_ambient("A", 5))  # g0 = C3
    d5 = twisted.fixed_point_data(twisted.outer_from_ambient("D", 5))  # g0 = B4
    dim10 = r"dim V\(\(2, 0\)\) = 10 exceeds"
    return {
        "weight_mults": (lambda: charlib.weight_mults(C2, (2, 0)), dim10),
        "tensor_decompose": (lambda: charlib.tensor_decompose(C2, (2, 0), (2, 0)), dim10),
        "hom_dim": (lambda: charlib.hom_dim(C2, [(2, 0), (2, 0)], (0, 0)), dim10),
        "graded_tensor": (
            lambda: krset.graded_tensor(C2, {0: {(2, 0): 1}}, {1: {(2, 0): 1}}),
            dim10,
        ),
        "tensor_bound_check": (
            lambda: krset.tensor_bound_check(build(LieType("A", 3)), 2, 2),
            r"dim V\(\(0, 1, 0\)\) = 6 exceeds",
        ),
        "cond_untwisted": (lambda: homcheck.cond_untwisted(C2, 1), "intermediate character"),
        "cond_twisted": (lambda: homcheck.cond_twisted(a5, 1), r"= 14 exceeds"),
        "wedge_g1_decomp": (lambda: homcheck.wedge_g1_decomp(a5), r"= 14 exceeds"),
        "triple_decomp": (lambda: homcheck.triple_decomp(d5), r"= 9 exceeds"),
        "pplus": (lambda: krset.pplus(C2, 1, 10), r"\|P\+\(1, 10\)\| = 6 exceeds 5"),
        "highest_module": (lambda: modforge.highest_module(C2, (0, 1)), "ambient dim 6"),
        "evaluation_module": (lambda: modforge.evaluation_module(C2, 1, 2), dim10),
        "build_kr_fundamental": (lambda: modforge.build_kr_fundamental(C2, 1), dim10),
        "kr_tensor_submodule": (
            lambda: modforge.kr_tensor_submodule(A2, 1, 2),
            "tensor space dim 6",
        ),
    }


@pytest.mark.parametrize("name", sorted(_guarded_entry_points()))
def test_small_guard_trips_each_entry_point(monkeypatch, name):
    call, match = _guarded_entry_points()[name]
    call()  # passes under the default guard
    monkeypatch.setenv("KR_MAX_DIM", "5")
    with pytest.raises(DimensionGuardError, match=match):
        call()


@pytest.mark.parametrize(
    "bad", ["abc", "-5", "0", "2.5", "\uff15", "\u0665\u0660", "1_000", " 50 ", "+50"]
)
def test_dimension_guard_rejects_bad_env(monkeypatch, bad):
    from krlib import cli

    monkeypatch.setenv("KR_MAX_DIM", bad)
    with pytest.raises(ValueError, match="KR_MAX_DIM"):
        charlib.dimension_guard()
    assert cli.main(["verify", "tensor-bound", "--max-rank", "2", "--max-level", "1"]) == 2


# ------------------------------------------------------ character arithmetic


def test_decompose_character_round_trip():
    rng = random.Random(43)
    for rs in (C2, B3, A2):
        dchar = {}
        for _ in range(3):
            lam = random_dominant(rs, rng, max_dim=500)
            dchar[lam] = dchar.get(lam, 0) + rng.randrange(1, 3)
        chi = expand(rs, dchar)
        assert charlib.decompose_character(rs, chi) == dchar


def test_decompose_dominant_matches_the_full_character():
    rng = random.Random(44)
    for rs in (C2, B3, A2, D4):
        dchar = {}
        for _ in range(3):
            lam = random_dominant(rs, rng, max_dim=500)
            dchar[lam] = dchar.get(lam, 0) + rng.randrange(1, 3)
        chi = expand(rs, dchar)
        dom = {w: m for w, m in chi.items() if rs.dominant(w)}
        assert charlib.decompose_dominant(rs, dom) == charlib.decompose_character(rs, chi) == dchar
        # a Weyl-invariant character with a negative part fails alike
        top = max(dchar)
        for w in charlib.weight_mults(rs, top):
            chi[w] -= 2 * dchar[top]
        dom = {w: m for w, m in chi.items() if rs.dominant(w)}
        with pytest.raises(ValueError) as full:
            charlib.decompose_character(rs, chi)
        with pytest.raises(ValueError) as short:
            charlib.decompose_dominant(rs, dom)
        assert str(short.value) == str(full.value)


def test_decompose_character_rejects_fake():
    chi = charlib.weight_mults(C2, (1, 0))
    chi[(1, 0)] += 1  # no longer Weyl-invariant
    with pytest.raises(ValueError):
        charlib.decompose_character(C2, chi)


def test_ext_square_matches_adams_identity():
    # ext^2 chi = (chi * chi - psi^2 chi) / 2, where psi^2 doubles every weight
    rng = random.Random(47)
    for rs in (C2, B3):
        lam = random_dominant(rs, rng, max_dim=200)
        chi = charlib.weight_mults(rs, lam)
        want = charlib.char_product(chi, chi)
        for w, m in chi.items():
            doubled = tuple(2 * c for c in w)
            want[doubled] -= m
        assert all(m % 2 == 0 for m in want.values())
        want = {w: m // 2 for w, m in want.items() if m}
        assert charlib.ext_square(rs, chi) == want


def test_ext_square_c2_adjoint():
    chi = charlib.adjoint_char(C2)
    assert sum(chi.values()) == 10
    ext = charlib.ext_square(C2, chi)
    assert sum(ext.values()) == 45
    assert charlib.decompose_character(C2, ext) == {(2, 0): 1, (2, 1): 1}


# ------------------------------------------------------------------- hom_dim


def test_hom_dim_adjoint_example():
    adj = charlib.adjoint_char(C2)
    assert charlib.hom_dim(C2, [adj, (2, 0)], (0, 0)) == 1
    theta = C2.root_weight(C2.theta)
    assert charlib.hom_dim(C2, [theta, (2, 0)], (0, 0)) == 1


def test_hom_dim_expands_the_second_weight_on_a_tie(monkeypatch):
    # V(1,0) and V(0,1) of A2 both have dimension 3: the first factor stays
    # the Klimyk base, so the guard names the second
    monkeypatch.setenv("KR_MAX_DIM", "2")
    for a, b in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        with pytest.raises(DimensionGuardError, match=re.escape(f"dim V({b}) = 3")):
            charlib.hom_dim(A2, [a, b], (0, 0))


def test_hom_dim_checks_the_count_is_not_negative(monkeypatch):
    # Klimyk over a character factor comes back with -1 at the target
    monkeypatch.setattr(charlib, "_klimyk", lambda rs, lam, chi: {(0, 0): -1})
    with pytest.raises(TheoremCheckError, match=r"^multiplicity of V\(\(0, 0\)\) came out as -1$"):
        charlib.hom_dim(C2, [charlib.adjoint_char(C2), (2, 0)], (0, 0))


def test_klimyk_product_checks_each_multiplicity_is_not_negative(monkeypatch):
    # Klimyk over V(omega_1) comes back with -1 at omega_2
    monkeypatch.setattr(charlib, "_klimyk", lambda rs, lam, chi: {(2, 0): 1, (0, 1): -1, (0, 0): 1})
    charlib._klimyk_product.cache_clear()
    try:
        with pytest.raises(TheoremCheckError, match=r"^V\(\(1, 0\)\) \(x\) V\(\(1, 0\)\) has a negative multiplicity"):
            charlib.tensor_decompose(C2, (1, 0), (1, 0))
    finally:
        charlib._klimyk_product.cache_clear()


def test_hom_dim_matches_full_decomposition():
    rng = random.Random(53)
    for rs in (C2, B3, D4):
        a = random_dominant(rs, rng, max_dim=300)
        b = random_dominant(rs, rng, max_dim=300)
        dec = tensor_by_stripping(rs, a, b)
        for target, mult in list(dec.items())[:4]:
            assert charlib.hom_dim(rs, [a, b], target) == mult
        missing = tuple(c + 7 for c in rs.zero())
        probe = (7,) * rs.rank
        assert charlib.hom_dim(rs, [a, b], probe) == dec.get(probe, 0)
        assert missing == probe


# ------------------------------------------- oracles for the table kernels
#
# The Weyl dimension as a product of forms, the full box of coefficient
# vectors below lam and the Freudenthal loop over root_weight and
# twice_inner_root, as they stood before the kernels read the root tables.


def oracle_weyl_dim(rs, lam):
    forms = tuple(
        tuple(a * (2 // d) for a, d in zip(alpha, rs.dcheck)) for alpha in rs.positive_roots
    )
    den = prod(sum(form) for form in forms)
    rho_shift = tuple(c + 1 for c in lam)
    num = prod(sum(map(mul, form, rho_shift)) for form in forms)
    assert num % den == 0
    return num // den


def oracle_dominant_below(rs, lam):
    n = rs.rank
    bounds = [c // rs.root_den for c in rs.scaled_root_coords(lam)]
    cartan_t = [[rs.cartan[k][i] for k in range(n)] for i in range(n)]
    out = []

    def rec(i, mu):
        if i == n:
            if all(x >= 0 for x in mu):
                out.append(tuple(mu))
            return
        rec(i + 1, mu)
        cur = mu
        for _ in range(bounds[i]):
            cur = [cur[j] - cartan_t[j][i] for j in range(n)]
            rec(i + 1, cur)

    rec(0, list(lam))
    return tuple(out)


def oracle_dominant_mults(rs, lam, cands):
    # cands: oracle_dominant_below(rs, lam), computed once by the caller
    n = rs.rank
    by_depth = sorted(
        cands,
        key=lambda mu: (sum(rs.int_root_coords(tuple(a - b for a, b in zip(lam, mu)))), mu),
    )
    mults = {}
    for mu in by_depth:
        if mu == lam:
            mults[mu] = 1
            continue
        diff = rs.int_root_coords(tuple(a - b for a, b in zip(lam, mu)))
        num2 = 0
        for alpha in rs.positive_roots:
            aw = rs.root_weight(alpha)
            rem = list(diff)
            nu = list(mu)
            while True:
                ok = True
                for j in range(n):
                    rem[j] -= alpha[j]
                    if rem[j] < 0:
                        ok = False
                for j in range(n):
                    nu[j] += aw[j]
                if not ok:
                    break
                m = mults.get(rs.to_dominant(tuple(nu))[0], 0)
                if m:
                    num2 += m * rs.twice_inner_root(tuple(nu), alpha)
        den2 = rs.twice_inner_root(
            tuple(a + b for a, b in zip(lam, tuple(c + 2 for c in mu))), diff
        )
        assert den2 > 0 and (2 * num2) % den2 == 0
        m = (2 * num2) // den2
        if m:
            mults[mu] = m
    return mults


def assert_kernels_match_oracles(rs, lam):
    assert charlib.weyl_dim(rs, lam) == oracle_weyl_dim(rs, lam), (rs.type, lam)
    box = oracle_dominant_below(rs, lam)
    assert charlib._dominant_below(rs.type, lam) == box, (rs.type, lam)
    want = oracle_dominant_mults(rs, lam, box)
    assert dict(charlib._dominant_mults(rs.type, lam)) == want, (rs.type, lam)


ORACLE_TYPES = [
    LieType(f, n)
    for f, lo, hi in (("A", 1, 6), ("B", 2, 5), ("C", 2, 5), ("D", 3, 6))
    for n in range(lo, hi + 1)
]


@pytest.mark.parametrize("lt", ORACLE_TYPES, ids=str)
def test_table_kernels_match_the_oracles_on_small_weights(lt):
    # every dominant lam with coordinate sum at most 3, within the guard
    rs = build(lt)
    guard = charlib.dimension_guard()
    checked = 0
    for lam in itertools.product(range(4), repeat=rs.rank):
        if sum(lam) <= 3 and oracle_weyl_dim(rs, lam) <= guard:
            assert_kernels_match_oracles(rs, lam)
            checked += 1
    assert checked > rs.rank


def test_table_kernels_match_the_oracles_on_the_wedge_sweep():
    # the constituents the wedge suite decomposes: theta and nu of the
    # adjoint square, phi and nu of the g1 square
    from krlib import cli, homcheck

    for label in cli._HOM_SWEEP:
        alg = cli.parse_algebra(label)
        if isinstance(alg, TwistedData):
            rs, weights = alg.g0, [alg.phi, homcheck.wedge_g1_nu(alg)]
        else:
            rs, weights = alg, [alg.root_weight(alg.theta), homcheck.wedge_adjoint_nu(alg)]
        for lam in weights:
            if lam is not None:
                assert_kernels_match_oracles(rs, lam)

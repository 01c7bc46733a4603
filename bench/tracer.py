"""Span recorder for the traced benchmark run.

Nothing inside krlib is instrumented.  `install` rebinds the public names
listed in SPANS, from outside, to wrappers that record one span per call:
a function is replaced in every krlib module that holds it (so `nullspace`
is also replaced inside `modforge`, which imports it by name), a method is
replaced on its class.  Spans stay in memory; the child process writes them
out once, when the case ends, and the parent turns them into per-layer
metrics with `summarize`.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import wraps
from time import perf_counter

# span name -> (krlib module, attribute path inside it)
SPANS = {
    "cli.main": ("cli", "main"),
    "rootsys.build": ("rootsys", "build"),
    "rootsys.weyl_orbit": ("rootsys", "RootSystem.weyl_orbit"),
    "charlib.weyl_dim": ("charlib", "weyl_dim"),
    "charlib.weight_mults": ("charlib", "weight_mults"),
    "charlib.tensor_decompose": ("charlib", "tensor_decompose"),
    "charlib.decompose_character": ("charlib", "decompose_character"),
    "charlib.hom_dim": ("charlib", "hom_dim"),
    "krset.enumerate_chain": ("krset", "enumerate_chain"),
    "krset.pplus": ("krset", "pplus"),
    "krset.grade": ("krset", "grade"),
    "krset.graded_character": ("krset", "graded_character"),
    "krset.tensor_bound_check": ("krset", "tensor_bound_check"),
    "twisted.fixed_point_data": ("twisted", "fixed_point_data"),
    "twisted.enumerate_chain_sigma": ("twisted", "enumerate_chain_sigma"),
    "twisted.graded_character_sigma": ("twisted", "graded_character_sigma"),
    "homcheck.cond_untwisted": ("homcheck", "cond_untwisted"),
    "homcheck.cond_twisted": ("homcheck", "cond_twisted"),
    "homcheck.wedge_adjoint_nu": ("homcheck", "wedge_adjoint_nu"),
    "homcheck.wedge_g1_decomp": ("homcheck", "wedge_g1_decomp"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.Echelon.add": ("linalg", "Echelon.add"),
    "linalg.Echelon.coords": ("linalg", "Echelon.coords"),
    "linalg.SpMat.matmul": ("linalg", "SpMat.__matmul__"),
    "modforge.highest_module": ("modforge", "highest_module"),
    "modforge.tensor_rep": ("modforge", "tensor_rep"),
    "modforge.intertwiner": ("modforge", "intertwiner"),
    "modforge.build_kr_fundamental": ("modforge", "build_kr_fundamental"),
    "modforge.verify_current_relations": ("modforge", "verify_current_relations"),
    "modforge.kr_tensor_submodule": ("modforge", "kr_tensor_submodule"),
}

# lru caches read through cache_info() at the end of a case
CACHES = {
    "charlib.freudenthal_cache": ("charlib", "_dominant_mults"),
    "krset.pplus_cache": ("krset", "_pplus"),
}

ROOT = "cli.main"


def _count_nullspace(fn, counts):
    """Count unknowns and the constraint rows nullspace actually consumes."""

    def counted_rows(rows):
        for row in rows:
            counts["linalg.nullspace.rows"] += 1
            yield row

    @wraps(fn)
    def nullspace(rows, variables):
        counts["linalg.nullspace.unknowns"] += len(variables)
        return fn(counted_rows(rows), variables)

    return nullspace


def _count_accepts(fn, counts):
    @wraps(fn)
    def add(self, vec):
        ordinal = fn(self, vec)
        if ordinal is not None:
            counts["linalg.Echelon.add.accepted"] += 1
        return ordinal

    return add


def _count_dim(fn, counts):
    @wraps(fn)
    def highest_module(*args, **kwargs):
        rep = fn(*args, **kwargs)
        counts["modforge.highest_module.dim"] += rep.dim
        return rep

    return highest_module


def _count_fractions(fn, counts):
    """Share of Fraction objects among the stored g/t action entries."""

    @wraps(fn)
    def build_kr_fundamental(*args, **kwargs):
        cm = fn(*args, **kwargs)
        for mats in cm.g_action + cm.t_action:
            for mat in mats:
                for col in mat.data.values():
                    counts["modforge.action_entries"] += len(col)
                    counts["modforge.fraction_entries"] += sum(
                        isinstance(v, Fraction) for v in col.values()
                    )
        return cm

    return build_kr_fundamental


# Counting hooks sit outside the span, so their own cost is not charged to
# the layer they count.
HOOKS = {
    "linalg.nullspace": _count_nullspace,
    "linalg.Echelon.add": _count_accepts,
    "modforge.highest_module": _count_dim,
    "modforge.build_kr_fundamental": _count_fractions,
}


class Tracer:
    """Spans of one case as [name, start, end, parent index, case id] lists."""

    def __init__(self, case_id: str):
        self.case_id = case_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, case_id = self.spans, self._stack, self.case_id

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, case_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every name in SPANS; krlib must already be imported."""
        mods = {
            name[len("krlib."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("krlib.")
        }
        mods[""] = sys.modules["krlib"]
        for name, (modname, path) in SPANS.items():
            owner = mods[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.span(name, original)
            if name in HOOKS:
                wrapped = HOOKS[name](wrapped, self.counts)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def cache_counts() -> dict[str, list[int]]:
    """[hits, misses] of each cache in CACHES, for this process so far."""
    out = {}
    for name, (modname, attr) in CACHES.items():
        info = getattr(sys.modules["krlib." + modname], attr).cache_info()
        out[name] = [info.hits, info.misses]
    return out


def summarize(spans) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its direct children cover;
    the process is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - inner
    return out

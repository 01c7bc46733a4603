"""Static checks over the library sources."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import krlib
from krlib import homcheck, krset, linalg, modforge, rootsys, twisted

SRC = Path(krlib.__file__).resolve().parent


def parsed_sources():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_library_has_no_assert_statements():
    # every check raises an error of its own: `python -O` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_function_takes_max_dim():
    # the dimension guard has one setting, KR_MAX_DIM
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg == "max_dim"
    ]
    assert found == []


def test_only_dimension_guard_reads_the_environment():
    # the variable name as a lookup key, os.environ, or getenv; a docstring
    # may mention KR_MAX_DIM, so only an exact "KR_MAX_DIM" string counts
    def reads(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and node.value == "KR_MAX_DIM")
            or (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
            or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
            or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
        ]

    found, allowed = [], []
    for path, tree in parsed_sources():
        found += [f"{path.name}:{line}" for line in reads(tree)]
        if path.name == "charlib.py":
            guard = next(
                node
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "dimension_guard"
            )
            assert guard.args.args == []
            allowed += [f"{path.name}:{line}" for line in reads(guard)]
    assert allowed
    assert found == allowed


def _name_of(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_cached_function_reads_the_guard():
    # a cache hit skips the body, so a guard read inside an lru_cache or
    # cached_property would not run again once the result is cached (and a
    # lowered KR_MAX_DIM would go unseen); guards are read at the call site
    cached, found = [], []
    for path, tree in parsed_sources():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not any(
                _name_of(d) in ("lru_cache", "cache", "cached_property") for d in fn.decorator_list
            ):
                continue
            cached.append(fn.name)
            found += [
                f"{path.name}:{node.lineno} in {fn.name}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and _name_of(node) in ("dimension_guard", "_guard_dim")
            ]
    assert {"_weyl_dim", "_klimyk_product", "_adjoint_ext_square", "_g1_ext_square"} <= set(cached)
    assert found == []


def imports_of(module):
    """file:line of every import of `module` or a submodule of it."""
    return [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        for name in (
            [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [a.name for a in node.names] if isinstance(node, ast.Import)
            else []
        )
        if name.split(".")[0] == module
    ]


def test_no_module_imports_fractions():
    # krlib computes over Z: every value it builds is an int, and a rational
    # is an int vector over one denominator (linalg.Echelon.coords)
    assert imports_of("fractions") == []


def _fraction_solve(columns, target):
    """x with sum_k x[k] * columns[k] == target, by Gauss-Jordan over
    Fraction, for independent columns and a target in their span."""
    n = len(columns)
    mat = [[Fraction(col[d]) for col in columns] + [Fraction(t)] for d, t in enumerate(target)]
    for c in range(n):
        p = next(r for r in range(c, len(mat)) if mat[r][c])
        mat[c], mat[p] = mat[p], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for r in range(len(mat)):
            if r != c and mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    assert not any(row[n] for row in mat[n:])
    return [row[n] for row in mat[:n]]


def _simple_roots_ambient(family: str, n: int) -> list[tuple[int, ...]]:
    # Bourbaki realizations; ambient coordinates are integers for all four families.
    def e(i: int, dim: int, c: int = 1) -> list[int]:
        v = [0] * dim
        v[i] = c
        return v

    roots: list[list[int]] = []
    if family == "A":
        dim = n + 1
        for i in range(n):
            v = e(i, dim)
            v[i + 1] -= 1
            roots.append(v)
    else:
        dim = n
        for i in range(n - 1):
            v = e(i, dim)
            v[i + 1] -= 1
            roots.append(v)
        if family == "B":
            roots.append(e(n - 1, dim))
        elif family == "C":
            roots.append(e(n - 1, dim, 2))
        else:  # D
            v = e(n - 2, dim)
            v[n - 1] += 1
            roots.append(v)
    return [tuple(v) for v in roots]


def _positive_roots_ambient(family: str, n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [0] * dim
                v[i], v[j] = 1, -1
                out.append(tuple(v))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            out.append(tuple(v))
            v = [0] * n
            v[i] = v[j] = 1
            out.append(tuple(v))
    if family == "B":
        for i in range(n):
            v = [0] * n
            v[i] = 1
            out.append(tuple(v))
    elif family == "C":
        for i in range(n):
            v = [0] * n
            v[i] = 2
            out.append(tuple(v))
    return out


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)],
)
def test_root_data_match_a_fraction_computation(name):
    # the oracle is the Bourbaki realization above, which the library never
    # reads: it derives its root data from the Cartan matrix alone
    rs = rootsys.build(rootsys.parse_type(name))
    n = rs.rank
    simple = _simple_roots_ambient(rs.type.family, n)
    pos = []
    for v in _positive_roots_ambient(rs.type.family, n):
        coeffs = _fraction_solve(simple, v)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        pos.append(tuple(int(c) for c in coeffs))
    pos.sort(key=lambda c: (sum(c), c))
    assert rs.positive_roots == tuple(pos)
    assert rs.theta == pos[-1]
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    # cartan[i][j] = 2(alpha_i, alpha_j) / (alpha_j, alpha_j)
    assert rs.cartan == tuple(
        tuple(Fraction(2 * dot(a, b), dot(b, b)) for b in simple) for a in simple
    )
    # dcheck_j = |theta|^2 / |alpha_j|^2 in the ambient coordinates
    theta = [sum(c * a[d] for c, a in zip(pos[-1], simple)) for d in range(len(simple[0]))]
    assert rs.dcheck == tuple(Fraction(dot(theta, theta), dot(a, a)) for a in simple)
    # row i of inv(cartan^T): e_i over the columns of the Cartan matrix
    columns = [[rs.cartan[k][j] for k in range(n)] for j in range(n)]
    inv = [_fraction_solve(columns, [int(k == i) for k in range(n)]) for i in range(n)]
    den = lcm(*(x.denominator for row in inv for x in row))
    assert rs.root_den == den
    assert rs._inv_num == tuple(tuple(x * den for x in row) for row in inv)
    assert all(type(x) is int for x in (rs.root_den, *rs.dcheck, *sum(rs._inv_num, ())))


def uses_a_spmat_product(node):
    return (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)) or (
        isinstance(node, ast.Attribute) and node.attr == "bracket"
    )


def test_relation_checks_use_the_one_product_kernel():
    # the relation checks, the step solver and every bracket-and-divide
    # replay multiply through linalg.residue over column tables; a SpMat
    # product (`@` or .bracket) in them would be a second kernel
    tree = ast.parse((SRC / "modforge.py").read_text())
    names = [
        "_bracket_coords",
        "_bracket_quotient",
        "_check_generators",
        "_check_maximal",
        "_check_tsquare",
        "_from_generators",
        "_moves_weights",
        "_t_maps",
        "intertwiner",
        "realize",
        "verify_current_relations",
    ]
    functions = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert sorted(functions) == names
    chevalley = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ChevalleyBasis"
    )
    assert functions["_bracket_coords"] in chevalley.body
    assert functions["realize"] in chevalley.body
    found = [
        f"{name}:{node.lineno}"
        for name, fn in sorted(functions.items())
        for node in ast.walk(fn)
        if uses_a_spmat_product(node)
    ]
    assert found == []


def test_no_spmat_product_outside_spmat():
    # SpMat's own arithmetic stays for the tests; nothing else in the
    # library multiplies with it
    found = []
    for path, tree in parsed_sources():
        spmat = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SpMat"]
        inside = {id(node) for cls in spmat for node in ast.walk(cls)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if uses_a_spmat_product(node) and id(node) not in inside
        ]
    assert found == []


def test_matrices_have_one_layout():
    # residue multiplies column tables on both sides, so no row table is
    # built, cached or passed; SpMat.rows (the row count), rows_by_wt and
    # nullspace's rows parameter are other names
    assert not hasattr(linalg, "rows")
    tables = {"def_rows", "xrows", "row_tabs", "f_rows", "t_rows", "b_rows"}
    fields = ((ast.FunctionDef, "name"), (ast.arg, "arg"), (ast.Name, "id"), (ast.Attribute, "attr"))
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if any(isinstance(node, kind) and getattr(node, field) in tables for kind, field in fields)
        or (isinstance(node, ast.Call) and _name_of(node) == "rows")
    ]
    assert found == []


def test_only_the_tensor_engine_lists_monomials():
    # symmetric and exterior powers are slots of modforge._Tensor, listed in
    # _Tensor.monomials; a combinations call anywhere else would be a second
    # power engine
    powers = ("combinations", "combinations_with_replacement")
    found, inside = [], []
    for path, tree in parsed_sources():
        tensor = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Tensor"]
        monomials = [n for cls in tensor for n in cls.body if getattr(n, "name", None) == "monomials"]
        allowed = {id(node) for fn in monomials for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) in powers:
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 2
    assert found == []


def test_only_the_chevalley_basis_realizes_root_matrices():
    # a module's g-action is its pieces' generators; ChevalleyBasis realizes
    # the whole basis on the defining representation alone, and a realize
    # call anywhere else would store the root matrices again
    found, inside = [], []
    for path, tree in parsed_sources():
        chevalley = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ChevalleyBasis"]
        allowed = {id(node) for cls in chevalley for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "realize":
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1
    assert found == []


def test_each_bracket_of_the_basis_is_computed_once():
    # _bracket_coords runs only inside ChevalleyBasis.struct, which caches
    # each pair, so no bracket of the basis is computed twice; g acts on
    # itself through ChevalleyBasis.slot, and no adjoint module is built
    found, inside = [], []
    for path, tree in parsed_sources():
        assert "adjoint_rep" not in path.read_text(), path.name
        struct = [
            fn
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "ChevalleyBasis"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "struct"
        ]
        allowed = {id(node) for fn in struct for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_bracket_coords":
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1
    assert found == []


def test_generators_are_checked_where_a_module_is_made_or_verified():
    # a MatrixRep is its generators and weights, h_i being the weight
    # diagonal; Serre's premises are checked where _from_generators makes a
    # representation and where verify_current_relations is handed a module,
    # and a call anywhere else would check a piece twice
    assert "h" not in modforge.MatrixRep._fields
    found, inside = [], []
    for path, tree in parsed_sources():
        makers = [
            n for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name in ("_from_generators", "verify_current_relations")
        ]
        allowed = {id(node) for fn in makers for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name_of(node) == "_check_generators":
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 2
    assert found == []


def test_only_the_replay_reads_the_f_tree():
    # a module stores one maximal vector per step, and _t_maps derives every
    # other x_b (x) t from it along ChevalleyBasis.f_tree; a second reader of
    # the tree would be a second replay, or a check of one map against another
    found, inside = [], []
    for path, tree in parsed_sources():
        owners = [
            fn
            for node in tree.body
            for fn in ([node] if isinstance(node, ast.FunctionDef) else getattr(node, "body", []))
            if isinstance(fn, ast.FunctionDef) and fn.name in ("_t_maps", "f_tree")
        ]
        allowed = {id(node) for fn in owners for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "f_tree":
                (inside if id(node) in allowed else found).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 2
    assert found == []


def test_a_module_stores_one_t_map_per_step():
    # x (x) t is its maximal vector X_s per step; t_action, a tuple of the
    # X_s for the benchmark tracer, is derived and no field, and so is the
    # chain, the weights of the pieces' basis vectors 0
    assert modforge.CurrentModule._fields == ("rs", "node", "level", "pieces", "maximal")
    cm = modforge.build_kr_fundamental(rootsys.build(rootsys.LieType("C", 3)), 2)
    assert len(cm.maximal) == cm.k == 2
    assert all(isinstance(X, linalg.SpMat) for X in cm.maximal)
    assert cm.t_action == tuple((X,) for X in cm.maximal)
    assert cm.chain == krset.enumerate_chain(cm.rs, 2).weights


def test_basis_vector_0_is_the_only_top_convention():
    # a MatrixRep is its generators and weights, basis vector 0 the top; a
    # stored top index, top vector or top weight would be a second copy
    assert modforge.MatrixRep._fields == ("e", "f", "basis_weights")
    found = [
        f"{path.name}:{k}"
        for path, _ in parsed_sources()
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if any(name in line for name in ("highest_index", "highest_vector", "highest_weight"))
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # records are named tuples or plain __slots__ classes: the dataclasses
    # import and its decorators cost more than the rest of krlib's start-up
    assert imports_of("dataclasses") == []


def test_cli_import_loads_no_introspection_modules():
    # a clean interpreter (-S: no site hooks) importing the CLI and running
    # one command, as every `kr` process does; the first five only come in
    # through dataclasses, the next three through fractions, and the last
    # three through argparse, whose gettext imports locale on first use
    code = (
        "import sys, krlib.cli\n"
        "krlib.cli.main(['char', '--algebra', 'C2', '--node', '1', '--level', '2'])\n"
        "print(' '.join(sorted(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    char_json, modules = proc.stdout.splitlines()
    assert json.loads(char_json)["dim_poly"] == [10, 1]
    loaded = set(modules.split())
    assert "krlib.cli" in loaded
    forbidden = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers"}
    forbidden |= {"argparse", "gettext", "locale"}
    assert loaded & forbidden == set()


def _records():
    rs = rootsys.build(rootsys.LieType("C", 2))
    data = twisted.fixed_point_data(twisted.OuterType("A_odd", 2))
    cm = modforge.build_kr_fundamental(rs, 1)
    return [
        rs.type,
        data.outer,
        data,
        data.kr,
        krset.enumerate_chain(rs, 1),
        krset.graded_character(rs, 1, 2),
        homcheck.cond_untwisted(rs, 1),
        homcheck.wedge_g1_decomp(data),
        cm,
        cm.pieces[0],
        modforge.verify_current_relations(cm),
    ]


def test_records_refuse_assignment():
    records = _records()
    # every record class of the library is among them
    defined = {
        cls
        for module in (homcheck, krset, modforge, rootsys, twisted)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and issubclass(cls, (tuple, krset._Frozen))
        and cls is not krset._Frozen
    }
    assert defined == {type(r) for r in records}
    for record in records:
        fields = getattr(record, "_fields", None) or type(record).__slots__
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])


def test_record_messages_and_text_are_unchanged():
    with pytest.raises(ValueError) as err:
        rootsys.LieType("E", 6)
    assert str(err.value) == "unknown family 'E', expected one of A, B, C, D"
    with pytest.raises(ValueError) as err:
        rootsys.LieType("D", 2)
    assert str(err.value) == "rank 2 below the minimum 3 for type D"
    with pytest.raises(ValueError) as err:
        twisted.OuterType("B", 2)
    assert str(err.value) == "unknown outer family 'B'"
    with pytest.raises(ValueError) as err:
        twisted.OuterType("D", 1)
    assert str(err.value) == "D needs n >= 2"
    lt = rootsys.LieType("C", 3)
    assert (str(lt), repr(lt)) == ("C3", "LieType(family='C', rank=3)")
    # an edited copy is validated as a new one is
    assert lt._replace(rank=4) == rootsys.LieType("C", 4)
    with pytest.raises(ValueError, match="rank 1 below the minimum 2 for type C"):
        lt._replace(rank=1)
    with pytest.raises(ValueError, match="A_even needs n >= 1"):
        twisted.OuterType("A_even", 2)._replace(n=0)
    chain = krset.enumerate_chain(rootsys.build(lt), 2)
    assert repr(chain) == "GradedChain(weights=((0, 2, 0), (2, 0, 0), (0, 0, 0)))"
    assert list(chain) == list(chain.weights) and chain[-1] == (0, 0, 0)


def test_kr_datums_compare_by_identity():
    # the _pplus cache keys on the datum itself
    kr = krset.datum(rootsys.LieType("C", 2))
    fields = [getattr(kr, name) for name in krset.KRDatum.__slots__]
    a, b = krset.KRDatum(*fields), krset.KRDatum(*fields)
    assert a != b and a == a and hash(a) != hash(b)

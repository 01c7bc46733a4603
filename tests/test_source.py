"""Static checks over the library sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krlib
from krlib import homcheck, krset, modforge, rootsys, twisted

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


def test_modforge_imports_nothing_from_fractions():
    # every module matrix is an int matrix on the Kostant lattice
    tree = ast.parse((SRC / "modforge.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert found == []


def test_relation_checks_use_the_one_product_kernel():
    # the relation checks multiply through linalg.residue over row tables;
    # a SpMat product (`@` or .bracket) in them would be a second kernel
    tree = ast.parse((SRC / "modforge.py").read_text())
    functions = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("verify_current_relations", "_check_tsquare", "_bracket_coords")
    }
    assert sorted(functions) == ["_bracket_coords", "_check_tsquare", "verify_current_relations"]
    chevalley = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ChevalleyBasis"
    )
    assert functions["_bracket_coords"] in chevalley.body
    found = [
        f"{name}:{node.lineno}"
        for name, fn in sorted(functions.items())
        for node in ast.walk(fn)
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr == "bracket")
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # records are named tuples or plain __slots__ classes: the dataclasses
    # import and its decorators cost more than the rest of krlib's start-up
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        for name in (
            [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [a.name for a in node.names] if isinstance(node, ast.Import)
            else []
        )
        if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_cli_import_loads_no_introspection_modules():
    # a clean interpreter (-S: no site hooks) importing the CLI, as every
    # `kr` process does; these modules only come in through dataclasses
    code = "import sys, krlib.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(proc.stdout.split())
    assert "krlib.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


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

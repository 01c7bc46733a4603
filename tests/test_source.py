"""Static checks over the library sources."""

import ast
from pathlib import Path

import krlib

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

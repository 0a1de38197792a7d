"""Static checks on the package source."""

import ast
import importlib.util
from pathlib import Path

import semisimple

SOURCES = sorted(Path(semisimple.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # invariants are explicit exceptions: `python -O` strips every assert
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def _numpy_imports(node: ast.AST, owner: str) -> list[str]:
    """Dotted names of the defs whose bodies import numpy; the module name for a top-level import."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in child.names] if isinstance(child, ast.Import) else [child.module or ""]
            if any(name.partition(".")[0] == "numpy" for name in names):
                found.append(owner)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _numpy_imports(child, f"{owner}.{child.name}")
        else:
            found += _numpy_imports(child, owner)
    return found


def test_numpy_is_imported_only_by_the_dense_route():
    # numpy costs about 100 ms at start-up; only the dense F_p rank profiles load it
    found = {name
             for path in SOURCES
             for name in _numpy_imports(ast.parse(path.read_text(), filename=str(path)), path.stem)}
    assert found == {"scalars.row_echelon_mod_p", "modrep.jordan_type", "modrep._induced_matrix"}


def test_brauer_eliminates_no_matrix():
    # every Brauer answer is read off partitions, tableaux or a closed criterion
    tree = ast.parse((Path(semisimple.__file__).parent / "brauer.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported and not imported & {"bareiss", "exact_rank", "exact_det", "rank_mod_p", "row_echelon_mod_p"}


def test_brauer_validates_no_diagram_it_stacks():
    # stacked pairs are in normal form by construction; `compose` wraps them in the one public constructor
    tree = ast.parse((Path(semisimple.__file__).parent / "brauer.py").read_text())
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def calls(node: ast.AST) -> set[str]:
        return {ast.unparse(child.func) for child in ast.walk(node) if isinstance(child, ast.Call)}

    assert "WalledDiagram" in calls(defs["compose"])
    assert "WalledDiagram" not in calls(defs["_stack"]) | calls(defs["endomorphism_trace_form"])
    assert "object.__new__" not in {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_cli_reads_digits_off_its_rows_without_checking_them_again():
    # every row `padic` prints is a Lucas product by construction; checking it against itself cannot fail
    tree = ast.parse((Path(semisimple.__file__).parent / "cli.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert "binomials_mod_p" in names and "padic_digits" not in names


def test_lru_caches_are_the_known_three():
    # a cache is added here only once it is shown to be hit; an unhit one only holds memory
    found = {f"{path.stem}.{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.FunctionDef) and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)}
    assert found == {"scalars.is_prime", "modrep._tensor_pair", "modrep._wedge_type"}


def _raises_of(node: ast.AST, owner: str, name: str) -> list[str]:
    """Dotted names of the defs holding a `raise name(...)`."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and ast.unparse(child.exc.func) == name:
            found.append(owner)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _raises_of(child, f"{owner}.{child.name}", name)
        else:
            found += _raises_of(child, owner, name)
    return found


def test_no_module_computes_a_sine():
    # every q-integer comes from one cosine and the Chebyshev recurrence
    # (reals.q_combination); the sine quotient is the tests' oracle
    assert SOURCES and [path.name for path in SOURCES if "sinpi" in path.read_text()] == []


def test_no_module_imports_mpmath():
    # every real is taken with ints and the standard decimal module (reals);
    # mpmath is the tests' oracle, not a dependency of the package
    assert SOURCES and [path.name for path in SOURCES if "mpmath" in path.read_text()] == []


def test_every_plain_cap_is_checked_by_check_cap():
    # a value past its cap is refused in one place; the digit limit of an answer is not a value against a cap
    found = [name
             for path in SOURCES
             for name in _raises_of(ast.parse(path.read_text(), filename=str(path)), path.stem, "CapExceeded")]
    assert sorted(found) == ["cli._render", "scalars.check_cap"]


def test_no_private_name_is_imported_across_modules():
    found = [f"{path.stem} imports {node.module or ''}.{alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("semisimple"))
             for alias in node.names if alias.name.startswith("_")]
    assert SOURCES and found == []


def test_code_line_counter_skips_docstrings_comments_and_blanks():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    source = ('"""Module docstring."""\n\nimport os  # a comment\n\n\n'
              'def f(x):\n    """Two-line\n    docstring."""\n    # a comment\n    return (x +\n            1)\n\n'
              'S = """a string on\ntwo lines"""\n')
    assert counter.code_lines(source) == 6  # import, def, return on two lines, S on two lines

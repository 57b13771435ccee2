"""Every function, class and method in ``src/weil`` is reached from ``src/weil``.

A definition counts as reached when some other line of the package names it:
an AST ``Name``, an ``Attribute`` or an import.  A function only the tests
call belongs in the tests.  Two kinds of name are exempt: library API that
``README.md`` documents (any identifier written in backticks there), and the
sites ``bench/tracer.py`` wraps by name (the tracer is read, not modified).
Special methods (``__init__`` and the like) are called by the language.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weil"


def _documented():
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {name for span in spans for name in re.findall(r"\w+", span)}


def _traced():
    """Names in the tracer's "weil.module:attr" sites, and attributes it reads
    off a module it imports, as ``import_module("weil.schur_oracle").domain_weight``."""
    names = set()
    for node in ast.walk(ast.parse((ROOT / "bench" / "tracer.py").read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            site = re.fullmatch(r"weil\.\w+:([\w.]+)", node.value)
            if site:
                names.update(site.group(1).split("."))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call):
            if any(isinstance(arg, ast.Constant) and str(arg.value).startswith("weil.")
                   for arg in node.value.args):
                names.add(node.attr)
    return names


def _unreached():
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    exempt = referenced | _documented() | _traced()
    return [f"{module}:{name}" for module, name in defined
            if name not in exempt and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_reached_from_the_package():
    assert _unreached() == []

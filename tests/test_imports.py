"""Every name a module imports at module level is read somewhere in it, and
every file the package opens, reads or writes names its encoding.

Run as a script, it prints the package's lines by kind (see line_kinds):

    python tests/test_imports.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pathsgd").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# The file calls that take the locale's encoding unless told otherwise.
TEXT_IO = ("open", "read_text", "write_text")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_import_check_flags_dead_names():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(src) == ["os (line 1)", "c (line 3)"]


def test_no_unused_imports():
    assert SOURCES
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}


def calls_without_encoding(source: str) -> list[str]:
    """Calls of open, read_text or write_text (as a name or a method) that
    pass no encoding; the package does no binary file I/O."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in TEXT_IO and not any(k.arg == "encoding" for k in node.keywords):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_encoding_check_flags_planted_calls():
    src = ("from pathlib import Path\n"
           "open('a')\n"
           "open('b', 'w', encoding='utf-8')\n"
           "Path('c').read_text()\n"
           "Path('d').write_text('x', encoding='utf-8')\n"
           "Path('e').open('w')\n")
    assert calls_without_encoding(src) == ["open (line 2)", "read_text (line 4)",
                                           "open (line 6)"]


def test_package_text_io_names_its_encoding():
    """Text is read and written as UTF-8 whatever the locale."""
    assert PACKAGE
    found = {p.relative_to(ROOT).as_posix(): calls_without_encoding(
        p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {}


KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """The lines of source counted by kind: blank (whitespace only, also
    inside a docstring), docstring (the other lines of a module, class or
    function docstring), comment (a comment with no code before it) and
    code (the rest), so that neither code nor prose can hide the other."""
    lines = source.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        row, col = tok.start
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            kinds[row - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            for row in range(doc.lineno - 1, doc.end_lineno):
                if kinds[row] != "blank":
                    kinds[row] = "docstring"
    return {kind: kinds.count(kind) for kind in KINDS}


def test_line_kinds_counts_planted_source():
    src = ('"""Module\n\ndocstring."""\n'
           "\n"
           "# a comment\n"
           "x = 1  # code with a comment\n"
           "\n"
           "def f():\n"
           '    """One line."""\n'
           "    s = \"\"\"not a\n"
           "    docstring\"\"\"\n"
           "    return s\n")
    assert line_kinds(src) == {"code": 5, "docstring": 3, "comment": 1, "blank": 3}


if __name__ == "__main__":
    total = dict.fromkeys(KINDS, 0)
    for path in PACKAGE:
        counts = line_kinds(path.read_text(encoding="utf-8"))
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(path.relative_to(ROOT).as_posix(), counts)
    print("total", sum(total.values()), total)

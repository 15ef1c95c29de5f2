"""Every private or dotted name the docs put in backticks names something
in the source, so a refactor cannot leave a stale name behind.

The docs are `README.md` and the docstrings and comments of the package's
modules.  A backticked span that is a name, maybe followed by a call's
arguments, is checked when it starts with ``_`` or is dotted; each dotted
part must be a module of the package or a name the package's source
defines or reads (parsed with `ast`), a string that is a name included, as
the attribute ``_passed`` is set and read through strings.  A file name
such as ``g.gsw`` is no dotted name.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "gsworkbench").glob("*.py"))

SPAN = re.compile(r"`+([^`]+?)`+")
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
FILE_SUFFIXES = {"gsw", "json", "md", "py", "toml"}


def source_names():
    """The modules of the package, and every name its source defines or
    reads: names, attributes, definitions, arguments, keywords, imports and
    strings that are names."""
    names = {"gsworkbench"} | {path.stem for path in MODULES}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def doc_texts(path):
    """`path`'s text if it is not Python, else its docstrings and comments."""
    source = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return [source]
    texts = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return texts + [token.string for token in tokens if token.type == tokenize.COMMENT]


def checked_names(path):
    """The private or dotted names `path`'s docs put in backticks, in order."""
    out = []
    for text in doc_texts(path):
        for span in SPAN.finditer(text):
            match = NAME.fullmatch(span.group(1).strip())
            if match:
                parts = match.group(1).split(".")
                if (parts[0].startswith("_") or len(parts) > 1) and parts[-1] not in FILE_SUFFIXES:
                    out.append(match.group(1))
    return out


NAMES = source_names()


def stale_names(path):
    """The names of `checked_names(path)` that name nothing in the source."""
    return [name for name in checked_names(path) if not set(name.split(".")) <= NAMES]


@pytest.mark.parametrize("doc", ["README.md"] + [path.relative_to(ROOT).as_posix() for path in MODULES])
def test_backticked_names_name_something_in_the_source(doc):
    assert stale_names(ROOT / doc) == []


def test_a_stale_name_is_found(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`_by_skeleton(memo)` and ``engine._gone``, not `g.gsw` or `gsw index`\n", encoding="utf-8")
    assert checked_names(doc) == ["_by_skeleton", "engine._gone"]
    assert stale_names(doc) == ["engine._gone"]

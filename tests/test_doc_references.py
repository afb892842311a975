"""The docs, the verify skill and CI name only things that exist.

Every repository path they mention, every dotted ``repro.*`` name and
every ``repro <subcommand>`` shown as code must resolve in this checkout,
so a deleted file, a moved module or a renamed subcommand cannot leave
a stale instruction behind.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import _parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
     ROOT / ".github" / "workflows" / "ci.yml"]
    + list((ROOT / "docs").glob("*.md")))

PATH = re.compile(r"(?<![\w./-])((?:src|tools|perfbench|tests|benchmarks"
                  r"|examples|docs)/[\w./*<>-]*)")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
# a shell invocation, not Python's ``from repro import ...``
SUBCOMMAND = re.compile(r"(?<![\w./-])(?<!from )repro +([a-z][\w-]*)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")


def _lines(document):
    """Yield ``(line number, text)`` for every line of *document*."""
    text = document.read_text(encoding="utf-8")
    yield from enumerate(text.splitlines(), start=1)


def _code(document):
    """Yield ``(line number, code)`` for the code in *document*.

    A workflow file is all code; in Markdown, fenced blocks and inline
    code spans are.
    """
    if document.suffix != ".md":
        yield from _lines(document)
        return
    fenced = False
    for number, line in _lines(document):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            yield number, line
        else:
            for span in INLINE_CODE.findall(line):
                yield number, span


def _where(document, number):
    return f"{document.relative_to(ROOT)}:{number}"


def _resolves(dotted):
    """Whether *dotted* names a module, or an attribute of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _subcommands():
    for action in _parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("repro's parser has no subcommands")


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_repository_paths_exist(document):
    stale = []
    for number, line in _lines(document):
        for path in PATH.findall(line):
            path = path.rstrip(".")
            if any(char in path for char in "*<>"):
                continue  # a pattern or placeholder, not a path
            if not (ROOT / path).exists():
                stale.append(f"{_where(document, number)}: {path}")
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_dotted_names_resolve(document):
    stale = [f"{_where(document, number)}: {name}"
             for number, line in _lines(document)
             for name in DOTTED.findall(line)
             if not _resolves(name)]
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_cli_subcommands_exist(document):
    known = _subcommands()
    stale = [f"{_where(document, number)}: repro {name}"
             for number, code in _code(document)
             for name in SUBCOMMAND.findall(code)
             if name not in known]
    assert not stale, "\n".join(stale)

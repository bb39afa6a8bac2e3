"""The docs name only CLI flags and repository paths that exist.

Every ``repro <command> [<subcommand>] ... --flag`` in a fenced code
block of ``docs/*.md``, README.md or EXPERIMENTS.md must name a flag
that :func:`repro.cli.build_parser` defines for that (sub)command.
Every backticked path with a directory part in those files must exist
relative to the repository root or to ``src/repro/``, and every
backticked dotted ``repro.…`` name must resolve by import and getattr.
"""

import argparse
import glob
import importlib
import os
import re

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
DOCS = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, "README.md"), os.path.join(ROOT, "EXPERIMENTS.md")]

FENCE = re.compile(r"\s*(`{3,}|~{3,})")
#: ``repro`` as a command word, then everything up to a shell separator
#: or comment.
COMMAND = re.compile(r"(?:^|[\s$(`])repro\s+([^;|&#\n]*)")


def fenced_lines(text):
    """The lines of every fenced code block, ``\\``-continuations
    joined and ``#`` comments dropped."""
    fence, block = None, []
    for line in text.splitlines():
        match = FENCE.match(line)
        if fence is None:
            if match:
                fence, block = match.group(1)[0], []
            continue
        if match and match.group(1)[0] == fence:
            joined = re.sub(r"\\\n\s*", " ", "\n".join(block))
            for command in joined.splitlines():
                yield re.sub(r"(^|\s)#.*", "", command)
            fence = None
            continue
        block.append(line)


def subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def documented_commands():
    """``(doc, command words, flags)`` for each documented command that
    names at least one flag."""
    for path in DOCS:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for line in fenced_lines(text):
            for match in COMMAND.finditer(line):
                words = match.group(1).split()
                flags = [word.split("=")[0] for word in words
                         if word.startswith("--")]
                if flags:
                    yield os.path.relpath(path, ROOT), words, flags


def test_documented_flags_exist():
    parser = build_parser()
    checked = 0
    for doc, words, flags in documented_commands():
        target, path = parser, ["repro"]
        for word in words:
            choices = subparsers(target)
            if word not in choices:
                break
            target = choices[word]
            path.append(word)
        assert len(path) > 1, f"{doc}: `repro {' '.join(words)}` names " \
                              "no command"
        known = set(target._option_string_actions)
        unknown = [flag for flag in flags if flag not in known]
        assert not unknown, (f"{doc}: `{' '.join(path)}` has no "
                             f"{', '.join(unknown)}")
        checked += 1
    # The scan must see the docs' commands, not pass on an empty list.
    assert checked >= 30, checked


#: A backticked token shaped like a relative path (``<name>`` and ``*``
#: stand for any name), optionally a pytest node id (``file::Test``).
PATH = re.compile(r"`(\w[\w.*<>-]*(?:/[\w.*<>-]+)+/?)(?:::\w+)?`")


def documented_paths():
    """``(doc:line, path)`` for each backticked path in the docs.  A
    token counts as a path when its first part is a directory at the
    root or under ``src/repro/``, or its last part has a file
    extension; layer names such as ``stdlib/other`` and ratios such as
    ``W/N`` are neither."""
    for doc in DOCS:
        with open(doc, "r", encoding="utf-8") as fh:
            text = fh.read()
        for match in PATH.finditer(text):
            path = match.group(1)
            first = path.split("/", 1)[0]
            if not (any(os.path.isdir(os.path.join(base, first))
                        for base in (ROOT, SRC))
                    or re.search(r"\.\w+$", path)):
                continue
            line = text.count("\n", 0, match.start()) + 1
            yield f"{os.path.relpath(doc, ROOT)}:{line}", path


def test_documented_paths_exist():
    missing = []
    checked = 0
    for where, path in documented_paths():
        pattern = re.sub(r"<[^>]*>", "*", path)
        if not any(glob.glob(os.path.join(base, pattern))
                   for base in (ROOT, SRC)):
            missing.append(f"{where}: `{path}`")
        checked += 1
    assert not missing, "\n".join(missing)
    assert checked >= 30, checked


#: A backticked dotted name under the package, e.g.
#: ``repro.exp.bench.build_experiment``.
DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")


def resolve(name):
    """The object ``name`` names: its longest importable module prefix,
    then an attribute lookup for each remaining part."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


def test_documented_names_resolve():
    missing = []
    checked = 0
    for doc in DOCS:
        with open(doc, "r", encoding="utf-8") as fh:
            text = fh.read()
        for match in DOTTED.finditer(text):
            try:
                resolve(match.group(1))
            except (ImportError, AttributeError) as exc:
                line = text.count("\n", 0, match.start()) + 1
                missing.append(f"{os.path.relpath(doc, ROOT)}:{line}: "
                               f"`{match.group(1)}` ({exc})")
            checked += 1
    assert not missing, "\n".join(missing)
    assert checked >= 60, checked

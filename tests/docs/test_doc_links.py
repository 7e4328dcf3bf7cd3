"""Docs link check: every relative link in docs/ and ROADMAP.md resolves,
and so does every ``*.md`` page a source file under src/ or benchmarks/
points its reader at.

Run by the tier-1 suite and by CI's docs link-check step, so a renamed
page or a typoed path fails the build instead of rotting silently.
"""

from __future__ import annotations

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Inline markdown links: [text](target). Images share the syntax.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Backticked repo paths we also verify (docs name many files inline).
CODE_PATH = re.compile(r"`((?:src|tests|benchmarks|docs|bench)/[^`*?]+?)`")
EXTERNAL = ("http://", "https://", "mailto:")
#: A markdown page named in Python source, as a path from the repo root.
MD_NAME = re.compile(r"(?<![\w./-])[\w./-]+\.md\b")


def doc_files() -> list[pathlib.Path]:
    files = sorted((REPO / "docs").glob("*.md"))
    files.append(REPO / "ROADMAP.md")
    assert files, "no docs found"
    return files


def test_required_pages_exist():
    for name in ("README.md", "architecture.md", "async_io.md",
                 "benchmarks.md", "sharding.md", "replication.md"):
        assert (REPO / "docs" / name).is_file(), f"docs/{name} missing"


def test_relative_links_resolve():
    broken = []
    for doc in doc_files():
        text = doc.read_text()
        for match in LINK.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or target.startswith(EXTERNAL):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                broken.append(f"{doc.relative_to(REPO)} -> {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


def test_backticked_repo_paths_exist():
    """Docs cite source files by path; keep the citations honest.

    Only plain file paths are checked (no globs, no `::`-qualified test
    ids, no `{a,b}` shorthands, no `module.symbol` dotted references,
    no elided `…` listings) — a cited path must end in a real file
    extension to be held to existence.
    """
    extensions = (".py", ".md", ".txt", ".yml", ".yaml", ".json")
    broken = []
    for doc in doc_files():
        text = doc.read_text()
        for match in CODE_PATH.finditer(text):
            target = match.group(1)
            if any(ch in target for ch in "{}<>:,…") or " " in target:
                continue
            if not target.endswith(extensions):
                continue
            if not (REPO / target).exists():
                broken.append(f"{doc.relative_to(REPO)} -> {target}")
    assert not broken, "stale repo paths in docs:\n" + "\n".join(broken)


def test_md_pages_named_in_source_exist():
    sources = sorted((REPO / "src").rglob("*.py")) + sorted(
        (REPO / "benchmarks").glob("*.py"))
    named = [(source.relative_to(REPO), name)
             for source in sources
             for name in MD_NAME.findall(source.read_text())]
    assert len(named) > 10, "the scan found almost nothing"
    broken = [f"{source} -> {name}" for source, name in named
              if not (REPO / name).is_file()]
    assert not broken, "source names missing pages:\n" + "\n".join(broken)

"""The docs site's references resolve against the tree.

``mkdocs build --strict`` fails on a ``::: dotted.name`` directive whose
target is gone and on a ``nav`` entry whose page is missing.  These
checks run the same two lookups with the standard library alone, so a
deleted module or page fails tier-1 instead of only the docs build.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"

DIRECTIVE = re.compile(r"^:::\s+(\S+)", re.MULTILINE)


def api_directives() -> list[tuple[str, str]]:
    """``(page, dotted name)`` for every mkdocstrings directive in docs/api."""
    return [
        (page.name, name)
        for page in sorted((DOCS / "api").glob("*.md"))
        for name in DIRECTIVE.findall(page.read_text())
    ]


def nav_pages() -> list[str]:
    """Every ``*.md`` target in the ``nav`` block of mkdocs.yml.

    The block runs from the top-level ``nav:`` key to the next top-level
    key; each entry is ``- page.md`` or ``- Title: page.md``.
    """
    pages = []
    in_nav = False
    for line in (ROOT / "mkdocs.yml").read_text().splitlines():
        if re.match(r"^\S", line):
            in_nav = line.startswith("nav:")
            continue
        match = re.match(r"^\s*-\s+(?:.*:\s+)?(\S+\.md)\s*$", line)
        if in_nav and match:
            pages.append(match.group(1).strip("\"'"))
    return pages


def resolve(dotted: str) -> object:
    """Import the longest module prefix, then walk the remaining attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


def test_every_api_page_has_a_directive():
    pages = {page.name for page in (DOCS / "api").glob("*.md")}
    assert {page for page, _ in api_directives()} == pages


@pytest.mark.parametrize(("page", "dotted"), api_directives())
def test_api_directive_imports(page, dotted):
    assert resolve(dotted) is not None, f"{page}: ::: {dotted}"


def test_nav_lists_every_api_page():
    pages = nav_pages()
    for page in sorted((DOCS / "api").glob("*.md")):
        assert f"api/{page.name}" in pages


@pytest.mark.parametrize("page", nav_pages())
def test_nav_page_exists(page):
    assert (DOCS / page).is_file(), f"mkdocs.yml nav names missing page {page}"

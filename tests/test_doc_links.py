"""Every relative link and path reference in the doc suite must point
at a file that exists.  The docs are part of the product here (this repo
exists to explain a reproduction); a dangling link is a regression the
same way a failing import is.  CI runs this as its docs gate.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the maintained doc suite (PAPER/PAPERS/SNIPPETS/ISSUE are generated
#: inputs, not docs we own)
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/SIMULATION.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)[^)]*\)")
#: backtick-quoted repo paths like ``src/repro/sim/engine.py`` — the doc
#: suite leans on these heavily, so stale ones rot just like links
_PATH = re.compile(
    r"`((?:src|tests|docs|benchmarks)/[A-Za-z0-9_./-]+"
    r"\.(?:py|md|json|yml|toml))`")


def _targets(text):
    for match in _LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        yield target
    for match in _PATH.finditer(text):
        yield match.group(1)


@pytest.mark.parametrize("doc", DOCS)
def test_doc_links_resolve(doc):
    path = os.path.join(REPO, doc)
    assert os.path.exists(path), f"doc suite file missing: {doc}"
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    base = os.path.dirname(path)
    missing = []
    for target in _targets(text):
        resolved = os.path.normpath(os.path.join(base, target))
        rooted = os.path.normpath(os.path.join(REPO, target))
        if not (os.path.exists(resolved) or os.path.exists(rooted)):
            missing.append(target)
    assert not missing, f"{doc}: dangling references: {sorted(set(missing))}"


def test_doc_suite_is_cross_linked():
    """docs/SIMULATION.md is reachable from the architecture doc and
    DESIGN.md (the satellite contract of the doc suite)."""
    for doc in ("docs/ARCHITECTURE.md", "DESIGN.md"):
        with open(os.path.join(REPO, doc), encoding="utf-8") as handle:
            assert "SIMULATION.md" in handle.read(), \
                f"{doc} does not link docs/SIMULATION.md"

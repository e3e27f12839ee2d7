"""Every exported name has a caller in the package or the benchmark.

A name counts as called when it appears as a name token (not inside a
string or comment) in some src/assocnet/*.py or perfbench/*.py file,
other than the package's __init__.py and the def or class line that
defines it. Tests do not count: a name only tests reach is dead code.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

import assocnet

ROOT = Path(__file__).resolve().parents[1]

# Exports kept without a caller, each for a stated reason.
KEEP = {
    "covariance_matrix": "the README's entry point for raw sample data",
    "cooccurrence_pvalues": "awaits an incidence-input infer path; criterion 09 checks it",
}


def called_names() -> set[str]:
    files = sorted((ROOT / "src" / "assocnet").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    names = set()
    for path in files:
        if path.name == "__init__.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        previous = None
        for tok in tokens:
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = tok.string
    return names


def test_every_export_has_a_caller():
    called = called_names()
    uncalled = sorted(
        name for name in assocnet.__all__ if name not in called and name not in KEEP
    )
    assert uncalled == []


def test_keep_list_names_real_exports():
    assert set(KEEP) <= set(assocnet.__all__)

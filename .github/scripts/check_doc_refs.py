#!/usr/bin/env python3
"""Fails when a document cites code or a DESIGN section that is not there.

Checked in README.md, DESIGN.md, EXPERIMENTS.md and ROADMAP.md:

* `path:N`, `path:N-M` and `path:N,M,...` name a file that exists,
  relative to the repository root, and lines inside it. A bare basename
  (`threaded.rs:84`) is refused: two `threaded.rs` files exist. So is a
  bare `:N` continuing an earlier citation; write the path again.
* `DESIGN.md §N`, and inside DESIGN.md a bare `§N` or `§§N–M` that no
  other document qualifies (`paper §5`, `SNIPPETS.md §1`), name a
  `## N.` heading of DESIGN.md. Dotted numbers (`§4.2.4`) are the
  paper's sections and are not checked.

Run from anywhere: python3 .github/scripts/check_doc_refs.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]

CITE = re.compile(
    r"(?<![\w./-])([\w./-]+\.(?:rs|md|toml|sh|json|yml|py)):(\d+(?:-\d+)?(?:,\d+(?:-\d+)?)*)"
)
BARE_LINE = re.compile(r"`:\d+(?:-\d+)?`")
# A section reference, with the word before it: `§N`, `§§N–M`, `§N–§M`.
SECTION = re.compile(r"(\S+\s+)?§§?(\d+(?:\.\d+)*)(?:[–-]§?(\d+(?:\.\d+)*))?")


def design_headings():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return {int(n) for n in re.findall(r"^## (\d+)\.", text, re.M)}


def check_citations(doc, lineno, line, errors):
    for m in CITE.finditer(line):
        path, spans = m.group(1), m.group(2)
        where = f"{doc}:{lineno}: `{m.group(0)}`"
        target = ROOT / path
        if not target.is_file():
            hint = " (a bare basename? give the repo-relative path)" if "/" not in path else ""
            errors.append(f"{where} names no file{hint}")
            continue
        count = len(target.read_text(encoding="utf-8", errors="replace").splitlines())
        for span in spans.split(","):
            lo, _, hi = span.partition("-")
            lo, hi = int(lo), int(hi or lo)
            if not 1 <= lo <= hi <= count:
                errors.append(f"{where}: line {span} is outside {path} ({count} lines)")
    for m in BARE_LINE.finditer(line):
        errors.append(f"{doc}:{lineno}: {m.group(0)} has no path; repeat the file")


def check_sections(doc, lineno, line, headings, errors):
    for m in SECTION.finditer(line):
        before = (m.group(1) or "").strip().strip("(`*")
        numbers = [n for n in (m.group(2), m.group(3)) if n]
        if any("." in n for n in numbers):
            continue  # the paper's numbering
        if before == "DESIGN.md":
            pass
        elif doc != "DESIGN.md" or before.endswith(".md") or before.startswith("paper"):
            continue  # another document's sections
        for n in numbers:
            if int(n) not in headings:
                errors.append(f"{doc}:{lineno}: §{n} names no DESIGN.md heading")


def main():
    headings = design_headings()
    errors = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            check_citations(doc, lineno, line, errors)
            check_sections(doc, lineno, line, headings, errors)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{len(errors)} dangling doc reference(s)", file=sys.stderr)
        return 1
    print("doc references ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

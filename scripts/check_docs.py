#!/usr/bin/env python3
"""Repo documentation checks, run by the CI docs job.

1. Markdown link check: every relative link in README.md and docs/*.md
   must resolve to an existing file or directory (http(s)/mailto links
   and pure #anchors are skipped; a #fragment on a relative link is
   stripped before the existence check).
2. Header-banner check: every *.{h,cpp} file in every subdirectory of
   src/ must open with the repo's //===--- banner and carry a \\file
   doxygen marker.

The summary line also prints the line count of src/, which the ROADMAP
tracks like a perf number.  Exits non-zero with one line per violation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

def check_links(md_files):
    problems = []
    for md in md_files:
        text = md.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
    return problems

def check_banners(src_files):
    problems = []
    for src in src_files:
        head = src.read_text(encoding="utf-8", errors="replace")[:600]
        rel = src.relative_to(REPO)
        if not head.startswith("//===--"):
            problems.append(f"{rel}: missing //===--- header banner")
        if "\\file" not in head:
            problems.append(f"{rel}: missing \\file doxygen marker")
    return problems

def main():
    md_files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    md_files = [f for f in md_files if f.exists()]
    src_files = sorted(f for f in (REPO / "src").glob("*/*")
                       if f.suffix in (".h", ".cpp"))
    src_lines = sum(len(f.read_bytes().splitlines())
                    for f in (REPO / "src").rglob("*") if f.is_file())

    problems = check_links(md_files) + check_banners(src_files)
    for p in problems:
        print(p)
    print(f"checked {len(md_files)} markdown files, "
          f"{len(src_files)} sources; src/ holds {src_lines} lines: "
          f"{'FAIL' if problems else 'OK'}")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())

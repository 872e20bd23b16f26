#!/usr/bin/env python3
"""Repo-invariant linter, run as a CI gate (and locally: python3 tools/lint.py).

Checks structural invariants the compiler cannot:

  1. No raw synchronization primitives outside src/common/sync.h.
     Every mutex must come through the capability-annotated wrappers so
     Clang's thread-safety analysis sees it; a raw std::mutex is
     invisible to the analysis and silently un-checked.

  2. No <iostream> in src/ headers. Including it injects the static
     ios_base::Init constructor into every translation unit and drags
     stream machinery into library headers; libraries report through
     return values and exceptions, binaries own stdout.

  3. MIME_NO_THREAD_SAFETY_ANALYSIS is budgeted: at most 3 uses
     tree-wide (excluding its definition in sync.h), and every use must
     carry an adjacent justification comment. The escape hatch exists
     for patterns the analysis genuinely cannot express, not for
     silencing findings.

  4. No #include "hw/..." under src/serve/. The systolic-array
     simulator models an accelerator the server never runs on, and
     mime_serve does not link mime_hw. perfbench links only mime_serve
     and the CI build does not build it, so a stray include would
     otherwise first surface as a perfbench build failure.

Exit status 0 when clean, 1 with findings (one per line, grep-style).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
SYNC_HEADER = REPO / "src" / "common" / "sync.h"

RAW_SYNC_PATTERN = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
HW_INCLUDE_PATTERN = re.compile(r'#\s*include\s*"hw/')
SERVE_DIR = REPO / "src" / "serve"
ESCAPE_HATCH = "MIME_NO_THREAD_SAFETY_ANALYSIS"
ESCAPE_BUDGET = 3


def source_files() -> list[Path]:
    files: list[Path] = []
    for top in SCAN_DIRS:
        root = REPO / top
        if not root.is_dir():
            continue
        files.extend(
            p for p in sorted(root.rglob("*")) if p.suffix in SOURCE_SUFFIXES
        )
    return files


def strip_comments(line: str) -> str:
    """Drop // comments so prose about std::mutex does not trip rule 1.

    (Block comments spanning lines are rare in this tree and never
    mention primitive spellings mid-block; line-level stripping keeps
    the linter trivially auditable.)
    """
    return line.split("//", 1)[0]


def check_raw_sync(path: Path, lines: list[str], findings: list[str]) -> None:
    if path == SYNC_HEADER:
        return
    for number, line in enumerate(lines, start=1):
        match = RAW_SYNC_PATTERN.search(strip_comments(line))
        if match:
            findings.append(
                f"{path.relative_to(REPO)}:{number}: raw '{match.group(0)}' "
                f"outside src/common/sync.h — use Mutex/MutexLock/CondVar "
                f"so the thread-safety analysis can see it"
            )


def check_iostream_in_headers(
    path: Path, lines: list[str], findings: list[str]
) -> None:
    if path.suffix not in {".h", ".hpp"}:
        return
    if (REPO / "src") not in path.parents:
        return
    for number, line in enumerate(lines, start=1):
        if re.search(r"#\s*include\s*<iostream>", strip_comments(line)):
            findings.append(
                f"{path.relative_to(REPO)}:{number}: <iostream> in a src/ "
                f"header — headers must not pull in stream machinery"
            )


def check_hw_in_serve(
    path: Path, lines: list[str], findings: list[str]
) -> None:
    if SERVE_DIR not in path.parents:
        return
    for number, line in enumerate(lines, start=1):
        if HW_INCLUDE_PATTERN.search(strip_comments(line)):
            findings.append(
                f"{path.relative_to(REPO)}:{number}: src/serve includes "
                f"src/hw — serving must not depend on the simulator"
            )


def has_adjacent_comment(lines: list[str], index: int) -> bool:
    """A justification is a comment on the use's line or either of the
    two lines above it (attribute lines often sit between the comment
    and the declaration)."""
    if "//" in lines[index]:
        return True
    for back in (1, 2):
        if index - back >= 0 and lines[index - back].lstrip().startswith("//"):
            return True
    return False


def check_escape_budget(files: list[Path], findings: list[str]) -> None:
    uses: list[tuple[Path, int]] = []
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if ESCAPE_HATCH not in line:
                continue
            if path == SYNC_HEADER:
                continue  # the definition site
            uses.append((path, number))
            if not has_adjacent_comment(lines, number - 1):
                findings.append(
                    f"{path.relative_to(REPO)}:{number}: {ESCAPE_HATCH} "
                    f"without an adjacent justification comment"
                )
    if len(uses) > ESCAPE_BUDGET:
        where = ", ".join(
            f"{p.relative_to(REPO)}:{n}" for p, n in uses
        )
        findings.append(
            f"{ESCAPE_HATCH} used {len(uses)} times (budget "
            f"{ESCAPE_BUDGET}): {where}"
        )


def main() -> int:
    files = source_files()
    findings: list[str] = []
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        check_raw_sync(path, lines, findings)
        check_iostream_in_headers(path, lines, findings)
        check_hw_in_serve(path, lines, findings)
    check_escape_budget(files, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

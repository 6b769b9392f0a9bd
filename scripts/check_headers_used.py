#!/usr/bin/env python3
"""Fail when a header under src/ is included by nothing but its own .cpp.

A module that no library code, bench, example or perfbench program
reaches is dead weight in the library.  This walks src/, bench/,
examples/ and perfbench/ for ``#include "..."`` lines and reports every
src/ header that no file includes, not counting the header's own
``.cpp`` (``foo.cpp`` including ``foo.h``).  Tests do not count as
users: a module only tests reach is still unreachable.  Standard
library only; exits non-zero with one line per unused header.

    python3 scripts/check_headers_used.py [repo-root]
"""
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
USER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")


def sources(root, top):
    for dirpath, _, filenames in os.walk(os.path.join(root, top)):
        for name in filenames:
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    src = os.path.join(root, "src")
    headers = {
        os.path.relpath(path, src)
        for path in sources(root, "src")
        if path.endswith((".h", ".hpp"))
    }
    used = set()
    for top in USER_DIRS:
        for path in sources(root, top):
            with open(path, encoding="utf-8") as fh:
                includes = INCLUDE_RE.findall(fh.read())
            own = os.path.splitext(os.path.relpath(path, src))[0]
            for inc in includes:
                # src/ is on every target's include path, so includes name
                # headers relative to it.
                if inc in headers and not (
                    path.endswith(".cpp") and os.path.splitext(inc)[0] == own
                ):
                    used.add(inc)
    unused = sorted(headers - used)
    for header in unused:
        print(f"src/{header}: included by no file in "
              f"{', '.join(USER_DIRS)} except its own .cpp")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())

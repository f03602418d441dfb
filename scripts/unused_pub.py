#!/usr/bin/env python3
"""List public items in `crates/*/src` that nothing outside their tests uses.

An item is a `pub fn|struct|enum|const|type|trait NAME` declared before
its file's first `#[cfg(test)]`. It is flagged when NAME occurs as a
whole word in no other `.rs` file under `crates/`, `tests/`,
`examples/`, `src/` or `perfbench/src/`, and nowhere in its own file's
non-test part except on the declaration line. Comment lines and
`pub use` / `pub mod` lines are not references; `target/` is skipped.

The check is word-based, not name-resolved: an unused item whose name is
also used for something else (a field, a local, a method of another
type) is not reported.

Usage: scripts/unused_pub.py [ROOT]   (default: the repository root)
Prints one `path:line: kind NAME` per unused item; exits 1 if any.
"""

import os
import re
import sys

SEARCH_DIRS = ("crates", "tests", "examples", "src", os.path.join("perfbench", "src"))
DECL = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|const|type|trait)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CFG_TEST = "#[cfg(test)]"


def rust_files(root):
    for top in SEARCH_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name)


def is_reference_line(line):
    s = line.lstrip()
    return not (s.startswith("//") or re.match(r"pub\s+(use|mod)\b", s))


def words(lines):
    out = set()
    for line in lines:
        if is_reference_line(line):
            out.update(WORD.findall(line))
    return out


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    files = {}
    for path in rust_files(root):
        with open(path, encoding="utf-8") as f:
            files[path] = f.read().splitlines()

    file_words = {p: words(lines) for p, lines in files.items()}
    unused = []
    for path, lines in files.items():
        parts = os.path.relpath(path, root).split(os.sep)
        if len(parts) < 4 or parts[0] != "crates" or parts[2] != "src":
            continue
        cut = next((i for i, l in enumerate(lines) if l.strip() == CFG_TEST), len(lines))
        head = lines[:cut]
        for i, line in enumerate(head):
            m = DECL.match(line)
            if not m:
                continue
            kind, name = m.groups()
            if any(name in file_words[p] for p in files if p != path):
                continue
            if any(j != i and is_reference_line(l) and name in WORD.findall(l)
                   for j, l in enumerate(head)):
                continue
            unused.append(f"{os.path.relpath(path, root)}:{i + 1}: {kind} {name}")
    for item in unused:
        print(item)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())

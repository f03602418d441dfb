#!/usr/bin/env python3
"""List public items in `crates/*/src` that nothing outside their tests uses.

An item is a `pub fn|struct|enum|const|type|trait NAME` declared before
its file's first `#[cfg(test)]`. It is flagged when NAME is referenced
in no other `.rs` file under `crates/`, `tests/`, `examples/`, `src/`
or `perfbench/src/`, and nowhere in its own file's non-test part except
on the declaration line. Comment lines and `pub use` / `pub mod` lines
are not references; `target/` is skipped.

A reference to a `pub fn` is call-shaped: `.NAME(`, `::NAME`, or
`NAME(` not preceded by `fn ` (a turbofish `NAME::<` counts as `NAME(`), so a method that shares its name with a
field or a local is still reported. Any other item is referenced by its
name as a whole word. The check is by name, not name-resolved: an
unused item whose name is also used for something else of the same
shape (a method of another type, say) is not reported.

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
CALL = re.compile(r"(?<!fn )\b([A-Za-z_][A-Za-z0-9_]*)(?:\(|::<)")
PATH = re.compile(r"::([A-Za-z_][A-Za-z0-9_]*)")
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


def names(lines):
    """The names `lines` mention: `(words, calls)`, where `calls` holds
    only the call-shaped mentions (`::NAME`, `NAME(`, `NAME::<`, but not
    `fn NAME(`)."""
    text = "\n".join(l for l in lines if is_reference_line(l))
    return set(WORD.findall(text)), set(CALL.findall(text)) | set(PATH.findall(text))


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    files = {}
    for path in rust_files(root):
        with open(path, encoding="utf-8") as f:
            files[path] = f.read().splitlines()

    file_names = {p: names(lines) for p, lines in files.items()}
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
            which = 1 if kind == "fn" else 0
            if any(name in file_names[p][which] for p in files if p != path):
                continue
            if name in names(head[:i] + head[i + 1:])[which]:
                continue
            unused.append(f"{os.path.relpath(path, root)}:{i + 1}: {kind} {name}")
    for item in unused:
        print(item)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())

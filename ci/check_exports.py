#!/usr/bin/env python3
"""Export gate: every value a library interface exports has a reader.

For each `val NAME` in lib/**/*.mli, look for NAME as a whole word (an
operator as a whole operator) in the .ml and .mli files under lib, bin,
bench, hostbench, examples and test, leaving out the module's own
.ml/.mli pair.  A value found nowhere else is listed and the script
exits 1; un-export it, delete it, or give it a reader.

The match is textual and unqualified, so a common name used by another
module counts as read.  The gate catches exports nobody could be
using, not every unused one.

Run from anywhere: python3 ci/check_exports.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ["lib", "bin", "bench", "hostbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+(?:\(\s*(\S+)\s*\)|([a-z_][A-Za-z0-9_']*))\s*:")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
OP_CHARS = "!$%&*+-./:<=>?@^|~"


def sources():
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "_build")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        return f.read()


def main():
    files = {path: read(path) for path in sources()}
    words = {path: set(WORD.findall(text)) for path, text in files.items()}
    unread = []
    for mli in sorted(p for p in files if p.startswith("lib/") and p.endswith(".mli")):
        pair = {mli, mli[:-1]}
        others = [p for p in files if p not in pair]
        for lineno, line in enumerate(files[mli].splitlines(), 1):
            m = VAL.match(line)
            if not m:
                continue
            op, name = m.groups()
            if name is not None:
                read_elsewhere = any(name in words[p] for p in others)
            else:
                pattern = re.compile(
                    "(?<![%s])%s(?![%s])"
                    % (re.escape(OP_CHARS), re.escape(op), re.escape(OP_CHARS))
                )
                read_elsewhere = any(pattern.search(files[p]) for p in others)
            if not read_elsewhere:
                unread.append("%s:%d: val %s" % (mli, lineno, name or "( %s )" % op))
    if unread:
        print("exported values with no reader outside their own module:")
        for entry in unread:
            print("  " + entry)
        return 1
    print("every exported value has a reader outside its own module")
    return 0


if __name__ == "__main__":
    sys.exit(main())

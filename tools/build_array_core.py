#!/usr/bin/env python3
"""Build the compiled core of the array engine.

Compiles ``src/repro/schedulers/_array_core.c`` into ``lib_array_core.so``
next to its ctypes loader, using whatever plain C compiler is on PATH
(``$CC``, then ``cc``/``gcc``/``clang``).  No Python headers, setuptools or
Cython involved — the library is a freestanding C object loaded via ctypes.

``-ffp-contract=off`` is load-bearing: it forbids fused multiply-add
contraction so the compiled duration transforms round exactly like the
Python samplers, keeping traces byte-identical between the compiled core
and the object engine.

Exit status 0 on success (or with ``--if-possible`` when no compiler
exists, since array requests then run on the object engine); non-zero on a
failed compile.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "src",
    "repro",
    "schedulers",
    "_array_core.c",
)
OUT = os.path.join(os.path.dirname(SRC), "lib_array_core.so")

CFLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math"]


def find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def main(argv: list[str]) -> int:
    lenient = "--if-possible" in argv
    cc = find_compiler()
    if cc is None:
        print(
            "build_array_core: no C compiler found; "
            "array requests run on the object engine",
            file=sys.stderr,
        )
        return 0 if lenient else 1
    src = os.path.normpath(SRC)
    out = os.path.normpath(OUT)
    cmd = [cc, *CFLAGS, "-o", out, src, "-lm"]
    print(" ".join(cmd))
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print("build_array_core: compilation failed", file=sys.stderr)
        return proc.returncode
    print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

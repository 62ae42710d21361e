"""Print the parser token count and compile() memory peak of each module.

    python3 tools/module_tokens.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are directories holding a ``ptscatter`` package (for
example ``src`` of two checkouts).  For each module of the package, in each
tree, the tool prints the number of tokens the parser reads (``tokenize``
tokens without comments and non-logical newlines) and the ``tracemalloc``
peak of ``compile()`` on the module's source, in KiB.  Under
``PYTHONDONTWRITEBYTECODE`` every interpreter compiles the package from
source, and the compile peak jumps when a module nears one of MARKS tokens,
which moves a benchmark's ``setup_s`` and ``peak_rss_mb``.  Given two trees,
the tool names each module whose token count crosses a mark between them
and exits 1 if any does.
"""

from __future__ import annotations

import io
import sys
import tokenize
import tracemalloc
from pathlib import Path

MARKS = (2048, 4000)
SKIPPED = {tokenize.COMMENT, tokenize.NL}


def parser_tokens(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for tok in tokens if tok.type not in SKIPPED)


def compile_peak_kib(source: str, name: str) -> float:
    """The tracemalloc peak of compiling source, after one untraced compile."""
    compile(source, name, "exec")
    tracemalloc.start()
    try:
        compile(source, name, "exec")
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def measure(src: Path) -> dict:
    """{module file name: (parser tokens, compile peak in KiB)} of a tree."""
    out = {}
    for path in sorted((src / "ptscatter").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out[path.name] = (parser_tokens(source), compile_peak_kib(source, str(path)))
    return out


def crossed(old: int, new: int) -> list[int]:
    return [m for m in MARKS if min(old, new) < m <= max(old, new)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        sys.exit(__doc__.strip().splitlines()[2].strip())
    trees = [measure(Path(a)) for a in args]
    names = sorted(set().union(*trees))
    header = "".join(f"{'tokens':>9}{'KiB':>9}" for _ in trees)
    print(f"{'module':16}{header}")
    crossings = 0
    for name in names:
        cells = [tree.get(name) for tree in trees]
        row = "".join(f"{'-':>9}{'-':>9}" if c is None else f"{c[0]:9d}{c[1]:9.0f}"
                      for c in cells)
        marks = crossed(cells[0][0], cells[1][0]) if len(cells) == 2 and all(cells) else []
        crossings += len(marks)
        note = "  crosses " + ", ".join(map(str, marks)) if marks else ""
        print(f"{name:16}{row}{note}")
    if len(trees) == 2:
        print(f"{crossings} crossing(s) of the marks {', '.join(map(str, MARKS))}")
    return 1 if crossings else 0


if __name__ == "__main__":
    sys.exit(main())

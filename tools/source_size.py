"""Lines and code lines of the package source, in the tree or at a git revision.

    python3 tools/source_size.py [REV]

Run from the root of a source checkout.  Without REV the files under
``src/cuspzeta/`` are read from the working tree, with REV from that commit
(through ``git ls-tree`` and ``git show``).  Prints ``LINES CODE_LINES``.  A
code line holds a token other than a comment or a line break and is not part
of a docstring (the string that opens a module, class or function body), so
blank lines, comment lines and docstrings do not count.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/cuspzeta"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def sources(rev: str | None) -> list[str]:
    if rev is None:
        return [path.read_text(encoding="utf-8") for path in sorted(Path(PACKAGE).glob("*.py"))]
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{PACKAGE}/"],
                           check=True, capture_output=True, text=True).stdout.split()
    return [subprocess.run(["git", "show", f"{rev}:{name}"], check=True,
                           capture_output=True, text=True).stdout
            for name in names if name.endswith(".py")]


def main(argv: list[str]) -> int:
    texts = sources(argv[1] if len(argv) > 1 else None)
    if not texts:
        sys.exit(f"no Python files under {PACKAGE}")
    print(sum(text.count("\n") for text in texts), sum(map(code_lines, texts)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

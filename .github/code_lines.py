"""Print the line counts of the package and its tests.

    python3 .github/code_lines.py

Run from the repository root.  It prints three lines: `src/ lines`, the
total line count of src/cyclicideals/*.py, and `src/ code lines` and
`tests/ code lines`, which count the lines that hold a token other than
a comment or a docstring.  Then one `src/<module>.py code lines` line per
module, in name order, shows which module a change grew or shrank.
"""

import ast
import glob
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    src = Path(path).read_bytes()
    docs = {n.body[0].lineno for n in ast.walk(ast.parse(src))
            if isinstance(n, DEFS) and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}
    lines = set()
    for t in tokenize.tokenize(io.BytesIO(src).readline):
        if t.type not in SKIP and not (t.type == tokenize.STRING and t.start[0] in docs):
            lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main() -> None:
    src = sorted(glob.glob("src/cyclicideals/*.py"))
    lines = sum(Path(path).read_bytes().count(b"\n") for path in src)
    print(f"src/ lines: {lines} total")
    for name, paths in (("src/", src), ("tests/", glob.glob("tests/*.py"))):
        print(f"{name} code lines: {sum(map(code_lines, paths))}")
    for path in src:
        print(f"src/{Path(path).name} code lines: {code_lines(path)}")


if __name__ == "__main__":
    main()

"""Count the lines of Python code per module, leaving out docstrings,
comments and blank lines.

A line counts when it holds part of a token other than a comment, a line
break or an indent. A string that stands alone as a statement, as a
docstring does, is left out too. Run it from the root of the repository:

    python tools/code_lines.py [DIR ...]

It prints the count of every ``.py`` file under each directory (default
``src/posetsat``), then the directory's total. When its reader closes the
pipe, as ``head`` does, it stops quietly with status 141.
"""

from __future__ import annotations

import os
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with tokenize.open(path) as source:
        tokens = [t for t in tokenize.generate_tokens(source.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        # a string alone on its logical line is a docstring or a bare string
        if (token.type == tokenize.STRING
                and (k == 0 or tokens[k - 1].type in _LAYOUT)
                and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    for root in argv or ["src/posetsat"]:
        files = sorted(Path(root).rglob("*.py"))
        if not files:
            print(f"{root}: no Python files", file=sys.stderr)
            return 1
        total = 0
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:6,}  {path}")
        print(f"{total:6,}  {root} (total)")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is left to the null device, so the flush at exit cannot
        # fail too, and exit as a shell reports a tool stopped by a closed
        # pipe (128 + SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)

"""Size of the package source in tokens and lines.

Counts the ``tokenize`` tokens of each ``src/afpa_sim/*.py`` file, leaving
out comments, line breaks, indentation and the encoding and end markers,
so that rewrapping or commenting code does not change the count.  Prints
tokens and lines per file and in total.

    python3 tools/size.py
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
SOURCE = Path(__file__).resolve().parent.parent / "src" / "afpa_sim"


def size(path: Path) -> tuple[int, int]:
    """(tokens, lines) of one source file."""
    source = path.read_bytes()
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    return sum(t.type not in SKIPPED for t in tokens), len(source.splitlines())


def main() -> None:
    total_tokens = total_lines = 0
    print(f"{'file':<16} {'tokens':>7} {'lines':>6}")
    for path in sorted(SOURCE.glob("*.py")):
        tokens, lines = size(path)
        total_tokens, total_lines = total_tokens + tokens, total_lines + lines
        print(f"{path.name:<16} {tokens:>7} {lines:>6}")
    print(f"{'total':<16} {total_tokens:>7} {total_lines:>6}")


if __name__ == "__main__":
    main()

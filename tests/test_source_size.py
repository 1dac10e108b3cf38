"""The source line count of `src/pairml`, a tracked number.

The count is `cat src/pairml/*.py | wc -l`: every line of every module,
docstrings, comments and blank lines included.  It may not grow past
`BOUND`: a change that grows `src/` raises the bound in the same change and
says why.  Run `python tests/test_source_size.py` to print the count by
module.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pairml"

BOUND = 4533


def line_counts() -> dict[str, int]:
    """Lines per module, counted as `wc -l` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}


def test_source_lines_within_bound():
    total = sum(line_counts().values())
    assert total <= BOUND, f"src/pairml has {total} lines, over its bound of {BOUND}"


if __name__ == "__main__":
    counts = line_counts()
    for name, lines in counts.items():
        print(f"{lines:6d} {name}")
    print(f"{sum(counts.values()):6d} total (bound {BOUND})")

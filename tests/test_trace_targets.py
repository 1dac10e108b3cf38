"""The benchmark's tracer wraps library functions by name: each one must
still exist, so that a rename fails here and not in a `--trace 1` run."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import WRAPS  # noqa: E402


def test_every_wrapped_target_resolves():
    # the tracer replaces vars(owner)[attr], so an inherited attribute does
    # not count
    missing = []
    for name, _, targets in WRAPS:
        for owner, attr in targets:
            fn = vars(owner).get(attr)
            if isinstance(fn, classmethod):
                fn = fn.__func__
            if not callable(fn):
                missing.append(f"{owner.__name__}.{attr} ({name})")
    assert missing == []

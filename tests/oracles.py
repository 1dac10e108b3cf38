"""Oracles that only tests use: full-domain FSS tables, and a reset of the
PRG expansion counters."""

from pairml import prg
from pairml.fss import DcfKey, DpfKey, _walk


def dpf_eval_all(b: int, key: DpfKey) -> list[list[int]]:
    """Shares at every domain point via one tree walk (exhaustive tests)."""
    return _walk(b, key, range(1 << key.domain_bits))


def dcf_eval_all(b: int, key: DcfKey) -> list[list[int]]:
    """Comparison shares at every domain point via one tree walk."""
    return _walk(b, key, range(1 << key.domain_bits))


def reset_call_counter() -> int:
    """Zero the PRG counters; return the calls counted since the last reset."""
    prev = prg.calls
    prg.calls = prg.bytes_expanded = 0
    return prev

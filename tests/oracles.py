"""Oracles that only tests use: full-domain FSS tables, a reset of the PRG
expansion counters, both parties' sessions run in one process, the uniform
spline tables that the fitted ones replaced, the schoolbook negacyclic
product, a direct convolution, the HSS Mult noise bound and seeded
mutations of an encoding."""

import math
import random

from pairml import prg
from pairml.engine import ConvLayer, _conv_out_shape
from pairml.fss import DcfKey, DpfKey, _walk
from pairml.gadgets import (GadgetParameterError, SplineTable, _half, drive,
                            make_session)
from pairml.lpr import LprCiphertext
from pairml.params import ProtocolParams


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


def run_pair(mat0, mat1, shares0, shares1, p: int, reveal_log: list | None = None):
    """Drive both parties' sessions side by side in one process."""
    sessions = [make_session(mat0, shares0), make_session(mat1, shares1)]

    def reveal(flat):
        half = len(flat) // 2
        revealed = [(a + b) % p for a, b in zip(flat[:half], flat[half:])]
        if reveal_log is not None:
            reveal_log.append(revealed)
        return revealed * 2
        yield  # a generator that waits on nothing: both halves are at hand

    for _ in drive(sessions, reveal):
        pass
    return sessions[0], sessions[1]


def _build_table(kind: str, fn, knot_step: float, span: float, in_scale: int,
                 p: int, lo_val: float, hi_val: float) -> SplineTable:
    """Knots every `knot_step` over [-span, span], flat outside them."""
    s = 1 << in_scale
    half = _half(p)
    knots = [round(-span + i * knot_step, 6)
             for i in range(int(2 * span / knot_step) + 1)]
    enc = [round(k * s) for k in knots]
    if enc[-1] >= half:
        raise GadgetParameterError("spline knots exceed the signed field range")
    segs: list[tuple[int, int, int, int]] = []
    segs.append((-half, enc[0] - 1, 0, round(lo_val * s * s)))
    for k0, k1 in zip(enc, enc[1:]):
        x0, x1 = k0 / s, k1 / s
        y0, y1 = fn(x0), fn(x1)
        slope = (y1 - y0) / (x1 - x0)
        a = round(slope * s)
        c = round((y0 - slope * x0) * s * s)
        segs.append((k0, k1 - 1, a, c))
    segs.append((enc[-1], half, 0, round(hi_val * s * s)))
    return SplineTable(kind=kind, in_scale=in_scale, segments=tuple(segs))


def uniform_table(kind: str, in_scale: int, p: int) -> SplineTable:
    """The uniform-knot table: tanh knots every 1/4 on [-4, 4], sigmoid knots
    every 1/2 on [-8, 8], each segment the chord from its left knot with the
    slope rounded after."""
    if kind == "sigmoid":
        return _build_table("sigmoid", lambda x: 1.0 / (1.0 + math.exp(-x)),
                            0.5, 8.0, in_scale, p, lo_val=0.0, hi_val=1.0)
    return _build_table("tanh", math.tanh, 0.25, 4.0, in_scale, p,
                        lo_val=-1.0, hi_val=1.0)


def schoolbook_negacyclic(a, b, m: int) -> list[int]:
    """Quadratic reference for the NTT paths."""
    n = len(a)
    t = [0] * (2 * n)
    for i in range(n):
        for j in range(n):
            t[i + j] += int(a[i]) * int(b[j])
    return [(t[i] - t[i + n]) % m for i in range(n)]


def direct_conv(layer: ConvLayer, x_flat, p: int) -> list[int]:
    """Reference convolution for the im2col oracle."""
    h, w, c = layer.in_shape
    kh, kw, _, cout = layer.filters.shape
    oh, ow, _ = _conv_out_shape(layer)
    out = []
    for oy in range(oh):
        for ox in range(ow):
            for co in range(cout):
                acc = 0
                for fy in range(kh):
                    for fx in range(kw):
                        iy = oy * layer.stride + fy - layer.padding
                        ix = ox * layer.stride + fx - layer.padding
                        if not (0 <= iy < h and 0 <= ix < w):
                            continue
                        for ci in range(c):
                            acc += int(x_flat[(iy * w + ix) * c + ci]) * \
                                int(layer.filters[fy, fx, ci, co])
                out.append(acc % p)
    return out


def mult_noise_bound(params: ProtocolParams, ct: LprCiphertext) -> int:
    """Analytic |y * e_ct| bound used to validate the rounding margin."""
    return params.n_ring * (params.p // 2) * ct.noise_bound


def mutations(buf: bytes, seed: int, count: int):
    """`count` seeded mutations of buf, each a cut, an append, a bit flip or
    a byte set at a random place."""
    rng = random.Random(seed)
    for _ in range(count):
        op, at = rng.randrange(4), rng.randrange(len(buf))
        if op == 0:
            yield buf[:at]
        elif op == 1:
            yield buf + rng.randbytes(rng.randrange(1, 9))
        else:
            byte = buf[at] ^ 1 << rng.randrange(8) if op == 2 else rng.randrange(256)
            yield buf[:at] + bytes([byte]) + buf[at + 1:]


def check_mutations(decode, encode, buf: bytes, seed: int, count: int) -> int:
    """Every mutation of buf either raises ValueError or decodes to a value
    that encodes to the same bytes; returns how many were rejected."""
    rejected = 0
    for bad in mutations(buf, seed, count):
        try:
            value = decode(bad)
        except ValueError:
            rejected += 1
            continue
        assert encode(value) == bad
    return rejected

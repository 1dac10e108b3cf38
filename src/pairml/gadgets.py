"""Non-linear gadgets over masked reveals: ReLU, sigmoid/tanh splines,
two-input max, MaxPool trees, and Argmax.

Every gadget follows the same offset-function pattern: preprocessing
material embeds a one-time mask r inside FSS keys, the online phase reveals
w = z + r, and key evaluations plus public linear postprocessing turn w into
additive output shares.  A session reads each key by walking its tree at
the points it needs, every point of one key in one walk.  Interval membership on the masked wire reduces to a
single comparison key at threshold r evaluated at two public points:

    [ (u - r) mod p in [0, M] ] = D(u - M - 1 mod p) - D(u) + [u <= M]

with D(y) = [y < r], M the public segment length, and the bracketed term a
public constant.  Payload vectors carry (1, r) so that products ind*z =
w*ind - ind*r stay linear in revealed values.  A wire's output is the sum
of ind*(a*z + c) over the segments of its spline; ReLU is the one-segment
spline [0, (p-1)/2] with slope 1 and intercept 0, so one evaluator serves
every wire.  A sigmoid or tanh table has 15 segments, each one more point on
the wire's walk: 14 knots, denser where the function bends, plus two flat
tails, with each segment's integer slope and intercept fitted against
rounding (`_build_table`).

Each material's layout is written once, as a recipe against a key source.
A source has three calls: `mask()` draws a mask, `key(kind, point,
payload)` makes a DCF or DPF key pair whose payload holds public ints and
masks, and `share(mask)` gives the parties' shares of a mask; a key pair
and a share are indexed by party.  A recipe draws in a fixed order and
returns a function of the party that assembles that party's material once
its keys exist.  `CentralSource` draws everything from one generator and
makes keys with one-block seeds; it serves the single-TEE enclave and
`material_pair`.  `tee.TeeTriple` is the other source: it plans each key
into a batch of distributed key generation, with three-block seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .codec import Reader, Writer
from .fss import DcfKey, DpfKey, dcf_eval, dcf_eval_many, dcf_gen, dpf_eval, dpf_gen


class GadgetReuseError(RuntimeError):
    pass


class GadgetParameterError(ValueError):
    pass


def _half(p: int) -> int:
    return (p - 1) // 2


def _signed(v: int, p: int) -> int:
    v %= p
    return v if v <= _half(p) else v - p


# -- plaintext references (the oracles' ground truth) ---------------------------


def plain_relu(z: int, p: int) -> int:
    return z % p if _signed(z, p) >= 0 else 0


def plain_max2(x: int, y: int, p: int) -> int:
    return x % p if _signed(x, p) >= _signed(y, p) else y % p


def plain_max(values, p: int) -> int:
    out = values[0] % p
    for v in values[1:]:
        out = plain_max2(out, v, p)
    return out


def plain_argmax(values, p: int) -> list[int]:
    """1-based index at each maximal entry, zero elsewhere (multi-hot on ties)."""
    mu = _signed(plain_max(values, p), p)
    return [(i + 1) if _signed(v, p) == mu else 0 for i, v in enumerate(values)]


# -- spline tables ----------------------------------------------------------------


# tanh's knots above 0, mirrored below: 14 knots, 15 segments with the flat
# tails.  Fitted, every segment errs by about 0.0034, so the knots crowd where
# tanh bends, and the lines on either side of a knot nearly meet there.
_KNOTS = (0.3507, 0.6261, 0.8946, 1.1922, 1.5607, 2.0929, 3.1899)


@dataclass(frozen=True)
class SplineTable:
    """Public piecewise-linear table in field encoding.

    segments: (lo, hi, slope, intercept) with lo/hi signed field values at
    the input scale, slope scaled by 2^in_scale, intercept scaled by
    2^(2*in_scale).  Segments partition the full signed range, so exactly
    one indicator fires for any input; gadget output is at twice the input
    scale and the engine truncates afterwards.  `_build_table` places the
    knots and fits each segment's integers against rounding.
    """

    kind: str
    in_scale: int
    segments: tuple[tuple[int, int, int, int], ...]

    def reference(self, z: int, p: int) -> int:
        """Exact field value the gadget must produce (scale 2*in_scale)."""
        zs = _signed(z, p)
        for lo, hi, a, c in self.segments:
            if lo <= zs <= hi:
                return (a * zs + c) % p
        raise GadgetParameterError("spline segments do not cover input")


def _build_table(kind: str, in_scale: int, p: int, mid: float, height: float,
                 width: float) -> SplineTable:
    """The table of f(x) = mid + height * tanh(x / width): knots at width
    times ±_KNOTS, and flat at mid - height below them, mid + height above.

    A segment's slope a and intercept c are the integers that minimise its
    largest error |f(z / s) s^2 - a z - c| over the integers z from its knot
    to the next, both included (s = 2^in_scale): the table is fitted after
    rounding, not rounded after fitting.  For a given a, c centres the
    residual R(z) = f(z / s) s^2 - a z between its extremes.  A line through
    the knots errs to one side only, and rounding its slope tilts it further
    off its anchor; a centred line errs half as far, to both sides.  R's
    extremes lie at the two knots and next to the points where
    f'(z / s) = a / s, so each fit is closed form; the error is convex in a,
    so a walks downhill from the rounded chord slope.  The middle segment is
    symmetric about 0, so tanh(0) is exactly 0 and sigmoid(0) exactly 1/2.
    """
    s = 1 << in_scale
    f = lambda z: (mid + height * math.tanh(z / s / width)) * s * s
    enc = [round(width * k * s) for k in (*(-k for k in reversed(_KNOTS)), *_KNOTS)]
    half = _half(p)
    if enc[-1] >= half:
        raise GadgetParameterError("spline knots exceed the signed field range")
    if len(set(enc)) < len(enc):  # a segment with no inputs has no slope
        raise GadgetParameterError(f"in_scale {in_scale} rounds two {kind} knots "
                                   "to one input")

    def fit(a: int, k0: int, k1: int) -> tuple[float, int]:
        """Slope a's largest error on [k0, k1], and the intercept it needs."""
        zs = {k0, k1}
        # f'(x) = height / width * sech(x / width)^2 = a / s
        q = height * s / (width * a) if a > 0 else 0.0
        if q >= 1:
            z = math.floor(width * s * math.acosh(math.sqrt(q)))
            zs.update(y for y in (z, z + 1, -z, -z - 1) if k0 <= y <= k1)
        res = [f(z) - a * z for z in zs]
        c = round((max(res) + min(res)) / 2)
        return max(max(res) - c, c - min(res)), c

    segs = [(-half, enc[0] - 1, 0, round((mid - height) * s * s))]
    for k0, k1 in zip(enc, enc[1:]):
        a = round((f(k1) - f(k0)) / (k1 - k0))
        err, c = fit(a, k0, k1)
        for step in (1, -1):
            while (nxt := fit(a + step, k0, k1))[0] < err:
                a += step
                err, c = nxt
        segs.append((k0, k1 - 1, a, c))
    segs.append((enc[-1], half, 0, round((mid + height) * s * s)))
    return SplineTable(kind=kind, in_scale=in_scale, segments=tuple(segs))


def sigmoid_table(in_scale: int, p: int) -> SplineTable:
    # 1 / (1 + e^-x) = (1 + tanh(x / 2)) / 2
    return _build_table("sigmoid", in_scale, p, 0.5, 0.5, 2.0)


def tanh_table(in_scale: int, p: int) -> SplineTable:
    return _build_table("tanh", in_scale, p, 0.0, 1.0, 1.0)


# -- materials ---------------------------------------------------------------------


WIRE_KINDS = ("relu", "sigmoid", "tanh")


@dataclass
class WireMaterial:
    """Offset material for one relu/sigmoid/tanh wire: mask share + one
    comparison key at threshold r with payload (1, r)."""

    kind: str
    party: int
    p: int
    mask_share: int
    cmp_key: DcfKey
    table: SplineTable | None = None
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise GadgetReuseError(f"{self.kind} material used twice")
        self.consumed = True


@dataclass
class Max2Material:
    kind: ClassVar[str] = "max2"
    party: int
    p: int
    relu_xy: WireMaterial
    relu_x: WireMaterial
    relu_y: WireMaterial
    r3_share: int
    r4_share: int
    r5_share: int
    r6_share: int
    pf3: DpfKey  # point at r3, payload (1, r5, r6)
    pf4: DpfKey  # point at r4, payload (1, r5, r6)
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise GadgetReuseError("max2 material used twice")
        self.consumed = True


@dataclass
class MaxPoolMaterial:
    kind: ClassVar[str] = "maxpool"
    party: int
    p: int
    k: int
    nodes: list[Max2Material]

    def consume(self):
        pass  # per-node materials track their own consumption


@dataclass
class ArgmaxMaterial:
    kind: ClassVar[str] = "argmax"
    party: int
    p: int
    k: int
    pool: MaxPoolMaterial
    rho_shares: list[int]
    pf_keys: list[DpfKey]  # point at rho_i, payload (i,) 1-based
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise GadgetReuseError("argmax material used twice")
        self.consumed = True


# -- recipes: each material's layout and draw order, for every key source -------------
# The draw order is part of a material: both sources draw in it, so a
# reordered draw changes the keys of both modes.


class CentralSource:
    """The key source of an enclave that draws every mask and key itself.
    It holds every seed whole, so its keys have one-block seeds."""

    def __init__(self, p: int, rng):
        self.p, self.rng = p, rng

    def mask(self) -> int:
        return self.rng.randrange(self.p)

    def key(self, kind: str, point: int, payload: list[int]):
        gen = dcf_gen if kind == "dcf" else dpf_gen
        return gen(self.p, point, payload, self.rng)

    def share(self, mask: int) -> tuple[int, int]:
        s0 = self.rng.randrange(self.p)
        return s0, (mask - s0) % self.p


def _wire(src, kind: str, table: SplineTable | None):
    r = src.mask()
    cmp = src.key("dcf", r, [1, r])
    sh = src.share(r)
    return lambda b: WireMaterial(kind, b, src.p, sh[b], cmp[b], table)


def _max2(src):
    subs = [_wire(src, "relu", None) for _ in range(3)]
    masks = [src.mask() for _ in range(4)]
    r3, r4, r5, r6 = masks
    pf3, pf4 = [src.key("dpf", r, [1, r5, r6]) for r in (r3, r4)]
    shares = [src.share(r) for r in masks]
    return lambda b: Max2Material(b, src.p, *(sub(b) for sub in subs),
                                  *(sh[b] for sh in shares), pf3[b], pf4[b])


def _maxpool(src, k: int):
    # a knockout over k entries plays k - 1 matches, one max2 node each
    nodes = [_max2(src) for _ in range(k - 1)]
    return lambda b: MaxPoolMaterial(b, src.p, k, [node(b) for node in nodes])


def _argmax(src, k: int):
    pool = _maxpool(src, k)
    rhos = [src.mask() for _ in range(k)]
    keys = [src.key("dpf", rho, [i + 1]) for i, rho in enumerate(rhos)]
    shares = [src.share(rho) for rho in rhos]
    return lambda b: ArgmaxMaterial(b, src.p, k, pool(b), [sh[b] for sh in shares],
                                    [key[b] for key in keys])


def recipe(kind: str, src, k: int = 1, table: SplineTable | None = None):
    """Draw a `kind` material's masks and keys from `src`; the function of
    the party that assembles its material once the keys exist."""
    if kind in WIRE_KINDS:
        if kind != "relu" and table is None:
            raise GadgetParameterError(f"{kind} needs a spline table")
        return _wire(src, kind, table)
    if kind == "max2":
        return _max2(src)
    if kind not in ("maxpool", "argmax"):
        raise GadgetParameterError(f"unknown gadget kind {kind}")
    if k < 1:
        raise GadgetParameterError(f"{kind} needs k >= 1")
    return (_maxpool if kind == "maxpool" else _argmax)(src, k)


def material_pair(kind: str, p: int, rng, k: int = 1,
                  table: SplineTable | None = None):
    """Both parties' halves of one `kind` material, drawn from `rng`."""
    build = recipe(kind, CentralSource(p, rng), k, table)
    return build(0), build(1)


# -- interval membership from one comparison key -----------------------------------


def _interval_points(w: int, lo: int, hi: int, p: int) -> tuple[int, int]:
    """Where the comparison key is read for z in [lo, hi] (signed bounds),
    given w = z + r: at u - M - 1 and at u, with u = w - lo and M = hi - lo."""
    u = (w - lo) % p
    return (u - (hi - lo) % p - 1) % p, u


def _interval_shares(mat: WireMaterial, w: int, lo: int, hi: int,
                     cache: dict[int, list[int]]) -> tuple[int, int]:
    """Shares of (ind, ind*r) for z in [lo, hi] (signed bounds), given w = z+r.

    `cache` maps points where the comparison key was evaluated to its shares;
    a point missing from it is evaluated on its own and added.  Sessions fill
    it first in `_wire_share`; an empty cache gives the per-point path.
    """
    p = mat.p
    b = mat.party
    m_seg = (hi - lo) % p
    y1, u = _interval_points(w, lo, hi, p)
    for y in (y1, u):
        if y not in cache:
            cache[y] = dcf_eval(b, mat.cmp_key, y)
    hi_ev, lo_ev = cache[y1], cache[u]
    pub = 1 if u <= m_seg else 0
    s_ind = (hi_ev[0] - lo_ev[0] + (pub if b else 0)) % p
    s_ind_r = (hi_ev[1] - lo_ev[1] + pub * mat.mask_share) % p
    return s_ind, s_ind_r


def _wire_share(mat: WireMaterial, w: int) -> int:
    """This party's share of the wire's output, given w = z + r: the sum over
    its segments of ind * (a*z + c), with the comparison key read at both
    points of every segment in one walk, which expands shared prefixes once.
    ReLU is the one segment [0, (p-1)/2] with slope 1 and intercept 0."""
    p = mat.p
    segments = mat.table.segments if mat.table else ((0, _half(p), 1, 0),)
    # adjacent segments share endpoints
    pts = sorted({y for lo, hi, _, _ in segments
                  for y in _interval_points(w, lo, hi, p)})
    cache = dict(zip(pts, dcf_eval_many(mat.party, mat.cmp_key, pts)))
    acc = 0
    for lo, hi, a, c in segments:
        s_ind, s_ind_r = _interval_shares(mat, w, lo, hi, cache)
        # ind*z = w*ind - ind*r, all mod p; a spline lands at scale 2s
        acc += a * ((w * s_ind - s_ind_r) % p) + c * s_ind
    return acc % p


# -- evaluation sessions -------------------------------------------------------------
#
# A session's start() and feed() return the masked shares it reveals in its
# next round, or None once `output` holds its output shares; `drive` runs
# any number of sessions side by side.  A multi-round session is one `_play`
# generator whose yields are its rounds; a maxpool level and an argmax's
# pool run through `drive` inside it.


def _wire_start(session):
    """A wire session's one round: its masked input share."""
    return [(session.in_share + session.mat.mask_share) % session.mat.p]


def _wire_feed(session, revealed):
    """A wire session's output from its revealed w; nothing more to reveal.
    ReluSession and SplineSession each bind these two as their own."""
    (w,) = revealed
    session.output = [_wire_share(session.mat, w)]
    return None


class ReluSession:
    def __init__(self, mat: WireMaterial, in_share: int):
        mat.consume()
        self.mat = mat
        self.in_share = int(in_share) % mat.p
        self.output: list[int] | None = None

    start, feed = _wire_start, _wire_feed


class SplineSession(ReluSession):
    def __init__(self, mat: WireMaterial, in_share: int):
        if mat.table is None:
            raise GadgetParameterError("spline session without table")
        super().__init__(mat, in_share)

    start, feed = _wire_start, _wire_feed


def _resume(session, revealed):
    """Run a multi-round session's `_play` to its next round: the masked
    shares that round reveals, or None once `output` holds the output."""
    try:
        batch = session.play.send(revealed)
    except StopIteration as end:
        session.output = end.value
        return None
    return batch


def _start(session):
    """Start a multi-round session's `_play`: its first round's masked shares.
    Each such class binds `start, feed = _start, _resume` as its own."""
    session.play = session._play()
    return _resume(session, None)


def _round(flat):
    """A `drive` reveal that hands the masked shares up to the enclosing
    session's round, which feeds back the revealed values."""
    return (yield flat)


class Max2Session:
    def __init__(self, mat: Max2Material, x_share: int, y_share: int):
        mat.consume()
        self.mat = mat
        self.x = int(x_share) % mat.p
        self.y = int(y_share) % mat.p
        self.output: list[int] | None = None

    start, feed = _start, _resume

    def _play(self):
        m, x, y = self.mat, self.x, self.y
        p = m.p
        for sub in (m.relu_xy, m.relu_x, m.relu_y):
            sub.consume()
        wa, wb, wc = yield [((x - y) % p + m.relu_xy.mask_share) % p,
                            (x + m.relu_x.mask_share) % p,
                            (y + m.relu_y.mask_share) % p]
        relu_xy, relu_x, relu_y = (
            _wire_share(sub, w)
            for sub, w in ((m.relu_xy, wa), (m.relu_x, wb), (m.relu_y, wc)))
        u1 = (relu_xy + y) % p
        u2 = (relu_x + relu_y) % p
        u3 = (u2 - x - y) % p
        w3, w4, w5, w6 = yield [(u2 + m.r3_share) % p, (u3 + m.r4_share) % p,
                                (u1 + m.r5_share) % p, (u2 + m.r6_share) % p]
        e3 = dpf_eval(m.party, m.pf3, w3)
        e4 = dpf_eval(m.party, m.pf4, w4)
        s_b = (e3[0] + e4[0]) % p
        s_br5 = (e3[1] + e4[1]) % p
        s_br6 = (e3[2] + e4[2]) % p
        # max = b*u1 + (1-b)*u2, with u1, u2 only available masked
        return [(w5 * s_b - s_br5 + u2 - w6 * s_b + s_br6) % p]


def _tournament(k: int) -> list[list[tuple[int, int]]]:
    """Pairing schedule: per level, (i, j) index pairs; byes carry through."""
    levels = []
    idx = list(range(k))
    while len(idx) > 1:
        pairs = [(idx[i], idx[i + 1]) for i in range(0, len(idx) - 1, 2)]
        carry = [idx[-1]] if len(idx) % 2 else []
        levels.append(pairs)
        idx = [a for a, _ in pairs] + carry  # winner stored at slot a
    return levels


class MaxPoolSession:
    """Tournament of max2 nodes; one max share out.  2*ceil(log2 k) rounds:
    each level drives its nodes side by side."""

    def __init__(self, mat: MaxPoolMaterial, in_shares):
        if len(in_shares) != mat.k:
            raise GadgetParameterError("maxpool input width mismatch")
        self.mat = mat
        self.values = [int(v) % mat.p for v in in_shares]
        self.output: list[int] | None = None

    start, feed = _start, _resume

    def _play(self):
        values, nodes = self.values, iter(self.mat.nodes)
        for pairs in _tournament(self.mat.k):
            winners = yield from drive([Max2Session(next(nodes), values[i], values[j])
                                        for i, j in pairs], _round)
            for (i, _), v in zip(pairs, winners):
                values[i] = v
        return [values[0]]


class ArgmaxSession:
    def __init__(self, mat: ArgmaxMaterial, in_shares):
        mat.consume()
        if len(in_shares) != mat.k:
            raise GadgetParameterError("argmax input width mismatch")
        self.mat = mat
        self.shares = [int(v) % mat.p for v in in_shares]
        self.pool = MaxPoolSession(mat.pool, in_shares)
        self.output: list[int] | None = None

    start, feed = _start, _resume

    def _play(self):
        m = self.mat
        p = m.p
        (mu,) = yield from drive([self.pool], _round)
        revealed = yield [(x - mu + rho) % p
                          for x, rho in zip(self.shares, m.rho_shares)]
        return [dpf_eval(m.party, key, d)[0] % p
                for key, d in zip(m.pf_keys, revealed)]


def make_session(mat, in_shares):
    if isinstance(mat, WireMaterial):
        if mat.kind == "relu":
            return ReluSession(mat, in_shares[0])
        return SplineSession(mat, in_shares[0])
    if isinstance(mat, Max2Material):
        return Max2Session(mat, in_shares[0], in_shares[1])
    if isinstance(mat, MaxPoolMaterial):
        return MaxPoolSession(mat, in_shares)
    if isinstance(mat, ArgmaxMaterial):
        return ArgmaxSession(mat, in_shares)
    raise GadgetParameterError(f"unknown material {type(mat)!r}")


def drive(sessions, reveal):
    """Run `sessions` to their end, one masked-reveal round per call of
    `reveal`, a generator that maps the flat masked shares of every pending
    session to the revealed values; the sessions' outputs, concatenated."""
    pending = [s.start() for s in sessions]
    while any(batch is not None for batch in pending):
        revealed = yield from reveal([v for batch in pending if batch is not None
                                      for v in batch])
        off = 0
        for i, (s, batch) in enumerate(zip(sessions, pending)):
            if batch is not None:
                pending[i] = s.feed(revealed[off:off + len(batch)])
                off += len(batch)
    return [v for s in sessions for v in s.output]


# -- material serialization -----------------------------------------------------------
# version u8, party u8, p u64, a kind code u8 (index into _MAT_CODECS), then the
# material's fields with sub-materials inline and FSS keys as blobs of their
# bytes.  Spline tables are public and stay with the host, which re-attaches
# them.  A reader checks the header's party, 0 or 1, and every key's party
# and p, and every share, against the header.

_MAT_VERSION = 2


def _read_key(r: Reader, cls, party: int, p: int):
    key = cls.deserialize(r.blob())
    if (key.party, key.p) != (party, p):
        raise ValueError(f"a key of party {key.party} over p {key.p} in a "
                         f"material of party {party} over p {p}")
    return key


def _read_shares(r: Reader, n: int, p: int) -> list[int]:
    shares = r.u64s(n)
    if shares and max(shares) >= p:
        raise ValueError(f"material share {max(shares)} not below p {p}")
    return shares


def _write_wire(w: Writer, m: WireMaterial):
    w.u8(WIRE_KINDS.index(m.kind)).u64(m.mask_share).blob(m.cmp_key.serialize())


def _read_wire(r: Reader, party: int, p: int) -> WireMaterial:
    code, (mask,) = r.u8(), _read_shares(r, 1, p)
    if code >= len(WIRE_KINDS):
        raise ValueError(f"unknown wire kind code {code}")
    return WireMaterial(WIRE_KINDS[code], party, p, mask, _read_key(r, DcfKey, party, p))


def _write_max2(w: Writer, m: Max2Material):
    for sub in (m.relu_xy, m.relu_x, m.relu_y):
        _write_wire(w, sub)
    w.u64s([m.r3_share, m.r4_share, m.r5_share, m.r6_share])
    w.blob(m.pf3.serialize()).blob(m.pf4.serialize())


def _read_max2(r: Reader, party: int, p: int) -> Max2Material:
    relus = [_read_wire(r, party, p) for _ in range(3)]
    return Max2Material(party, p, *relus, *_read_shares(r, 4, p),
                        _read_key(r, DpfKey, party, p), _read_key(r, DpfKey, party, p))


def _write_maxpool(w: Writer, m: MaxPoolMaterial):
    w.u32(m.k)
    for node in m.nodes:
        _write_max2(w, node)


def _read_maxpool(r: Reader, party: int, p: int) -> MaxPoolMaterial:
    k = r.u32()
    # a knockout over k entries plays k - 1 matches, one max2 node each
    return MaxPoolMaterial(party, p, k,
                           [_read_max2(r, party, p) for _ in range(k - 1)])


def _write_argmax(w: Writer, m: ArgmaxMaterial):
    _write_maxpool(w, m.pool)
    w.u64s(m.rho_shares)
    for key in m.pf_keys:
        w.blob(key.serialize())


def _read_argmax(r: Reader, party: int, p: int) -> ArgmaxMaterial:
    pool = _read_maxpool(r, party, p)
    return ArgmaxMaterial(party, p, pool.k, pool, _read_shares(r, pool.k, p),
                          [_read_key(r, DpfKey, party, p) for _ in range(pool.k)])


_MAT_CODECS = ((WireMaterial, _write_wire, _read_wire),
               (Max2Material, _write_max2, _read_max2),
               (MaxPoolMaterial, _write_maxpool, _read_maxpool),
               (ArgmaxMaterial, _write_argmax, _read_argmax))


def serialize_material(mat) -> bytes:
    for code, (cls, write, _) in enumerate(_MAT_CODECS):
        if type(mat) is cls:
            w = Writer().u8(_MAT_VERSION).u8(mat.party).u64(mat.p).u8(code)
            write(w, mat)
            return w.getvalue()
    raise GadgetParameterError(f"unknown material {type(mat)!r}")


def deserialize_material(buf: bytes):
    """The material in `buf`; sigmoid/tanh wires come back without a table."""
    with Reader(buf) as r:
        ver, party, p, code = r.u8(), r.u8(), r.u64(), r.u8()
        if ver != _MAT_VERSION:
            raise ValueError(f"unsupported material version {ver}")
        if party > 1:
            raise ValueError(f"material of party {party}, not 0 or 1")
        if code >= len(_MAT_CODECS):
            raise ValueError(f"unknown material code {code}")
        return _MAT_CODECS[code][2](r, party, p)

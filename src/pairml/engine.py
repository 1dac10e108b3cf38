"""Two-server inference engine: model loading and masking, preprocessing
material scheduling, and the online Beaver + gadget evaluation per layer.

Both servers run the same code with their own shares; every cross-server
message is a masked reveal, a ciphertext, or owner share delivery, tagged
with its protocol phase so the meters can audit phase separation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import mod64
from .codec import Reader, Writer
from .fixedpoint import FixedPointCodec, exact_truncate, truncate_share_vec
from .gadgets import (
    WIRE_KINDS,
    SplineTable,
    drive,
    make_session,
    plain_argmax,
    plain_max,
    plain_relu,
    sigmoid_table,
    tanh_table,
)
from .hss import (
    BeaverShare,
    ConvertedColumn,
    DealerSetup,
    PackPlan,
    TripleGenSession,
    dealer_convert_column,
    dealer_setup,
    plan_packing,
)
from .lpr import LprKeys
from .params import ProtocolParams
from .ring import RingPoly, draw_below
from .tee import SeedBundle, build_single_tee, build_tee_triple
from .transport import (
    Channel,
    KIND_CIPHERTEXT,
    KIND_DEALER,
    KIND_HELLO,
    KIND_MASKED_REVEAL,
    KIND_SHARE_DELIVERY,
    PHASE_LOAD,
    PHASE_ONLINE,
    PHASE_PREPROCESS,
    PHASE_SETUP,
)


class EngineError(RuntimeError):
    pass


class ShapeError(ValueError):
    pass


# -- model manifest -----------------------------------------------------------------


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n, m) field elements, uint64
    activation: str | None = None


@dataclass
class ConvLayer:
    filters: np.ndarray  # (kh, kw, cin, cout) field elements, uint64
    in_shape: tuple[int, int, int]  # (H, W, C)
    stride: int = 1
    padding: int = 0
    activation: str | None = None


@dataclass
class AvgPoolLayer:
    in_shape: tuple[int, int, int]
    pool: tuple[int, int] = (2, 2)


@dataclass
class MaxPoolVecLayer:
    k: int  # group width over the flat vector


@dataclass
class ArgmaxLayer:
    pass


@dataclass
class ModelManifest:
    name: str
    fp_scale: int
    input_dim: int
    layers: list


def _conv_out_shape(layer: ConvLayer) -> tuple[int, int, int]:
    h, w, _ = layer.in_shape
    kh, kw, _, cout = layer.filters.shape
    oh = (h + 2 * layer.padding - kh) // layer.stride + 1
    ow = (w + 2 * layer.padding - kw) // layer.stride + 1
    return oh, ow, cout


# -- convolution lowering (im2col) ------------------------------------------------------


def im2col_matrix(layer: ConvLayer, p: int) -> np.ndarray:
    """Lower a convolution to the matrix T with flat(x) @ T = flat(conv)."""
    h, w, c = layer.in_shape
    kh, kw, cin, cout = layer.filters.shape
    if cin != c:
        raise ShapeError("filter channel mismatch")
    oh, ow, _ = _conv_out_shape(layer)
    filters = np.asarray(layer.filters, dtype=np.uint64) % p
    t = np.zeros((h * w * c, oh * ow * cout), dtype=np.uint64)
    for oy, ox, fy, fx in itertools.product(range(oh), range(ow), range(kh), range(kw)):
        iy = oy * layer.stride + fy - layer.padding
        ix = ox * layer.stride + fx - layer.padding
        if 0 <= iy < h and 0 <= ix < w:  # input pixel (iy, ix) feeds output (oy, ox)
            row, col = (iy * w + ix) * c, (oy * ow + ox) * cout
            t[row:row + c, col:col + cout] = filters[fy, fx]
    return t


def avgpool_matrix(layer: AvgPoolLayer, params: ProtocolParams,
                   scale_bits: int) -> np.ndarray:
    """Public linear map: averaging entries are fp_encode(1/pool_size)."""
    h, w, c = layer.in_shape
    ph, pw = layer.pool
    oh, ow = h // ph, w // pw
    codec = FixedPointCodec(params, scale_bits=scale_bits)
    inv = codec.encode(1.0 / (ph * pw))
    t = np.zeros((h * w * c, oh * ow * c), dtype=np.uint64)
    ch = np.arange(c)
    for oy, ox, dy, dx in itertools.product(range(oh), range(ow), range(ph), range(pw)):
        t[((oy * ph + dy) * w + ox * pw + dx) * c + ch, (oy * ow + ox) * c + ch] = inv
    return t


# -- lowered layers ----------------------------------------------------------------------


@dataclass
class LinearSecret:
    y: np.ndarray  # secret matrix share/matrix (n, m)
    n: int
    m: int
    job_id: int = -1


@dataclass
class LinearPublic:
    mat: np.ndarray  # public matrix (n, m); output needs truncation


@dataclass
class GadgetLayer:
    """width // k gadgets side by side, each over k consecutive inputs."""

    kind: str  # relu | sigmoid | tanh | maxpool | argmax
    width: int
    k: int = 1
    table: SplineTable | None = None


_SPLINES = {"sigmoid": sigmoid_table, "tanh": tanh_table}  # the tables of spline gadgets


def lower_manifest(manifest: ModelManifest, params: ProtocolParams) -> list:
    """Lower manifest layers to linear + gadget steps."""
    lowered = []
    dim = manifest.input_dim
    scale = manifest.fp_scale
    job = 0
    for idx, layer in enumerate(manifest.layers):
        if isinstance(layer, (DenseLayer, ConvLayer)):
            y = layer.weights if isinstance(layer, DenseLayer) else im2col_matrix(layer, params.p)
            if y.shape[0] != dim:
                raise ShapeError(
                    f"layer {idx}: expects input {y.shape[0]}, got {dim}")
            lowered.append(LinearSecret(y=np.asarray(y, dtype=np.uint64) % params.p,
                                        n=y.shape[0], m=y.shape[1], job_id=job))
            job += 1
            dim = y.shape[1]
            if layer.activation:
                spline = _SPLINES.get(layer.activation)
                lowered.append(GadgetLayer(layer.activation, width=dim,
                                           table=spline and spline(scale, params.p)))
        elif isinstance(layer, AvgPoolLayer):
            mat = avgpool_matrix(layer, params, scale)
            if mat.shape[0] != dim:
                raise ShapeError(f"layer {idx}: avgpool shape mismatch")
            lowered.append(LinearPublic(mat=mat))
            dim = mat.shape[1]
        elif isinstance(layer, MaxPoolVecLayer):
            if layer.k < 1 or dim % layer.k:
                raise ShapeError(f"layer {idx}: maxpool k={layer.k} does not "
                                 f"divide the width {dim}")
            lowered.append(GadgetLayer("maxpool", width=dim, k=layer.k))
            dim = dim // layer.k
        elif isinstance(layer, ArgmaxLayer):
            lowered.append(GadgetLayer("argmax", width=dim, k=dim))
        else:
            raise ShapeError(f"unknown layer {type(layer)!r}")
    return lowered


# -- plaintext reference oracle -----------------------------------------------------------


def reference_infer(manifest: ModelManifest, params: ProtocolParams,
                    x_field) -> list[int]:
    """Fixed-point plaintext mirror of the protocol; the correctness oracle.
    Its output is Python ints, like `decode_vec`'s."""
    p = params.p
    scale = manifest.fp_scale
    x = np.array([int(v) % p for v in x_field], dtype=np.uint64)
    for step in lower_manifest(manifest, params):
        if isinstance(step, (LinearSecret, LinearPublic)):
            z = mod64.vecmat(x, step.y if isinstance(step, LinearSecret) else step.mat, p)
            x = np.array([exact_truncate(int(v), scale, p) for v in z], dtype=np.uint64)
        else:
            x = np.array(_reference_gadget(step, x.tolist(), p, scale), dtype=np.uint64)
    return x.tolist()


def _reference_gadget(step: GadgetLayer, x: list[int], p: int,
                      scale: int) -> list[int]:
    if step.kind == "relu":
        return [plain_relu(v, p) for v in x]
    if step.kind in ("sigmoid", "tanh"):
        return [exact_truncate(step.table.reference(v, p), scale, p) for v in x]
    if step.kind == "maxpool":
        k = step.k
        return [plain_max(x[i:i + k], p) for i in range(0, len(x), k)]
    if step.kind == "argmax":
        return plain_argmax(x, p)
    raise ShapeError(f"unknown gadget {step.kind}")


# -- wire encoding helpers ------------------------------------------------------------------


def encode_vec(v) -> bytes:
    return Writer().u64s(v).getvalue()


def decode_vec(buf: bytes) -> list[int]:
    """Python ints: `perfbench/lockstep.py` adds ints of its own to them."""
    with Reader(buf) as r:
        return r.u64s(len(buf) // 8)


def encode_mat(m: np.ndarray) -> bytes:
    r, c = m.shape
    return Writer().u32(r).u32(c).u64s(m.reshape(-1)).getvalue()


def decode_mat(buf: bytes) -> np.ndarray:
    with Reader(buf) as r:
        rows, cols = r.u32(), r.u32()
        return np.frombuffer(r.raw(8 * rows * cols), "<u8").astype(np.uint64).reshape(rows, cols)


# -- manifest file format ---------------------------------------------------------------------
# text header lines, a blank line, then one weight block per dense/conv layer:
# b"WTS1", u64 count, count u64 words.  A layer line is `layer <kind>` and its
# fields, in `_LAYER_FIELDS` order, each `field=value`, all separated by one
# space.

_LAYER_FIELDS = {"dense": ("in", "out", "act"),
                 "conv": ("h", "w", "c", "kh", "kw", "cout", "stride", "pad", "act"),
                 "avgpool": ("h", "w", "c", "ph", "pw"),
                 "maxpool": ("k",),
                 "argmax": ()}


def _manifest_parts(manifest: ModelManifest) -> tuple[bytes, list]:
    """The manifest's text header, blank line included, and its weight blocks."""
    lines = [f"pairml-model v1",
             f"name={manifest.name}",
             f"fp_scale={manifest.fp_scale}",
             f"input_dim={manifest.input_dim}"]
    blobs = []
    for layer in manifest.layers:
        if isinstance(layer, DenseLayer):
            n, m = layer.weights.shape
            lines.append(f"layer dense in={n} out={m} act={layer.activation or '-'}")
            blobs.append(layer.weights.reshape(-1))
        elif isinstance(layer, ConvLayer):
            kh, kw, ci, co = layer.filters.shape
            h, w, c = layer.in_shape
            lines.append(f"layer conv h={h} w={w} c={c} kh={kh} kw={kw} cout={co} "
                         f"stride={layer.stride} pad={layer.padding} "
                         f"act={layer.activation or '-'}")
            blobs.append(layer.filters.reshape(-1))
        elif isinstance(layer, AvgPoolLayer):
            h, w, c = layer.in_shape
            lines.append(f"layer avgpool h={h} w={w} c={c} "
                         f"ph={layer.pool[0]} pw={layer.pool[1]}")
        elif isinstance(layer, MaxPoolVecLayer):
            lines.append(f"layer maxpool k={layer.k}")
        elif isinstance(layer, ArgmaxLayer):
            lines.append("layer argmax")
    return ("\n".join(lines) + "\n\n").encode(), blobs


def serialize_manifest(manifest: ModelManifest) -> bytes:
    head, blobs = _manifest_parts(manifest)
    w = Writer().raw(head)
    for blob in blobs:
        w.raw(b"WTS1").u64(len(blob)).u64s(blob)
    return w.getvalue()


def _fields(kv: dict, names, where: str) -> dict:
    """The named fields of kv, ints but for `name` and `act`."""
    out = {}
    for field in names:
        try:
            out[field] = kv[field] if field in ("name", "act") else int(kv[field])
        except (KeyError, ValueError):
            raise ValueError(f"manifest {where} field {field} missing or malformed") from None
    return out


def parse_manifest(buf: bytes) -> ModelManifest:
    """The manifest in `buf`, which must be exactly what `serialize_manifest`
    writes for it: every line after the header is a layer line, and a header
    that parses but is not in that form (another separator, a leading zero)
    is refused."""
    head, sep, body = buf.partition(b"\n\n")
    lines = head.decode().split("\n")
    if not sep or lines[:1] != ["pairml-model v1"]:
        raise ValueError("bad manifest header")
    header = _fields(dict(line.partition("=")[::2] for line in lines[1:4]),
                     ("name", "fp_scale", "input_dim"), "header")
    layers = []
    r = Reader(body)

    def weights(*shape):
        if r.raw(4) != b"WTS1":
            raise ValueError("bad weight block")
        return np.frombuffer(r.raw(8 * r.u64()), "<u8").astype(np.uint64).reshape(shape)

    with r:
        for line in lines[4:]:
            word, _, rest = line.partition(" ")
            kind, _, rest = rest.partition(" ")
            if word != "layer" or kind not in _LAYER_FIELDS:
                raise ValueError(f"manifest line {line!r} is not a layer")
            o = _fields(dict(part.partition("=")[::2] for part in rest.split(" ")),
                        _LAYER_FIELDS[kind], f"layer {kind}")
            act = None if o.get("act", "-") == "-" else o["act"]
            if act not in (None, *WIRE_KINDS):
                raise ValueError(f"manifest layer {len(layers)} ({kind}) has unknown "
                                 f"activation {act!r}")
            if kind == "dense":
                layers.append(DenseLayer(weights(o["in"], o["out"]), act))
            elif kind == "conv":
                layers.append(ConvLayer(weights(o["kh"], o["kw"], o["c"], o["cout"]),
                                        (o["h"], o["w"], o["c"]), o["stride"], o["pad"],
                                        act))
            elif kind == "avgpool":
                layers.append(AvgPoolLayer((o["h"], o["w"], o["c"]), (o["ph"], o["pw"])))
            elif kind == "maxpool":
                layers.append(MaxPoolVecLayer(o["k"]))
            else:
                layers.append(ArgmaxLayer())
    manifest = ModelManifest(**header, layers=layers)
    if _manifest_parts(manifest)[0] != head + sep:
        raise ValueError("manifest header not in its canonical form")
    return manifest


# -- the server role ---------------------------------------------------------------------------


@dataclass
class SessionMaterial:
    triples: dict[int, BeaverShare]
    gadgets: list  # per gadget layer, one material per group of k inputs
    consumed: bool = False


class ServerRole:
    """One server's protocol endpoint; both servers run identical call
    sequences against their own shares.  Each `run_*` phase is a generator
    that yields the channel it waits on (see `sim.run_parties`)."""

    def __init__(self, b: int, params: ProtocolParams, peer: Channel,
                 dealer: Channel, owner: Channel, mode: str = "single-tee",
                 rng=None):
        self.b = b
        self.params = params
        self.peer = peer
        self.dealer = dealer
        self.owner = owner
        self.mode = mode
        self.rng = rng
        self.tee = None
        self.tee_channels: list[Channel] = []
        self.setup: DealerSetup | None = None
        self.manifest: ModelManifest | None = None
        self.lowered: list | None = None
        self.f_public: dict[int, np.ndarray] = {}
        self.b_shares: dict[int, np.ndarray] = {}
        self.converted: dict[tuple[int, int], ConvertedColumn] = {}
        self.plan: PackPlan | None = None
        self.sessions: dict[int, SessionMaterial] = {}
        self.layer: int | None = None  # the lowered step run_infer is in

    # ---- setup -------------------------------------------------------------

    def run_setup(self):
        yield from self.peer.exchange(KIND_HELLO, PHASE_SETUP, b"")
        size = RingPoly.wire_size(self.params)
        with Reader((yield from self.dealer.wait()).payload) as r:
            seeds = [r.raw(32) for _ in range(r.u32())]
            pk0, pk1, s_share = (RingPoly.deserialize(self.params, r.raw(size))
                                 for _ in range(3))
        if len(seeds) != 6:
            raise EngineError(f"setup frame carries {len(seeds)} seeds, not 6")
        bundle = SeedBundle(pair_seeds=seeds[:3], intra_seeds=seeds[3:])
        self.setup = DealerSetup((pk0, pk1), s_share)
        if self.mode == "single-tee":
            self.tee, self.tee_channels = build_single_tee(
                self.b, self.params, bundle)
        else:
            self.tee, self.tee_channels = build_tee_triple(
                self.b, self.params, bundle)

    # ---- model loading -----------------------------------------------------

    def run_load(self):
        with Reader((yield from self.owner.wait()).payload) as r:
            self.manifest = parse_manifest(r.blob())
        for idx, layer in enumerate(self.manifest.layers):
            if isinstance(layer, (DenseLayer, ConvLayer)):
                self._field(layer.weights if isinstance(layer, DenseLayer) else layer.filters,
                            f"the owner's weight shares of layer {idx}")
        self.lowered = lower_manifest(self.manifest, self.params)
        p = self.params.p
        # the manifest's weights are this server's shares of Y
        secret = [step for step in self.lowered if isinstance(step, LinearSecret)]
        self.plan = plan_packing(self.params, [(step.n, step.m) for step in secret])
        # sample B shares, reveal F = Y - B per linear layer
        for step in secret:
            b_share = draw_below(self.rng, p, step.n * step.m).reshape(step.n, step.m)
            f_share = mod64.sub(step.y, b_share, p)
            peer_f = self._field(decode_mat((yield from self.peer.exchange(
                KIND_MASKED_REVEAL, PHASE_LOAD, encode_mat(f_share))).payload),
                f"the peer's F of job {step.job_id}")
            self.f_public[step.job_id] = mod64.add(f_share, peer_f, p)
            self.b_shares[step.job_id] = b_share
        # dealer conversion of every packed column of B
        req = Writer().blob(self.setup.s_share.serialize())
        req.u32(sum(job.m for job in self.plan.jobs))
        for job in self.plan.jobs:
            for t, col in enumerate(self.b_shares[job.job_id].T):
                req.u32(job.job_id).u32(t).u32(len(col)).u64s(col)
        reply = yield from self.dealer.exchange(KIND_DEALER, PHASE_LOAD,
                                                req.getvalue())
        size = RingPoly.wire_size(self.params)
        with Reader(reply.payload) as r:
            for _ in range(r.u32()):
                jid, t = r.u32(), r.u32()
                self.converted[(jid, t)] = ConvertedColumn(
                    RingPoly.deserialize(self.params, r.raw(size)),
                    RingPoly.deserialize(self.params, r.raw(size)))

    # ---- preprocessing -----------------------------------------------------

    def run_preprocess(self, session_id: int):
        triple_sess = TripleGenSession(self.params, self.plan, self.b, self.setup,
                                       self.b_shares, self.converted, self.rng)
        reply = yield from self.peer.exchange(
            KIND_CIPHERTEXT, PHASE_PREPROCESS,
            Writer().blobs(triple_sess.start()).getvalue())
        with Reader(reply.payload) as r:
            peer_blobs = r.blobs()
        triple_sess.feed(peer_blobs)
        triples = {t.job_id: t for t in triple_sess.output}
        gadget_mats = []
        for step in self.lowered:
            if not isinstance(step, GadgetLayer):
                continue
            gadget_mats.append(self._gadget_material(step))
        self.sessions[session_id] = SessionMaterial(triples=triples,
                                                    gadgets=gadget_mats)

    def _gadget_material(self, step: GadgetLayer) -> list:
        return [self.tee.gadget_material(step.kind, k=step.k, table=step.table)
                for _ in range(step.width // step.k)]

    # ---- online -------------------------------------------------------------

    def run_infer(self, session_id: int):
        mat = self.sessions[session_id]
        if mat.consumed:
            raise EngineError("session material consumed twice")
        mat.consumed = True
        p = self.params.p
        scale = self.manifest.fp_scale
        x = self._field(decode_vec((yield from self.owner.wait()).payload),
                        "the owner's input shares")
        gadget_idx = 0
        for idx, step in enumerate(self.lowered):
            self.layer = idx
            if isinstance(step, LinearSecret):
                triple = mat.triples[step.job_id]
                triple.consume()
                e = yield from self._reveal(mod64.sub(x, triple.a, p))
                z = mod64.add(mod64.vecmat(x, self.f_public[step.job_id], p),
                              mod64.add(mod64.vecmat(e, triple.b_mat, p), triple.c, p), p)
                x = truncate_share_vec(z, scale, self.b, p)
            elif isinstance(step, LinearPublic):
                x = truncate_share_vec(mod64.vecmat(x, step.mat, p), scale, self.b, p)
            else:
                x = yield from self._run_gadget(step, mat.gadgets[gadget_idx], x)
                gadget_idx += 1
                if step.table is not None:  # a spline's output is at scale 2s
                    x = truncate_share_vec(x, scale, self.b, p)
        self.layer = None
        self.owner.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, encode_vec(x))

    def _reveal(self, flat: np.ndarray):
        """Exchange masked shares (uint64) with the peer; the revealed values.
        A reveal of another length is rejected, not cut to fit."""
        peer = self._field(decode_vec((yield from self.peer.exchange(
            KIND_MASKED_REVEAL, PHASE_ONLINE, encode_vec(flat))).payload), "the peer's reveal")
        if len(peer) != len(flat):
            raise EngineError(f"the peer revealed {len(peer)} values, "
                              f"expected {len(flat)}")
        return mod64.add(flat, peer, self.params.p)

    def _field(self, values, message: str) -> np.ndarray:
        """values, received in `message`, as uint64, unless one is not below p."""
        values = np.asarray(values, dtype=np.uint64)
        if (values >= self.params.p).any():
            raise EngineError(f"{message} holds a value not below p")
        return values

    def _run_gadget(self, step: GadgetLayer, materials: list, x: np.ndarray):
        """The layer's output shares; its sessions work on Python ints."""
        def reveal(flat):
            return (yield from self._reveal(np.array(flat, dtype=np.uint64))).tolist()

        k, x = step.k, x.tolist()
        return np.array((yield from drive([make_session(m, x[i * k:(i + 1) * k])
                                           for i, m in enumerate(materials)], reveal)),
                        dtype=np.uint64)

    # ---- closed-form online budget -------------------------------------------

    def online_budget_elements(self) -> int:
        """Masked-reveal field elements per direction for one inference."""
        total = 0
        for step in self.lowered:
            if isinstance(step, LinearSecret):
                total += step.n
            elif isinstance(step, GadgetLayer):
                total += gadget_reveal_elements(step)
        return total


def gadget_reveal_elements(step: GadgetLayer) -> int:
    if step.kind in ("relu", "sigmoid", "tanh"):
        return step.width
    if step.kind == "maxpool":
        groups = step.width // step.k
        return groups * (step.k - 1) * 7  # k - 1 max2 nodes, 3 + 4 reveals each
    if step.kind == "argmax":
        return (step.k - 1) * 7 + step.k
    raise ShapeError(step.kind)


# -- dealer role ------------------------------------------------------------------------------


class DealerRole:
    """Ideal-functionality stand-in for the garbled-circuit steps: brokers
    seeds and keys at setup, converts masked-matrix columns at load (a
    generator, like the `ServerRole` phases)."""

    def __init__(self, params: ProtocolParams, chan0: Channel, chan1: Channel,
                 rng):
        self.params = params
        self.chans = (chan0, chan1)
        self.rng = rng
        self.keys: LprKeys | None = None

    def run_setup(self):
        keys, d0, d1 = dealer_setup(self.params, self.rng)
        self.keys = keys  # retained only for trusted-test assertions
        bundle = SeedBundle.from_rng(self.rng)
        seeds = bundle.pair_seeds + bundle.intra_seeds
        for b, d in enumerate((d0, d1)):
            w = Writer().u32(len(seeds))
            for part in seeds + [d.pk[0].serialize(), d.pk[1].serialize(),
                                 d.s_share.serialize()]:
                w.raw(part)
            self.chans[b].send(KIND_DEALER, PHASE_SETUP, w.getvalue())

    def run_convert(self):
        s0, cols0 = self._parse_req((yield from self.chans[0].wait()).payload)
        s1, cols1 = self._parse_req((yield from self.chans[1].wait()).payload)
        if sorted(cols0) != sorted(cols1):
            raise EngineError("servers disagree on conversion requests")
        # the pack plan is public: job shapes follow from the request keys
        shapes: dict[int, tuple[int, int]] = {}
        for (jid, t), col in cols0.items():
            n, m = shapes.get(jid, (len(col), 0))
            shapes[jid] = (n, max(m, t + 1))
        plan = plan_packing(self.params, [shapes[j] for j in sorted(shapes)])
        replies = [Writer().u32(len(cols0)) for _ in self.chans]
        for jid, t in sorted(cols0):
            if len(cols0[jid, t]) != len(cols1[jid, t]):
                raise ValueError(f"job {jid} column {t}: the servers sent "
                                 f"{len(cols0[jid, t])} and {len(cols1[jid, t])} values")
            placed = [place_column(self.params, plan, jid, cols[jid, t], t)
                      for cols in (cols0, cols1)]
            convs = dealer_convert_column(self.params, s0, s1, *placed, self.rng)
            for w, conv in zip(replies, convs):
                w.u32(jid).u32(t).raw(conv.y_share.serialize())
                w.raw(conv.ys_share.serialize())
        for ch, w in zip(self.chans, replies):
            ch.send(KIND_DEALER, PHASE_LOAD, w.getvalue())

    def _parse_req(self, payload: bytes):
        with Reader(payload) as r:
            s_share = RingPoly.deserialize(self.params, r.blob())
            cols = {}
            for _ in range(r.u32()):
                jid, t, n = r.u32(), r.u32(), r.u32()
                cols[(jid, t)] = r.u64s(n)
        return s_share, cols


def place_column(params: ProtocolParams, plan: PackPlan, job_id: int,
                 col: list[int], t: int | None = None) -> np.ndarray:
    """One B column (column t of a job) at the job's slots, zero elsewhere.

    Raises ValueError, naming the job and column, unless the column holds
    exactly the job's n values, each in [0, p).
    """
    job = next(j for j in plan.jobs if j.job_id == job_id)
    name = f"job {job_id}" if t is None else f"job {job_id} column {t}"
    if len(col) != job.n:
        raise ValueError(f"{name}: {len(col)} values for a job of n={job.n}")
    if not all(0 <= int(v) < params.p for v in col):
        raise ValueError(f"{name}: a value is not in [0, p)")
    lo, hi = plan.slot_range(job)
    slots = np.zeros(params.n_ring, dtype=np.int64)
    slots[lo:hi] = np.array(col, dtype=np.int64)
    return slots

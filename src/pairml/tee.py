"""Simulated trusted-hardware parties.

Single-TEE mode: one enclave per server holds a cross-server pairwise PRF
seed; both enclaves derive identical randomness, so each can centrally run
FSS key generation and hand its server exactly one half of every key pair.
Each enclave holds every tree seed whole, so its keys have one-block seeds:
one PRG pass per node.

Multiple-TEE mode: three enclaves per server run replicated-sharing 3PC to
generate the same material without any single enclave learning the masks or
assembling a full key.  The tree PRG is never evaluated inside the 3PC:
node seeds are three blocks of `prg.LAM` bits, and each enclave learns
exactly one block in the clear and expands it once, locally.  On the seed
area the XOR of the three local expansions is the node expansion; the
payload words after that area sum to the node's payload words mod p, so an
enclave inputs the words of its own expansion as its additive share and no
payload block leaves it.  Only the cheap correction-word logic runs as
boolean/arithmetic 3PC gates.

A material is made in two steps.  Planning runs the material's recipe in
`gadgets` against a key source whose masks are sums of three GenRand
pieces: key by key in the recipe's order, it draws every GenRand piece and
root block from the enclaves' pair PRFs.  Running then generates all of its
DPF and DCF keys at once, as lanes of one level-synchronous 3PC: lanes are
packed side by side into the boolean sharings and concatenated in the
arithmetic ones, so one gate call serves every key.  A tree level costs four
communication rounds whatever the number of keys: the seed-area reshare
with the payload-word input, one AND layer, the correction-word reveal, and
the redistribution of the next seeds' blocks.  The payload corrections of
all levels wait for the end, where they take five rounds (four when the
batch holds no DCF key): the leaf and payload input with the bit
conversion's first multiply, its second, the muxes with the payload
products, the signs, and the reveal.  Each revealed correction word is a
fixed function of the root blocks, the point and the payload, so the keys
do not depend on how the gates are batched.

Both servers' triples execute the identical deterministic protocol from the
shared pair seeds, so server b ends up with key half k_b of a consistent
pair without any cross-server traffic.

An enclave's inputs are the prime p, its seed bundle and its channels;
`build_single_tee` and `build_tee_triple`, which the host calls, read p off
the host's parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prg
from .fss import DcfKey, DpfKey, make_key
from .gadgets import (CentralSource, SplineTable, deserialize_material, recipe,
                      serialize_material)
from .params import ProtocolParams
from .prg import Prf, PrfStream
from .shares3 import A3, B3, Arith3Engine, Bool3Engine, TriadNet, lane_bits, spread
from .transport import (Channel, ENCLAVE, KIND_TEE_MATERIAL, LOCAL, PHASE_PREPROCESS,
                        inproc_pair)


class CounterOverflowError(RuntimeError):
    pass


_COUNTER_LIMIT = 1 << 62


@dataclass
class SeedBundle:
    """Dealer-brokered seeds: pair_seeds[i] is shared by the two enclaves of
    pair i across servers; intra_seeds feed the 3PC zero-sharing streams and
    are identical on both servers so runs replay deterministically."""

    pair_seeds: list[bytes]
    intra_seeds: list[bytes]

    @classmethod
    def from_rng(cls, rng) -> "SeedBundle":
        return cls(pair_seeds=[rng.randbytes(32) for _ in range(3)],
                   intra_seeds=[rng.randbytes(32) for _ in range(3)])


@dataclass
class GenRandPiece:
    r: int
    sh0: int
    sh1: int

    def share(self, b: int) -> int:
        return self.sh0 if b == 0 else self.sh1


class TeeParty:
    """One simulated enclave: pairwise seed, PRF, strictly monotone counter."""

    def __init__(self, seed: bytes):
        self.prf = Prf(seed)
        self.counter = 0

    def _tick(self, n: int = 1) -> int:
        if self.counter + n >= _COUNTER_LIMIT:
            raise CounterOverflowError("epoch rotation required")
        c = self.counter
        self.counter += n
        return c

    def draw_bytes(self, n: int, tag: bytes = b"") -> bytes:
        return self.prf.raw(self._tick(), tag, n)

    def genrand(self, p: int) -> GenRandPiece:
        """Fig-style PRF-counter draw: both servers' enclaves of this pair
        derive byte-identical (r_i, share split); counter advances by two."""
        c = self._tick(2)
        r = self.prf.field_element(c, p, b"genrand")
        sh0 = self.prf.field_element(c + 1, p, b"genrand")
        return GenRandPiece(r=r, sh0=sh0, sh1=(r - sh0) % p)


def _deliver(mat, to_host: Channel, host_end: Channel, kind: str, k: int,
             table: SplineTable | None):
    """Pass an enclave's material to its host as a blob; the host checks it
    against its request and re-attaches the public spline table, which the
    blob leaves out."""
    to_host.send(KIND_TEE_MATERIAL, PHASE_PREPROCESS, serialize_material(mat))
    mat = deserialize_material(host_end.recv().payload)
    want = f"{kind} (k={k})" if kind in ("maxpool", "argmax") else kind
    got = f"{mat.kind} (k={mat.k})" if hasattr(mat, "k") else mat.kind
    if got != want:
        raise ValueError(f"asked the enclave for a {want} material, got a {got} one")
    if table is not None:
        mat.table = table
    return mat


class SingleTee:
    """Single enclave per server: centralized FSS.Gen from the shared seed."""

    def __init__(self, server: int, p: int, bundle: SeedBundle, to_host: Channel,
                 host_end: Channel):
        self.server = server
        self.source = CentralSource(
            p, PrfStream(bundle.pair_seeds[0], tag=b"fssgen-single"))
        self.to_host = to_host
        self.host_end = host_end

    def gadget_material(self, kind: str, k: int = 1,
                        table: SplineTable | None = None):
        """Build the key pair deterministically; deliver this server's half."""
        build = recipe(kind, self.source, k, table)
        return _deliver(build(self.server), self.to_host, self.host_end, kind, k, table)


@dataclass
class _KeyPlan:
    """One DPF/DCF key of a batch, planned before any 3PC runs."""

    kind: str  # "dcf" or "dpf"
    alpha: list  # the three GenRand pieces whose sum mod p is the point
    beta_spec: list  # payload components: ("const", c) or ("mask", pieces)
    roots: list[list[bytes]]  # roots[j][party]: enclave j's root-seed block
    name: tuple  # the key's name in the view ledger
    key: DcfKey | DpfKey | None = None

    def __getitem__(self, party: int) -> DcfKey | DpfKey:
        """The key half of `party`: a triple makes only its own server's."""
        if self.key is None or self.key.party != party:
            raise KeyError(f"no key half of party {party}")
        return self.key


class _Batch:
    """The key source of a triple's batch: a mask is the sum of three
    GenRand pieces, and each key is planned into `plans` for `_gen_keys`."""

    def __init__(self, tee: "TeeTriple"):
        self.tee, self.p, self.plans = tee, tee.p, []

    def mask(self) -> list[GenRandPiece]:
        return [pt.genrand(self.p) for pt in self.tee.parties]

    def key(self, kind: str, point: list[GenRandPiece], payload: list) -> _KeyPlan:
        spec = [("mask", c) if isinstance(c, list) else ("const", c) for c in payload]
        return self.tee._plan_key(self.plans, kind, point, spec)

    def share(self, pieces: list[GenRandPiece]) -> list[int]:
        # each piece's split was drawn with it, so this draws nothing
        return [sum(pc.share(b) for pc in pieces) % self.p for b in (0, 1)]


class TeeTriple:
    """Three enclaves per server with distributed FSS key generation."""

    def __init__(self, server: int, p: int, bundle: SeedBundle, net: TriadNet,
                 to_host: Channel, host_end: Channel):
        self.server = server
        self.p = p
        self.parties = [TeeParty(bundle.pair_seeds[i]) for i in range(3)]
        self.net = net
        self.to_host = to_host  # enclave 0 delivers the assembled material
        self.host_end = host_end
        zero_streams = [PrfStream(s, tag=b"zero3") for s in bundle.intra_seeds]
        self.bool3 = Bool3Engine(net, zero_streams)
        self.arith = Arith3Engine(
            net, [PrfStream(s, tag=b"zero3a") for s in bundle.intra_seeds], p)
        # the view ledger of the batch in progress, and the violations of
        # the batches before it: seed names carry their batch's first
        # counter, so no batch names a seed of another
        self.views: dict[int, list[tuple]] = {0: [], 1: [], 2: []}
        self.violations: list[str] = []

    # -- view ledger --------------------------------------------------------

    def _see(self, enclave: int, nodes: list, party, blk: int):
        """The enclave saw block blk of the seed of `party` at every node."""
        self.views[enclave].append((nodes, party, blk))

    def check_view_discipline(self) -> list[str]:
        """No enclave may see two distinct blocks of one seed."""
        bad = list(self.violations)
        for enclave, entries in self.views.items():
            if all(blk == enclave for *_, blk in entries):
                continue  # only its own block of any seed
            seen: dict[tuple, set[int]] = {}
            for nodes, party, blk in entries:
                for node in nodes:
                    seen.setdefault((node, party), set()).add(blk)
            for key, blocks in seen.items():
                if len(blocks) > 1:
                    bad.append(f"enclave {enclave} saw blocks {sorted(blocks)} "
                               f"of seed {key}")
                if blocks - {enclave}:
                    bad.append(f"enclave {enclave} saw foreign block of {key}")
        return bad

    # -- randomness ----------------------------------------------------------

    def _beta_pieces(self, plans: list[_KeyPlan]) -> list[list[int]]:
        """Enclave j's additive pieces of every lane's payload: constants
        with enclave 0, mask components as their GenRand pieces."""
        return [[(c[1] % self.p if j == 0 else 0) if c[0] == "const" else c[1][j].r
                 for plan in plans for c in plan.beta_spec] for j in range(3)]

    # -- distributed key generation -------------------------------------------

    def _plan_key(self, plans: list[_KeyPlan], kind: str, alpha_pieces: list,
                  beta_spec: list) -> _KeyPlan:
        """Plan one key into `plans`: its root blocks are drawn now, and
        `_gen_keys` generates it with the rest of the batch."""
        name = ("kg", self.parties[0].counter)
        roots = []
        for j, pt in enumerate(self.parties):
            roots.append([pt.draw_bytes(prg.BLOCK, tag=b"root") for _ in (0, 1)])
            for party in (0, 1):
                self._see(j, [(name, "root")], party, j)
        plan = _KeyPlan(kind, alpha_pieces, beta_spec, roots, name)
        plans.append(plan)
        return plan

    def _redistribute(self, plans: list[_KeyPlan], level: int, seeds: list[B3]) -> list[bytes]:
        """Block redistribution of both parties' next seeds: enclave k ends
        with clear block k of every lane's seed.  Returns each party's seeds
        as bytes, block k of lane l the (3 l + k)-th `prg.BLOCK` bytes."""
        nb = len(plans) * 3 * prg.BLOCK
        # (party, share, lane, block, byte)
        cut = np.frombuffer(b"".join(x.to_bytes(nb, "little") for s in seeds for x in s.shares),
                            np.uint8).reshape(2, 3, -1, 3, prg.BLOCK)
        # enclave e holds share e+1 (its high share) and hands enclave e-1
        # block e-1 of it
        self.net.send([cut[:, (e + 1) % 3, :, (e - 1) % 3].tobytes() for e in range(3)],
                      step=2)
        for party in (0, 1):
            nodes = [((plan.name, level), "next", party) for plan in plans]
            for k in range(3):
                self._see(k, nodes, "seed", k)
        return [s.value().to_bytes(nb, "little") for s in seeds]

    def _gen_keys(self, plans: list[_KeyPlan]):
        """Generate every planned key in one level-synchronous 3PC, lane l
        running the l-th key, DCF lanes first."""
        plans = sorted(plans, key=lambda plan: plan.kind != "dcf")
        p = self.p
        n = (p - 1).bit_length()  # the depth of FSS trees over Z_p
        bool3, arith, net = self.bool3, self.arith, self.net
        xor, add, sub = bool3.xor, arith.add, arith.sub
        K = len(plans)
        Kd = sum(plan.kind == "dcf" for plan in plans)
        Ls = [len(plan.beta_spec) for plan in plans]
        Ld, offs = sum(Ls[:Kd]), [sum(Ls[:l]) for l in range(K)]
        nbytes = [prg.layout(3, Ls[l], l < Kd)[1] for l in range(K)]  # per lane's node
        A = prg.layout(3, 0)[0]  # the seed area of every three-block tree
        B, W = prg.BLOCK, 3 * prg.LAM  # bytes per block, seed bits per lane
        lanes = (1 << K) - 1
        # a level's DCF payload words come per (party, lane, side); the 3PC
        # takes them per (party, side, lane)
        order = np.array([2 * (c * Ld + offs[l]) + side * Ls[l] + k
                          for c in (0, 1) for side in (0, 1) for l in range(Kd)
                          for k in range(Ls[l])], dtype=np.intp)

        alpha = bool3.a2b([[plan.alpha[j].r for plan in plans] for j in range(3)], p)
        blocks = [b"".join(plan.roots[j][c] for plan in plans for j in range(3))
                  for c in (0, 1)]
        t = [B3([0, 0, 0], K), bool3.xor_const(B3([0, 0, 0], K), lanes)]
        t1s: list[B3] = []  # party 1's control bits entering each level
        cvs: list[A3] = []  # per level: payload words (party, side) x DCF lanes
        cws: list[tuple] = []  # per level: the seed and control correction words

        for level, a in enumerate(lane_bits(alpha, n, range(n - 1, -1, -1))):
            t1s.append(t[1])
            # the alpha bits and both parties' control bits across their seeds
            aw, *tw = spread(B3.cat(a, *t), W).split(K * W, K * W, K * W)
            # raw[c][j][l]: enclave j's expansion of its block of party c's seed
            raw = [[[prg.g_expand(blocks[c][B * (3 * l + j):B * (3 * l + j + 1)], nb)
                     for l, nb in enumerate(nbytes)] for j in range(3)] for c in (0, 1)]
            areas = [[b"".join([x[:A] for x in raw[c][j]]) for j in range(3)] for c in (0, 1)]
            # enclave j's shares of party c's next seeds and control bits on
            # either side, lane l at bit W l resp. l: read off its own
            # expansions' seed areas, the (party, enclave) runs of K lanes
            kids = prg.children(3, b"".join(areas[0] + areas[1]))
            s_l, s_r, t_l, t_r = (
                [B3([x >> (3 * c + j) * w & (1 << w) - 1 for j in range(3)], w) for c in (0, 1)]
                for x, w in zip(kids, (K * W, K * W, K, K)))
            # enclave j's additive piece of the DCF lanes' payload words, per
            # (party, side, lane): read off its own expansions
            pieces = arith.words(b"".join(raw[c][j][l][A:] for j in range(3) for c in (0, 1)
                                          for l in range(Kd))).reshape(3, -1)[:, order]

            with net.round():  # seed areas resharing, payload words input
                net.send([areas[0][j] + areas[1][j] for j in range(3)], step=2)
                cvs.append(arith.input_additive(pieces))

            # one AND layer: the lose-side seed XOR (lose = L iff the alpha
            # bit is set), both parties' keep-side seeds and control bits,
            # and each party's control bit times the alpha bit
            xl, xr = xor(s_l[0], s_l[1]), xor(s_r[0], s_r[1])
            prods = bool3.and_(
                B3.cat(aw, aw, aw, a, a, t[0], t[1]),
                B3.cat(xor(xl, xr), xor(s_l[0], s_r[0]), xor(s_l[1], s_r[1]),
                       xor(t_l[0], t_r[0]), xor(t_l[1], t_r[1]), a, a))
            m_cw, *m_s, m_t0, m_t1, ta0, ta1 = prods.split(*[K * W] * 3, *[K] * 4)

            s_cw = xor(xr, m_cw)
            t_cw_l = bool3.xor_const(xor(xor(t_l[0], t_l[1]), a), lanes)
            t_cw_r = xor(xor(t_r[0], t_r[1]), a)
            opened = bool3.reveal(B3.cat(s_cw, t_cw_l, t_cw_r))
            s_pub = opened & ((1 << (K * W)) - 1)
            cl, cr = (opened >> (K * W)) & lanes, opened >> (K * W + K)
            cws.append((s_pub, cl, cr))

            # next seeds: keep side, xor s_cw where the control bit is set
            # (public s_cw, so a local AND); next control bits likewise, with
            # t_cw_keep = cl ^ alpha (cl ^ cr)
            seeds = [xor(xor(s_l[c], m_s[c]), bool3.and_const(tw[c], s_pub)) for c in (0, 1)]
            t = [xor(xor(t_l[c], m_t), xor(bool3.and_const(t[c], cl),
                                           bool3.and_const(ta, cl ^ cr)))
                 for c, m_t, ta in ((0, m_t0, ta0), (1, m_t1, ta1))]
            blocks = self._redistribute(plans, level, seeds)  # next seed blocks

        t1s.append(t[1])
        leaf = [[x for c in (0, 1) for l in range(K) for x in prg.block_convert(
            blocks[c][B * (3 * l + j):B * (3 * l + j + 1)], Ls[l], p)] for j in range(3)]
        inputs = []  # the leaf and payload inputs, sent in bit2a's first round
        # arithmetic alpha bits and party-1 control bits of the DCF lanes at
        # every level, and every lane's control bit at the leaves
        bits = arith.bit2a(
            B3.cat(alpha.split(Kd * n)[0], *(tb.split(Kd)[0] for tb in t1s[:n]), t1s[n]),
            along=lambda: inputs.extend(map(arith.input_additive,
                                            (leaf, self._beta_pieces(plans)))))
        leaf, beta = inputs
        LT = sum(Ls)
        cv0, cv1 = leaf[:, :LT], leaf[:, LT:]
        dcf = np.repeat(np.arange(Kd), Ls[:Kd])  # the DCF lane of each payload word
        signs = np.hstack([bits[:, Kd * n:2 * Kd * n].reshape(3, n, Kd)[:, :, dcf].reshape(3, -1),
                           np.repeat(bits[:, 2 * Kd * n:], Ls, axis=1)])

        brackets = v_alpha = np.zeros((3, 0), dtype=np.uint64)
        if Kd:
            # per (level, DCF payload word): the alpha bit, and the payload
            # words of (party, side)
            a_ar = bits[:, :Kd * n].reshape(3, Kd, n)[:, dcf, ::-1].swapaxes(1, 2)
            l0, r0, l1, r1 = np.stack(cvs, axis=1).reshape(3, n, 4, Ld).transpose(2, 0, 1, 3)
            # per level and party, lose = mux(a, vL, vR) and keep = vL + vR - lose,
            # from d = a (vL - vR); and the payload term a * beta
            prods = arith.mult(
                np.repeat(a_ar[:, :, None], 3, axis=2),
                np.stack([sub(l0, r0), sub(l1, r1),
                          np.broadcast_to(beta[:, None, :Ld], l0.shape)], axis=2))
            d0, d1, ab = np.moveaxis(prods, 2, 0)
            # a level's bracket is (r1 + d1) - (r0 + d0) + ab less what the
            # payload still owes entering it, v_alpha; leaving it, v_alpha is
            # l0 - l1 + (d1 - d0) plus the bracket's first terms, whatever it
            # was before, so every level's comes in closed form
            x = add(sub(add(r1, d1), add(r0, d0)), ab)
            v_out = add(add(sub(l0, l1), sub(d1, d0)), x)
            brackets = sub(x, np.concatenate([np.zeros_like(x[:, :1]), v_out[:, :-1]],
                                             axis=1)).reshape(3, -1)
            v_alpha = v_out[:, -1]
        # leaf payload: what a DCF's levels left over, all of beta for a DPF
        base = np.hstack([sub(sub(cv1[:, :Ld], cv0[:, :Ld]), v_alpha),
                          add(sub(beta[:, Ld:], cv0[:, Ld:]), cv1[:, Ld:])])
        xs = np.hstack([brackets, base])
        # every correction word is its term times (-1)^t1
        words = arith.reveal(sub(xs, arith.scale(arith.mult(signs, xs), 2)))

        for l, plan in enumerate(plans):
            at = range(offs[l], offs[l] + Ls[l])
            levels = [(s >> l * W & (1 << W) - 1, (cl >> l & 1, cr >> l & 1))
                      for s, cl, cr in cws]
            plan.key = make_key(
                self.server, p, b"".join(r[self.server] for r in plan.roots),
                levels, [words[n * Ld + k] for k in at],
                [words[i * Ld + k] for i in range(n) for k in at] if l < Kd else None)
        self.violations = self.check_view_discipline()
        self.views = {0: [], 1: [], 2: []}

    def dist_tree_gen(self, kind: str, alpha_pieces: list,
                      beta_spec: list) -> DcfKey | DpfKey:
        """Distributed DPF/DCF key generation as a batch of one; returns this
        server's half.

        alpha_pieces: the three GenRand pieces whose mod-p sum is the secret
        threshold/point.  beta_spec: payload component spec (const or mask).
        """
        plans: list[_KeyPlan] = []
        plan = self._plan_key(plans, kind, alpha_pieces, beta_spec)
        self._gen_keys(plans)
        return plan.key

    def gadget_material(self, kind: str, k: int = 1,
                        table: SplineTable | None = None):
        """Plan every key of the material, generate them all in one batch,
        then assemble and deliver it."""
        batch = _Batch(self)
        build = recipe(kind, batch, k, table)
        if batch.plans:  # a batch of no keys runs no 3PC
            self._gen_keys(batch.plans)
        return _deliver(build(self.server), self.to_host, self.host_end, kind, k, table)


def build_single_tee(server: int, params: ProtocolParams, bundle: SeedBundle):
    """SingleTee plus the channels the engine should keep for metering."""
    enc_end, host_end = inproc_pair(f"tee{server}-enclave", f"tee{server}-host",
                                    LOCAL)
    tee = SingleTee(server, params.p, bundle, to_host=enc_end, host_end=host_end)
    return tee, [enc_end, host_end]


def build_tee_triple(server: int, params: ProtocolParams, bundle: SeedBundle):
    """TeeTriple plus the channels the engine should keep for metering."""
    chans = {}
    for i in range(3):
        for j in range(i + 1, 3):
            chans[(i, j)], chans[(j, i)] = inproc_pair(
                f"s{server}-enc{i}->{j}", f"s{server}-enc{j}->{i}", ENCLAVE)
    enc_end, host_end = inproc_pair(f"s{server}-enc0-host", f"s{server}-host-enc0",
                                    LOCAL)
    tee = TeeTriple(server, params.p, bundle, TriadNet(chans), enc_end, host_end)
    return tee, [*chans.values(), enc_end, host_end]

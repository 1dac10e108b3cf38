"""Replicated secret sharing among three enclaves: boolean and mod-p arithmetic.

Share j of a value is held by enclaves j (as its low share) and j-1 (as its
high share); any two enclaves reconstruct, one alone sees uniform noise.
XOR/addition are local; AND and multiplication cost one reshare message per
enclave, drawn against pairwise zero-sharing PRF streams.

Many values travel as one sharing, so one gate call covers every lane: a B3
packs lanes side by side into its ints, and an A3 is one (3, n) uint64
array, row j share j, on which every operation runs whole.  Its products
are Shoup's, exact for every p < 2^62, by the kernels of `mod64`, which the
host's ring arithmetic runs too (an enclave reaches no host module).
Gates that do not depend on each other can also share a communication
round: inside `TriadNet.round()` every send is queued and goes out as one
message per enclave and direction when the block ends.

The three enclaves of one server run in lockstep inside the server process
(fast-test actor mode); every value that would cross an enclave boundary in
a hardware deployment goes through a metered enclave-enclave channel, so the
communication and gate counts the acceptance tests measure are real.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mod64
from .prg import PrfStream
from .transport import Channel, KIND_B3PC, PHASE_PREPROCESS


@dataclass
class B3:
    """Boolean replicated sharing: bit-vectors packed into ints."""

    shares: list[int]  # x_0, x_1, x_2 with x = x0 ^ x1 ^ x2
    width: int

    def value(self) -> int:
        return self.shares[0] ^ self.shares[1] ^ self.shares[2]

    @staticmethod
    def cat(*xs: "B3") -> "B3":
        """xs side by side, xs[0] in the low bits."""
        shares, off = [0, 0, 0], 0
        for x in xs:
            for j in range(3):
                shares[j] |= x.shares[j] << off
            off += x.width
        return B3(shares, off)

    def split(self, *widths: int) -> list["B3"]:
        """The inverse of `cat`: consecutive pieces of the given widths."""
        out, off = [], 0
        for w in widths:
            mask = (1 << w) - 1
            out.append(B3([(s >> off) & mask for s in self.shares], w))
            off += w
        return out


# An arithmetic replicated sharing mod p: a (3, ...) uint64 array, row j
# share j, every entry below p; the three rows sum to the value mod p.
A3 = np.ndarray


# -- lane layout helpers: local, share by share ---------------------------------------


def _bits(x: B3) -> np.ndarray:
    """The bits of x's three shares, a (3, width) uint8 array."""
    nb = (x.width + 7) // 8
    raw = np.frombuffer(b"".join(s.to_bytes(nb, "little") for s in x.shares), np.uint8)
    return np.unpackbits(raw.reshape(3, nb), axis=1, count=x.width, bitorder="little")


def _b3(bits: np.ndarray) -> B3:
    """The B3 whose shares have the bits of the rows of a (3, width) array."""
    rows = np.packbits(bits, axis=1, bitorder="little")
    return B3([int.from_bytes(r.tobytes(), "little") for r in rows], bits.shape[1])


def lane_bits(x: B3, stride: int, ks) -> list[B3]:
    """For each k in ks, bit k of every stride-bit lane of x, one bit per lane."""
    return [_b3(b) for b in _bits(x).reshape(3, -1, stride)[:, :, ks].transpose(2, 0, 1)]


def spread(bits: B3, stride: int) -> B3:
    """Each bit of `bits` copied across a stride-bit lane of its own."""
    return _b3(np.repeat(_bits(bits), stride, axis=1))


def _lanes(x: B3, w: int) -> int:
    """A 1 at the bottom of every w-bit lane of x, so a w-bit pattern times
    it repeats the pattern in every lane: (2^width - 1) / (2^w - 1)."""
    return ((1 << x.width) - 1) // ((1 << w) - 1)


def _shift(x: B3, d: int, w: int) -> B3:
    """x shifted d bits up inside each w-bit lane; nothing crosses lanes."""
    mask = (((1 << w) - 1) ^ ((1 << d) - 1)) * _lanes(x, w)
    return B3([(s << d) & mask for s in x.shares], x.width)


class TriadNet:
    """The three pairwise enclave channels of one server, lockstep-driven.
    Enclaves run only in preprocessing, so every message is tagged with it."""

    def __init__(self, channels: dict[tuple[int, int], Channel]):
        # channels[(i, j)] sends from enclave i to enclave j
        self.channels = channels
        self._queued: dict[int, list[list[bytes]]] | None = None

    def pass_ring(self, payloads: list[bytes], step: int):
        """Enclave j sends payloads[j] to enclave (j+step) mod 3, which
        receives it.  The engines compute in lockstep from the shares they
        already hold, so what arrives is only metered."""
        for j in range(3):
            self.channels[(j, (j + step) % 3)].send(KIND_B3PC, PHASE_PREPROCESS,
                                                    payloads[j])
        for j in range(3):
            self.channels[(j, (j - step) % 3)].recv()

    def send(self, payloads: list[bytes], step: int):
        """One ring pass now, or, inside `round()`, queued for its end."""
        if self._queued is None:
            self.pass_ring(payloads, step)
            return
        parts = self._queued.setdefault(step, [[], [], []])
        for j in range(3):
            parts[j].append(payloads[j])

    @contextmanager
    def round(self):
        """One communication round: whatever the block sends goes out as one
        message per enclave and direction when it ends.  Every value sent
        must be computable before the round, from nothing it delivers."""
        if self._queued is not None:
            raise RuntimeError("communication rounds do not nest")
        self._queued = {}
        try:
            yield
            queued = self._queued
        finally:
            self._queued = None
        for step, parts in sorted(queued.items()):
            self.pass_ring([b"".join(part) for part in parts], step)


class Bool3Engine:
    """Boolean replicated 3PC over a TriadNet."""

    def __init__(self, net: TriadNet, pair_streams: list[PrfStream]):
        self.net = net
        self.pair = pair_streams  # stream j shared by enclaves (j, j+1)
        self.and_gates = 0

    # zero sharing: zeta_j = F_j() ^ F_{j-1}(); xor over j telescopes to 0
    def _zeros(self, width: int) -> list[int]:
        nb = (width + 7) // 8
        vs = [int.from_bytes(self.pair[j].expand(nb), "little") & ((1 << width) - 1)
              for j in range(3)]
        return [vs[j] ^ vs[j - 1] for j in range(3)]

    def input_known(self, holder: int, value: int, width: int) -> B3:
        shares = [0, 0, 0]
        shares[holder] = value & ((1 << width) - 1)
        return B3(shares, width)

    def xor(self, a: B3, b: B3) -> B3:
        (a0, a1, a2), (b0, b1, b2) = a.shares, b.shares
        return B3([a0 ^ b0, a1 ^ b1, a2 ^ b2], max(a.width, b.width))

    def xor_const(self, a: B3, c: int) -> B3:
        out = list(a.shares)
        out[0] ^= c & ((1 << a.width) - 1)
        return B3(out, a.width)

    def and_const(self, a: B3, c: int) -> B3:
        """AND with a public constant: local."""
        return B3([s & c for s in a.shares], a.width)

    def and_(self, a: B3, b: B3) -> B3:
        width = max(a.width, b.width)
        self.and_gates += width
        zeta = self._zeros(width)
        raw = [0, 0, 0]
        for j in range(3):
            xj, xj1 = a.shares[j], a.shares[(j + 1) % 3]
            yj, yj1 = b.shares[j], b.shares[(j + 1) % 3]
            raw[j] = (xj & yj) ^ (xj & yj1) ^ (xj1 & yj) ^ zeta[j]
        nb = (width + 7) // 8
        # enclave j+1 computed share j+1; resharing hands it to enclave j
        self.net.send([raw[j].to_bytes(nb, "little") for j in range(3)], step=2)
        return B3(raw, width)

    def reveal(self, a: B3) -> int:
        nb = (a.width + 7) // 8
        self.net.send([a.shares[j].to_bytes(nb, "little") for j in range(3)], step=1)
        return a.value()

    def _add(self, x: B3, y: B3 | int, w: int) -> tuple[B3, B3]:
        """x + y in every w-bit lane, y shared or a public int, by a
        Kogge-Stone carry tree: ceil(log2 w) AND layers after the generate
        bits.  Returns the sums and the prefix carries G, where bit k of a
        lane is the carry out of its bits 0..k."""
        if isinstance(y, B3):
            G, P = self.and_(x, y), self.xor(x, y)
        else:
            G, P = self.and_const(x, y), self.xor_const(x, y)
        half_sum = P
        d = 1
        while d < w:
            # (G, P) of the d bits below joins each segment; G and P & G'
            # never overlap, so their OR is an XOR
            if 2 * d < w:  # P is needed again at the next distance
                wide = self.and_(B3.cat(P, P),
                                 B3.cat(_shift(G, d, w), _shift(P, d, w)))
                carried, P = wide.split(P.width, P.width)
            else:
                carried = self.and_(P, _shift(G, d, w))
            G = self.xor(G, carried)
            d *= 2
        return self.xor(half_sum, _shift(G, 1, w)), G

    def a2b(self, pieces: list, p: int) -> B3:
        """Boolean sharing of the bits of (r0 + r1 + r2) mod p, piece j input
        by enclave j.

        A piece is one int, or a list of ints, one per lane; lane l of the
        result holds the n = bitlen(p - 1) bits of its sum at [l*n, (l+1)*n).
        As in ABY3 (Mohassel-Rindal, CCS'18), one full-adder layer turns the
        three pieces into two, a parallel-prefix adder sums them, and p and
        2p are subtracted side by side: AND depth 3 + 2*ceil(log2(n + 2)).
        """
        n = (p - 1).bit_length()
        w = n + 2  # 3p < 2^w
        # piece j's lanes side by side, w bits each
        x = _b3(np.unpackbits(np.array(pieces, dtype="<u8").reshape(3, -1, 1).view(np.uint8),
                              axis=2, count=w, bitorder="little").reshape(3, -1))
        width = x.width
        # replicate each piece to its co-holder before treating it as a share
        self.net.send([s.to_bytes((width + 7) // 8, "little") for s in x.shares], step=2)
        x0, x1, x2 = (self.input_known(j, s, width) for j, s in enumerate(x.shares))
        # full adders: x0 + x1 + x2 = s + 2 maj
        maj = self.xor(x0, self.and_(self.xor(x0, x1), self.xor(x0, x2)))
        total, _ = self._add(self.xor(self.xor(x0, x1), x2), _shift(maj, 1, w), w)
        # total + (2^w - p) and total + (2^w - 2p): a lane's top carry says
        # total >= p, resp. >= 2p
        reps = _lanes(total, w)
        diffs, G = self._add(B3.cat(total, total),
                             ((1 << w) - p) * reps | (((1 << w) - 2 * p) * reps) << width,
                             w)
        ge = spread(lane_bits(G, w, [w - 1])[0], w)
        d1, d2 = diffs.split(width, width)
        # keep total below p, total - p below 2p, total - 2p above
        picks = self.and_(ge, B3.cat(self.xor(total, d1), self.xor(d1, d2)))
        lo, hi = picks.split(width, width)
        out = self.xor(self.xor(total, lo), hi)
        return _b3(_bits(out).reshape(3, -1, w)[:, :, :n].reshape(3, -1))


class Arith3Engine:
    """Arithmetic replicated 3PC mod p over a TriadNet, on whole arrays."""

    def __init__(self, net: TriadNet, pair_streams: list[PrfStream], p: int):
        self.net, self.pair, self.p, self.mults = net, pair_streams, p, 0
        self._m = np.array([p], dtype=np.uint64)

    @cached_property
    def _recip(self) -> tuple:
        return mod64.reciprocal([self.p])  # at first use, so a new enclave costs little

    def words(self, raw: bytes) -> np.ndarray:
        """The 128-bit little-endian words of raw, each mod p: lo + hi 2^64."""
        x, m = np.frombuffer(raw, "<u8").reshape(-1, 2), self._m
        return mod64.add(x[:, 0] % m, mod64.mul_shoup(x[:, 1], *self._recip[0], m), m)

    def _zeros(self, shape: tuple) -> A3:
        """One PRF draw per stream for all elements; 128 bits each."""
        raw = b"".join(s.expand(16 * int(np.prod(shape))) for s in self.pair)
        v = self.words(raw).reshape(3, *shape)
        return mod64.sub(v, np.roll(v, 1, axis=0), self._m)  # zeta_j = F_j - F_j-1

    def _send(self, x: A3, step: int):
        self.net.send([row.tobytes() for row in x.astype("<u8", copy=False)], step)

    def input_additive(self, pieces) -> A3:
        """Lift 1-of-3 additive pieces (piece j known only to enclave j, each
        below 2^64) into replicated form; one reshare message per enclave."""
        shares = np.asarray(pieces, dtype=np.uint64) % self._m
        self._send(shares, step=2)  # j -> j-1 learns share j
        return shares

    def add(self, a: A3, b: A3) -> A3:
        return mod64.add(a, b, self._m)

    def sub(self, a: A3, b: A3) -> A3:
        return mod64.sub(a, b, self._m)

    def scale(self, a: A3, c: int) -> A3:
        return mod64.mul_shoup(a, *mod64.shoup(c % self.p, self.p), self._m)

    def mult(self, a: A3, b: A3) -> A3:
        """Share j is a_j b_j + a_j b_j+1 + a_j+1 b_j = a_j (b_j + b_j+1) + a_j+1 b_j
        plus a zero sharing; one reshare message per enclave."""
        self.mults += a[0].size
        zeta = self._zeros(a.shape[1:])
        a1, b1 = np.roll(a, -1, axis=0), np.roll(b, -1, axis=0)
        w = mod64.prepare(np.concatenate([self.add(b, b1), b]), self._recip, self._m)
        prods = mod64.mul_shoup(np.concatenate([a, a1]), *w, self._m)
        raw = self.add(self.add(prods[:3], prods[3:]), zeta)
        self._send(raw, step=2)
        return raw

    def xor_bits(self, a: A3, b: A3) -> A3:
        """a XOR b for 0/1 vectors: a + b - 2ab, one multiply per element."""
        return self.sub(self.add(a, b), self.scale(self.mult(a, b), 2))

    def bit2a(self, bit: B3, along=lambda: None) -> A3:
        """Arithmetic 0/1 sharing of every bit of a boolean-shared vector:
        the XOR of its three shares, two rounds of one multiply each.  The
        first round needs only the shares, so `along()` may send in it."""
        b = np.eye(3, dtype=np.uint64)[:, :, None] * _bits(bit)  # b[j]: share j, input by j
        with self.net.round():
            along()
            half = self.xor_bits(b[0], b[1])
        return self.xor_bits(half, b[2])

    def reveal(self, a: A3) -> list[int]:
        self._send(a, step=1)
        return self.add(self.add(a[0], a[1]), a[2]).ravel().tolist()

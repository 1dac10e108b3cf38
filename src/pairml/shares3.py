"""Replicated secret sharing among three enclaves: boolean and mod-p arithmetic.

Share j of a value is held by enclaves j (as its low share) and j-1 (as its
high share); any two enclaves reconstruct, one alone sees uniform noise.
XOR/addition are local; AND and multiplication cost one reshare message per
enclave, drawn against pairwise zero-sharing PRF streams.

The three enclaves of one server run in lockstep inside the server process
(fast-test actor mode); every value that would cross an enclave boundary in
a hardware deployment goes through a metered enclave-enclave channel, so the
communication and gate counts the acceptance tests measure are real.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prg import PrfStream
from .transport import Channel, KIND_B3PC


@dataclass
class B3:
    """Boolean replicated sharing: bit-vectors packed into ints."""

    shares: list[int]  # x_0, x_1, x_2 with x = x0 ^ x1 ^ x2
    width: int

    def value(self) -> int:
        return self.shares[0] ^ self.shares[1] ^ self.shares[2]


@dataclass
class A3:
    """Arithmetic replicated sharing mod p: component-wise vectors."""

    shares: list[list[int]]  # three share vectors, sum mod p is the value

    def __len__(self) -> int:
        return len(self.shares[0])


class TriadNet:
    """The three pairwise enclave channels of one server, lockstep-driven."""

    def __init__(self, channels: dict[tuple[int, int], Channel], phase: int):
        # channels[(i, j)] sends from enclave i to enclave j
        self.channels = channels
        self.phase = phase

    def pass_ring(self, payloads: list[bytes], step: int) -> list[bytes]:
        """Enclave j sends payloads[j] to enclave (j+step) mod 3; returns
        what each enclave received."""
        for j in range(3):
            self.channels[(j, (j + step) % 3)].send(KIND_B3PC, self.phase,
                                                    payloads[j])
        out = [b""] * 3
        for j in range(3):
            src = (j - step) % 3
            out[j] = self.channels[(j, src)].recv().payload
        return out


def _ibytes(x: int, n: int) -> bytes:
    return x.to_bytes(n, "little")


def _iint(b: bytes) -> int:
    return int.from_bytes(b, "little")


class Bool3Engine:
    """Boolean replicated 3PC over a TriadNet."""

    def __init__(self, net: TriadNet, pair_streams: list[PrfStream]):
        self.net = net
        self.pair = pair_streams  # stream j shared by enclaves (j, j+1)
        self.and_gates = 0
        self.reveals = 0

    # zero sharing: zeta_j = F_j() ^ F_{j-1}(); xor over j telescopes to 0
    def _zeros(self, width: int) -> list[int]:
        nb = (width + 7) // 8
        vs = [_iint(self.pair[j].randbytes(nb)) & ((1 << width) - 1)
              for j in range(3)]
        return [vs[j] ^ vs[j - 1] for j in range(3)]

    def input_known(self, holder: int, value: int, width: int) -> B3:
        shares = [0, 0, 0]
        shares[holder] = value & ((1 << width) - 1)
        return B3(shares, width)

    def xor(self, a: B3, b: B3) -> B3:
        return B3([x ^ y for x, y in zip(a.shares, b.shares)],
                  max(a.width, b.width))

    def xor_const(self, a: B3, c: int) -> B3:
        out = list(a.shares)
        out[0] ^= c & ((1 << a.width) - 1)
        return B3(out, a.width)

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
        self.net.pass_ring([_ibytes(raw[j], nb) for j in range(3)], step=2)
        return B3(raw, width)

    def and_bit(self, bit: B3, vec: B3) -> B3:
        """AND of a broadcast single shared bit with a shared vector."""
        mask = (1 << vec.width) - 1
        wide = B3([mask if (s & 1) else 0 for s in bit.shares], vec.width)
        return self.and_(wide, vec)

    def mux_bit(self, bit: B3, x: B3, y: B3) -> B3:
        """bit ? x : y, one AND layer."""
        return self.xor(y, self.and_bit(bit, self.xor(x, y)))

    def reveal(self, a: B3) -> int:
        self.reveals += 1
        nb = (a.width + 7) // 8
        self.net.pass_ring([_ibytes(a.shares[j], nb) for j in range(3)], step=1)
        return a.value()

    def bit_at(self, a: B3, k: int) -> B3:
        return B3([(s >> k) & 1 for s in a.shares], 1)

    # ripple-carry addition, one AND per bit
    def _add(self, x: B3, y: B3, width: int) -> B3:
        out_bits: list[B3] = []
        carry = B3([0, 0, 0], 1)
        for k in range(width):
            xk, yk = self.bit_at(x, k), self.bit_at(y, k)
            s = self.xor(self.xor(xk, yk), carry)
            # carry' = xk ^ ((xk^yk) & (xk^carry))
            carry = self.xor(xk, self.and_(self.xor(xk, yk),
                                           self.xor(xk, carry)))
            out_bits.append(s)
        return self._from_bits(out_bits)

    def _sub_const(self, x: B3, c: int, width: int) -> tuple[B3, B3]:
        """x - c with borrow chain; returns (difference, borrow-out bit)."""
        out_bits: list[B3] = []
        borrow = B3([0, 0, 0], 1)
        for k in range(width):
            xk = self.bit_at(x, k)
            ck = (c >> k) & 1
            d = self.xor(xk, borrow)
            if ck:
                d = self.xor_const(d, 1)
                # borrow' = maj(~x, 1, b) = ~x | b = ~(x & ~b)
                borrow = self.xor_const(
                    self.and_(xk, self.xor_const(borrow, 1)), 1)
            else:
                # borrow' = maj(~x, 0, b) = ~x & b
                borrow = self.and_(self.xor_const(xk, 1), borrow)
            out_bits.append(d)
        return self._from_bits(out_bits), borrow

    def _from_bits(self, bits: list[B3]) -> B3:
        shares = [0, 0, 0]
        for k, b in enumerate(bits):
            for j in range(3):
                shares[j] |= (b.shares[j] & 1) << k
        return B3(shares, len(bits))

    def _mod_reduce(self, x: B3, p: int, width: int) -> B3:
        diff, borrow = self._sub_const(x, p, width)
        # borrow = 1 means x < p: keep x, else keep diff
        return self.mux_bit(borrow, x, diff)

    def a2b(self, pieces: list[int], p: int) -> B3:
        """Boolean sharing of the bits of (r0 + r1 + r2) mod p, each piece
        known to (input by) one enclave."""
        n = (p - 1).bit_length()
        width = n + 2
        nb = (width + 7) // 8
        # replicate each piece to its co-holder before treating it as a share
        self.net.pass_ring([_ibytes(pieces[j] & ((1 << width) - 1), nb)
                            for j in range(3)], step=2)
        xs = [self.input_known(j, pieces[j], width) for j in range(3)]
        total = self._add(self._add(xs[0], xs[1], width), xs[2], width)
        total = self._mod_reduce(total, p, width)
        total = self._mod_reduce(total, p, width)
        return B3([s & ((1 << n) - 1) for s in total.shares], n)


class Arith3Engine:
    """Arithmetic replicated 3PC mod p over a TriadNet."""

    def __init__(self, net: TriadNet, pair_streams: list[PrfStream], p: int):
        self.net = net
        self.pair = pair_streams
        self.p = p
        self.mults = 0
        self.reveals = 0

    def _zeros(self, ln: int) -> list[list[int]]:
        vs = [[self.pair[j].randrange(self.p) for _ in range(ln)]
              for j in range(3)]
        return [[(vs[j][i] - vs[j - 1][i]) % self.p for i in range(ln)]
                for j in range(3)]

    def input_known(self, holder: int, vec: list[int]) -> A3:
        shares = [[0] * len(vec) for _ in range(3)]
        shares[holder] = [v % self.p for v in vec]
        return A3(shares)

    def input_additive(self, pieces: list[list[int]]) -> A3:
        """Lift 1-of-3 additive pieces (piece j known only to enclave j) into
        replicated form; one reshare message per enclave."""
        ln = len(pieces[0])
        nb = 8 * ln
        payloads = [b"".join(_ibytes(v % self.p, 8) for v in pieces[j])
                    for j in range(3)]
        self.net.pass_ring(payloads, step=2)  # j -> j-1 learns share j
        return A3([[v % self.p for v in piece] for piece in pieces])

    def const(self, vec: list[int]) -> A3:
        return self.input_known(0, vec)

    def add(self, a: A3, b: A3) -> A3:
        return A3([[(x + y) % self.p for x, y in zip(sa, sb)]
                   for sa, sb in zip(a.shares, b.shares)])

    def sub(self, a: A3, b: A3) -> A3:
        return A3([[(x - y) % self.p for x, y in zip(sa, sb)]
                   for sa, sb in zip(a.shares, b.shares)])

    def scale(self, a: A3, c: int) -> A3:
        return A3([[x * c % self.p for x in sa] for sa in a.shares])

    def mult(self, a: A3, b: A3) -> A3:
        ln = len(a)
        self.mults += ln
        zeta = self._zeros(ln)
        raw = [[0] * ln for _ in range(3)]
        for j in range(3):
            aj, aj1 = a.shares[j], a.shares[(j + 1) % 3]
            bj, bj1 = b.shares[j], b.shares[(j + 1) % 3]
            raw[j] = [(aj[i] * bj[i] + aj[i] * bj1[i] + aj1[i] * bj[i]
                       + zeta[j][i]) % self.p for i in range(ln)]
        payloads = [b"".join(_ibytes(v, 8) for v in raw[j]) for j in range(3)]
        self.net.pass_ring(payloads, step=2)
        return A3(raw)

    def broadcast_scalar(self, a: A3, ln: int) -> A3:
        return A3([[sa[0]] * ln for sa in a.shares])

    def mux(self, bit: A3, x: A3, y: A3) -> A3:
        """bit ? x : y for an arithmetic 0/1 bit."""
        wide = self.broadcast_scalar(bit, len(x))
        return self.add(y, self.mult(wide, self.sub(x, y)))

    def bit2a(self, bit: B3) -> A3:
        """Arithmetic 0/1 sharing of a boolean-shared bit (four multiplies)."""
        b = [self.input_known(j, [bit.shares[j] & 1]) for j in range(3)]
        t01 = self.mult(b[0], b[1])
        t02 = self.mult(b[0], b[2])
        t12 = self.mult(b[1], b[2])
        t012 = self.mult(t01, b[2])
        out = self.add(self.add(b[0], b[1]), b[2])
        out = self.sub(out, self.scale(self.add(self.add(t01, t02), t12), 2))
        return self.add(out, self.scale(t012, 4))

    def reveal(self, a: A3) -> list[int]:
        self.reveals += 1
        payloads = [b"".join(_ibytes(v, 8) for v in a.shares[j])
                    for j in range(3)]
        self.net.pass_ring(payloads, step=1)
        return [(x + y + z) % self.p
                for x, y, z in zip(a.shares[0], a.shares[1], a.shares[2])]

"""Metered channels: framed messages over in-process queues, per-channel
byte/round accounting, the wide-area leakage sweep, and the dollar-cost model.

Every protocol message is a 16-byte header plus payload.  The header carries
a message kind and protocol phase so the leakage sweep can check that
nothing but declared operation types ever crosses a wide-area channel.
Channels keep no payload transcripts: a wide-area log entry holds a
message's direction, kind, phase and size, and the payload goes to its
receiver alone.
"""

from __future__ import annotations

import struct
import time
from collections import deque
from dataclasses import dataclass, field

# channel classes
WIDE_AREA = "wide-area"
LOCAL = "local-intra-server"
ENCLAVE = "enclave-enclave"

# message kinds
KIND_HELLO = 0
KIND_SHARE_DELIVERY = 1
KIND_MASKED_REVEAL = 2
KIND_CIPHERTEXT = 3
KIND_DEALER = 4
KIND_TEE_MATERIAL = 5
KIND_B3PC = 6

# protocol phases
PHASE_SETUP = 0
PHASE_LOAD = 1
PHASE_PREPROCESS = 2
PHASE_ONLINE = 3

PHASE_NAMES = {0: "setup", 1: "model-loading", 2: "preprocessing", 3: "online"}

# the declared wide-area operation types (criterion: nothing else may cross)
ALLOWED_WIDE_AREA_KINDS = {KIND_HELLO, KIND_SHARE_DELIVERY, KIND_MASKED_REVEAL,
                           KIND_CIPHERTEXT, KIND_DEALER}

HEADER = struct.Struct("<2sBBBBHQ")  # magic, ver, kind, phase, class, rsvd, length
MAGIC = b"PF"
VERSION = 1

_CLASS_CODE = {WIDE_AREA: 0, LOCAL: 1, ENCLAVE: 2}


class TransportError(ConnectionError):
    pass


@dataclass
class Frame:
    kind: int
    phase: int
    payload: bytes

    def encode(self, chan_class: str) -> bytes:
        return HEADER.pack(MAGIC, VERSION, self.kind, self.phase,
                           _CLASS_CODE[chan_class], 0, len(self.payload)) + self.payload


@dataclass
class ChannelMeter:
    chan_class: str
    sent_bytes: int = 0          # on-wire, headers included
    sent_payload: int = 0
    recv_bytes: int = 0
    msgs_sent: int = 0
    rounds: int = 0              # send -> recv direction flips
    wait_seconds: float = 0.0
    _last_dir: str = field(default="", repr=False)

    def on_send(self, wire: int, payload: int):
        self.sent_bytes += wire
        self.sent_payload += payload
        self.msgs_sent += 1
        self._last_dir = "send"

    def on_recv(self, wire: int):
        self.recv_bytes += wire
        if self._last_dir == "send":
            self.rounds += 1
        self._last_dir = "recv"


@dataclass
class LogEntry:
    direction: str  # "send" | "recv"
    kind: int
    phase: int
    size: int


class Channel:
    """One endpoint of a bidirectional framed link.

    A `recv` takes a queued frame, and raises with none queued.  A party
    that must wait is a generator that runs `yield from chan.wait()`: it
    yields the channel until `ready()`, and its meter counts that time.
    Only wide-area endpoints keep a message log: the leakage sweep reads
    nothing else.
    """

    def __init__(self, name: str, chan_class: str, send_raw, recv_raw, ready=None):
        self.name = name
        self.chan_class = chan_class
        self.meter = ChannelMeter(chan_class)
        self.log: list[LogEntry] = []
        self._logged = chan_class == WIDE_AREA
        self._send_raw = send_raw
        self._recv_raw = recv_raw
        self.ready = ready  # () -> bool: a frame is waiting

    def send(self, kind: int, phase: int, payload: bytes):
        frame = Frame(kind, phase, payload).encode(self.chan_class)
        self._send_raw(frame)
        self.meter.on_send(len(frame), len(payload))
        if self._logged:
            self.log.append(LogEntry("send", kind, phase, len(payload)))

    def recv(self) -> Frame:
        try:
            raw = self._recv_raw()
        except IndexError:
            raise TransportError(f"{self.name}: nothing to receive") from None
        if len(raw) < HEADER.size:
            raise TransportError(f"short frame: {len(raw)} bytes")
        magic, ver, kind, phase, cls, _, length = HEADER.unpack_from(raw, 0)
        if magic != MAGIC or ver != VERSION:
            raise TransportError("bad frame header")
        payload = raw[HEADER.size:]
        if len(payload) != length:
            raise TransportError("frame length mismatch")
        self.meter.on_recv(len(raw))
        if self._logged:
            self.log.append(LogEntry("recv", kind, phase, len(payload)))
        return Frame(kind, phase, payload)

    def wait(self):
        """Yield this channel until a frame is ready; that frame."""
        t0 = time.perf_counter()
        while not self.ready():
            yield self
        self.meter.wait_seconds += time.perf_counter() - t0
        return self.recv()

    def exchange(self, kind: int, phase: int, payload: bytes):
        """Symmetric send-then-receive; the protocol's only waiting pattern."""
        self.send(kind, phase, payload)
        return (yield from self.wait())


def inproc_pair(name_a: str, name_b: str, chan_class: str) -> tuple[Channel, Channel]:
    qa: deque = deque()  # frames from a to b
    qb: deque = deque()
    a = Channel(name_a, chan_class, qa.append, qb.popleft, lambda: bool(qb))
    b = Channel(name_b, chan_class, qb.append, qa.popleft, lambda: bool(qa))
    return a, b


# -- leakage sweep ---------------------------------------------------------------


def sweep_wide_area(channels: list[Channel]) -> list[str]:
    """Leakage-structure check: undeclared kinds or phase violations."""
    bad = []
    for ch in channels:
        if ch.chan_class != WIDE_AREA:
            continue
        for e in ch.log:
            if e.kind not in ALLOWED_WIDE_AREA_KINDS:
                bad.append(f"{ch.name}: kind {e.kind} not declared for wide-area")
            if e.kind == KIND_DEALER and e.phase in (PHASE_PREPROCESS, PHASE_ONLINE):
                bad.append(f"{ch.name}: dealer material in {PHASE_NAMES[e.phase]}")
            if e.kind == KIND_HELLO and e.phase != PHASE_SETUP:
                bad.append(f"{ch.name}: hello outside setup")
    return bad


# -- dollar-cost model ----------------------------------------------------------------

# per-hour CPU prices by machine class and $/GB for outbound wide-area traffic
DEFAULT_CPU_PRICES = {
    "general-aws": 0.015,
    "general-azure": 0.017,
    "amd": 0.022,
    "sgx": 0.079,
}
WAN_PRICE_PER_GB = 0.05  # headline price


@dataclass(frozen=True)
class CostModel:
    wan_per_gb: float = WAN_PRICE_PER_GB
    cpu_per_hr: tuple[tuple[str, float], ...] = tuple(DEFAULT_CPU_PRICES.items())

    def cpu_price(self, machine: str) -> float:
        for name, price in self.cpu_per_hr:
            if name == machine:
                return price
        raise KeyError(f"no price for machine class {machine}")


@dataclass
class CostReport:
    wan_bytes_out: int
    local_bytes: int
    cpu_hours: dict[str, float]
    model: CostModel

    @property
    def wan_dollars(self) -> float:
        return self.wan_bytes_out / 1e9 * self.model.wan_per_gb

    @property
    def cpu_dollars(self) -> float:
        return sum(h * self.model.cpu_price(m) for m, h in self.cpu_hours.items())

    @property
    def total_dollars(self) -> float:
        return self.wan_dollars + self.cpu_dollars


def cost_report(snap: dict[str, dict], cpu_hours: dict[str, float] | None = None,
                model: CostModel | None = None) -> CostReport:
    model = model or CostModel()
    wan = sum(m["sent_bytes"] for m in snap.values() if m["class"] == WIDE_AREA)
    local = sum(m["sent_bytes"] for m in snap.values() if m["class"] != WIDE_AREA)
    return CostReport(wan_bytes_out=wan, local_bytes=local,
                      cpu_hours=cpu_hours or {}, model=model)

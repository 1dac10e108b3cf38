"""Lockstep two-server private inference, driven from outside the program.

Server 0, server 1, the dealer and the model owner run in one thread.  Each
party makes the same library calls, in the same order and with the same
payloads, as `pairml.engine.ServerRole` / `DealerRole` and the owner side of
`pairml.sim.Simulation`, with three differences that keep the run faithful:

* the dealer's setup frame is cut at each polynomial's length before
  deserializing (the engine passes the whole remainder, which is rejected);
* the dealer places every B column with `engine.place_column` before
  `dealer_convert_column` (the engine converts unplaced columns);
* truncated shares are turned into Python ints before any object-dtype
  matrix product (the engine multiplies int64 values, which overflows at
  the production prime).

Server code is written as generators: a server yields after each send that
its peer must answer, and `Deployment.both` resumes server 0 then server 1, timing
each resume.  One round of resumes is one lockstep step; a phase's critical
path is the sum over its steps of the slower server's time, plus the time of
the dealer and the owner, which run alone.  `Replicated` runs alike
deployments and keeps each step's fastest time, in reference seconds (see
`SpeedGauge`).
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import struct
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import GeneratorType

import numpy as np

from pairml import engine, fixedpoint, gadgets, hss, models, sim, tee, transport
from pairml.ring import RingPoly
from pairml.transport import (
    KIND_CIPHERTEXT,
    KIND_DEALER,
    KIND_HELLO,
    KIND_MASKED_REVEAL,
    KIND_SHARE_DELIVERY,
    PHASE_LOAD,
    PHASE_ONLINE,
    PHASE_PREPROCESS,
    PHASE_SETUP,
    WIDE_AREA,
)

PHASES = ("setup", "load", "preprocess", "online")
SERVERS = ("s0", "s1")
PARTIES = ("s0", "s1", "dealer", "owner")
CLASSES = (transport.WIDE_AREA, transport.LOCAL, transport.ENCLAVE)


class LockstepError(RuntimeError):
    pass


def _poly_len(params) -> int:
    return len(RingPoly.zero(params, tag="q").serialize())


def _pack_blobs(blobs: list[bytes]) -> bytes:
    return struct.pack("<I", len(blobs)) + b"".join(
        struct.pack("<I", len(bl)) + bl for bl in blobs)


def _unpack_blobs(buf: bytes) -> list[bytes]:
    (count,) = struct.unpack_from("<I", buf, 0)
    off, out = 4, []
    for _ in range(count):
        (ln,) = struct.unpack_from("<I", buf, off)
        off += 4
        out.append(buf[off:off + ln])
        off += ln
    return out


# -- parties ------------------------------------------------------------------------


class Server:
    """One server's protocol state; methods mirror `engine.ServerRole`."""

    def __init__(self, b: int, params, mode: str, rng, peer, dealer, owner):
        self.b = b
        self.params = params
        self.mode = mode
        self.rng = rng
        self.peer = peer
        self.dealer = dealer
        self.owner = owner
        self.tee = None
        self.tee_channels: list = []
        self.setup: hss.DealerSetup | None = None
        self.manifest = None
        self.lowered: list = []
        self.plan = None
        self.f_public: dict[int, np.ndarray] = {}
        self.b_shares: dict[int, np.ndarray] = {}
        self.converted: dict[tuple[int, int], hss.ConvertedColumn] = {}
        self.triples: dict[int, hss.BeaverShare] = {}
        self.materials: list = []
        self.logit_shares: list[int] = []
        self.gadget_rounds: dict[str, int] = defaultdict(int)

    # ---- setup ------------------------------------------------------------

    def hello(self):
        self.peer.send(KIND_HELLO, PHASE_SETUP, b"")
        yield
        self.peer.recv()

    def finish_setup(self):
        payload = self.dealer.recv().payload
        (n_seeds,) = struct.unpack_from("<I", payload, 0)
        off = 4
        seeds = [payload[off + 32 * i:off + 32 * (i + 1)] for i in range(n_seeds)]
        off += 32 * n_seeds
        poly_len = _poly_len(self.params)
        polys = []
        for _ in range(3):
            polys.append(RingPoly.deserialize(self.params,
                                              payload[off:off + poly_len]))
            off += poly_len
        self.setup = hss.DealerSetup((polys[0], polys[1]), polys[2])
        bundle = tee.SeedBundle(pair_seeds=seeds[:3], intra_seeds=seeds[3:])
        build = tee.build_single_tee if self.mode == "single-tee" \
            else tee.build_tee_triple
        self.tee, self.tee_channels = build(self.b, self.params, bundle)

    # ---- model loading ----------------------------------------------------

    def load(self):
        params, p = self.params, self.params.p
        payload = self.owner.recv().payload
        (head_len,) = struct.unpack_from("<I", payload, 0)
        self.manifest = engine.parse_manifest(payload[4:4 + head_len])
        self.lowered = engine.lower_manifest(self.manifest, params)
        secret = [s for s in self.lowered if isinstance(s, engine.LinearSecret)]
        self.plan = hss.plan_packing(params, [(s.n, s.m) for s in secret])
        for step in secret:
            b_share = np.array(
                [[self.rng.randrange(p) for _ in range(step.m)]
                 for _ in range(step.n)], dtype=object)
            f_share = (step.y - b_share) % p
            self.peer.send(KIND_MASKED_REVEAL, PHASE_LOAD,
                           engine.encode_mat(f_share))
            yield
            peer_f = engine.decode_mat(self.peer.recv().payload)
            self.f_public[step.job_id] = (f_share + peer_f) % p
            self.b_shares[step.job_id] = b_share
        s_blob = self.setup.s_share.serialize()
        req = bytearray(struct.pack("<I", len(s_blob)) + s_blob)
        cols = [((job.job_id, t), self.b_shares[job.job_id][:, t])
                for job in self.plan.jobs for t in range(job.m)]
        req += struct.pack("<I", len(cols))
        for (jid, t), col in cols:
            req += struct.pack("<III", jid, t, len(col))
            req += engine.encode_vec(col)
        self.dealer.send(KIND_DEALER, PHASE_LOAD, bytes(req))

    def finish_load(self):
        payload = self.dealer.recv().payload
        poly_len = _poly_len(self.params)
        (n_cols,) = struct.unpack_from("<I", payload, 0)
        off = 4
        for _ in range(n_cols):
            jid, t = struct.unpack_from("<II", payload, off)
            off += 8
            y_sh = RingPoly.deserialize(self.params, payload[off:off + poly_len])
            off += poly_len
            ys_sh = RingPoly.deserialize(self.params, payload[off:off + poly_len])
            off += poly_len
            self.converted[(jid, t)] = hss.ConvertedColumn(y_sh, ys_sh)

    # ---- preprocessing ----------------------------------------------------

    def preprocess(self):
        sess = hss.TripleGenSession(self.params, self.plan, self.b, self.setup,
                                    self.b_shares, self.converted, self.rng)
        self.peer.send(KIND_CIPHERTEXT, PHASE_PREPROCESS,
                       _pack_blobs(sess.start()))
        yield
        sess.feed(_unpack_blobs(self.peer.recv().payload))
        self.triples = {t.job_id: t for t in sess.output}
        self.materials = [self._gadget_material(step) for step in self.lowered
                          if isinstance(step, engine.GadgetLayer)]

    def _gadget_material(self, step):
        if step.kind in ("relu", "sigmoid", "tanh"):
            return [self.tee.gadget_material(step.kind, table=step.table)
                    for _ in range(step.width)]
        if step.kind == "maxpool":
            return [self.tee.gadget_material("maxpool", k=step.k)
                    for _ in range(step.width // step.k)]
        if step.kind == "argmax":
            return self.tee.gadget_material("argmax", k=step.width)
        raise LockstepError(f"unknown gadget {step.kind}")

    # ---- online -------------------------------------------------------------

    def _truncate(self, x):
        return [int(v) for v in fixedpoint.truncate_share_vec(
            x, self.manifest.fp_scale, self.b, self.params.p)]

    def infer(self):
        p = self.params.p
        x = engine.decode_vec(self.owner.recv().payload)
        materials = iter(self.materials)
        for step in self.lowered:
            if isinstance(step, engine.LinearSecret):
                triple = self.triples[step.job_id]
                triple.consume()
                e_share = [(int(xv) - int(av)) % p for xv, av in zip(x, triple.a)]
                self.peer.send(KIND_MASKED_REVEAL, PHASE_ONLINE,
                               engine.encode_vec(e_share))
                yield
                peer_e = engine.decode_vec(self.peer.recv().payload)
                e = np.array([(a + b) % p for a, b in zip(e_share, peer_e)],
                             dtype=object)
                xs = np.array(x, dtype=object)
                z = (xs @ self.f_public[step.job_id] + e @ triple.b_mat
                     + triple.c.astype(object)) % p
                x = self._truncate([int(v) for v in z])
            elif isinstance(step, engine.LinearPublic):
                z = (np.array(x, dtype=object) @ step.mat) % p
                x = self._truncate([int(v) for v in z])
            else:
                if step.kind == "argmax":
                    self.logit_shares = list(x)
                x = yield from self._gadget(step, next(materials), x)
                if step.kind in ("sigmoid", "tanh"):
                    x = self._truncate(x)
        self.owner.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, engine.encode_vec(x))

    def _gadget(self, step, material, x):
        p = self.params.p
        if step.kind in ("relu", "sigmoid", "tanh"):
            sessions = [gadgets.make_session(m, [v]) for m, v in zip(material, x)]
        elif step.kind == "maxpool":
            k = step.k
            sessions = [gadgets.make_session(m, x[i * k:(i + 1) * k])
                        for i, m in enumerate(material)]
        else:
            sessions = [gadgets.make_session(material, x)]
        pending = [s.start() for s in sessions]
        while any(b is not None for b in pending):
            flat = [v for b in pending if b is not None for v in b]
            self.peer.send(KIND_MASKED_REVEAL, PHASE_ONLINE,
                           engine.encode_vec(flat))
            yield
            peer = engine.decode_vec(self.peer.recv().payload)
            revealed = [(a + b) % p for a, b in zip(flat, peer)]
            self.gadget_rounds[step.kind] += 1
            off, nxt = 0, []
            for s, b in zip(sessions, pending):
                if b is None:
                    nxt.append(None)
                    continue
                nxt.append(s.feed(revealed[off:off + len(b)]))
                off += len(b)
            pending = nxt
        return [v for s in sessions for v in s.output]


class Dealer:
    """Mirrors `engine.DealerRole`, placing columns before conversion."""

    def __init__(self, params, chans, rng):
        self.params = params
        self.chans = chans
        self.rng = rng

    def setup(self):
        _, d0, d1 = hss.dealer_setup(self.params, self.rng)
        bundle = tee.SeedBundle.from_rng(self.rng)
        seeds = b"".join(bundle.pair_seeds + bundle.intra_seeds)
        for chan, d in zip(self.chans, (d0, d1)):
            payload = struct.pack("<I", 6) + seeds
            payload += d.pk[0].serialize() + d.pk[1].serialize()
            payload += d.s_share.serialize()
            chan.send(KIND_DEALER, PHASE_SETUP, payload)

    def convert(self):
        params = self.params
        (s0, cols0), (s1, cols1) = [self._parse(ch.recv().payload)
                                    for ch in self.chans]
        if sorted(cols0) != sorted(cols1):
            raise LockstepError("servers disagree on conversion requests")
        # the pack plan is public: job shapes follow from the request keys
        shapes: dict[int, tuple[int, int]] = {}
        for (jid, t), col in cols0.items():
            n, m = shapes.get(jid, (len(col), 0))
            shapes[jid] = (n, max(m, t + 1))
        plan = hss.plan_packing(params, [shapes[j] for j in sorted(shapes)])
        replies = [bytearray(struct.pack("<I", len(cols0))) for _ in self.chans]
        for key in sorted(cols0):
            jid, t = key
            placed = [engine.place_column(params, plan, jid, cols[key])
                      for cols in (cols0, cols1)]
            convs = hss.dealer_convert_column(params, s0, s1, placed[0],
                                              placed[1], self.rng)
            for reply, conv in zip(replies, convs):
                reply += struct.pack("<II", jid, t)
                reply += conv.y_share.serialize() + conv.ys_share.serialize()
        for chan, reply in zip(self.chans, replies):
            chan.send(KIND_DEALER, PHASE_LOAD, bytes(reply))

    def _parse(self, payload: bytes):
        (ln,) = struct.unpack_from("<I", payload, 0)
        s_share = RingPoly.deserialize(self.params, payload[4:4 + ln])
        off = 4 + ln
        (n_cols,) = struct.unpack_from("<I", payload, off)
        off += 4
        cols = {}
        for _ in range(n_cols):
            jid, t, cl = struct.unpack_from("<III", payload, off)
            off += 12
            cols[(jid, t)] = engine.decode_vec(payload[off:off + 8 * cl])
            off += 8 * cl
        return s_share, cols


class Owner:
    """The model and input owner of `sim.Simulation`, one inference at a time."""

    def __init__(self, params, chans, rng):
        self.params = params
        self.chans = chans
        self.rng = rng

    def deliver_model(self, manifest):
        shares = sim.split_weights(manifest, self.params.p, self.rng)
        for chan, man in zip(self.chans, shares):
            blob = engine.serialize_manifest(man)
            chan.send(KIND_SHARE_DELIVERY, PHASE_LOAD,
                      struct.pack("<I", len(blob)) + blob)

    def deliver_input(self, x_field):
        p = self.params.p
        sh0 = [self.rng.randrange(p) for _ in x_field]
        sh1 = [(int(v) - a) % p for v, a in zip(x_field, sh0)]
        for chan, sh in zip(self.chans, (sh0, sh1)):
            chan.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, engine.encode_vec(sh))

    def collect(self) -> list[list[int]]:
        return [engine.decode_vec(chan.recv().payload) for chan in self.chans]


# -- timing ---------------------------------------------------------------------------

# Reference seconds.  The host's speed changes from one second to the next
# (another tenant on the same core slows this one's Python code by up to
# 1.7x), so a step's wall time is scaled by the core's speed while it ran:
# the mean of PROBE_REF_S / probe seconds over probes of a fixed pure-Python
# loop run just before the step, during it (from a timer signal) and just
# after it.  PROBE_REF_S is the probe's time on an unloaded core of the 2-vCPU
# x86-64 machine the benchmark was tuned on, so there reference seconds are
# close to wall seconds.
PROBE_REF_S = 58e-6
_PROBE_MOD = (1 << 61) - 1
_TICK_S = 0.01  # wall seconds between a SpeedGauge's timer probes


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the least of three tries,
    so that the first warms the caches."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 1
        for i in range(300):
            acc = (acc * 1103515245 + i) % _PROBE_MOD
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedGauge:
    """While entered, a timer signal probes the core's speed every _TICK_S
    wall seconds, between two bytecodes of whatever runs."""

    def __init__(self):
        self.speeds: list[float] = []  # PROBE_REF_S / probe seconds
        self.spent = 0.0  # wall seconds spent in timer probes

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.speeds.append(PROBE_REF_S / probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedGauge":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _TICK_S, _TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn, *args):
        """fn(*args) and its wall and CPU seconds in reference seconds."""
        self.speeds = [PROBE_REF_S / probe()]
        spent0 = self.spent
        w0, c0 = time.perf_counter(), time.thread_time()
        out = fn(*args)
        wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
        spent = self.spent - spent0
        self.speeds.append(PROBE_REF_S / probe())
        speed = sum(self.speeds) / len(self.speeds)
        return out, (wall - spent) * speed, max(cpu - spent, 0.0) * speed


@dataclass
class PhaseClock:
    """Critical-path seconds plus per-party wall and CPU busy time."""

    critical: float = 0.0
    busy: dict = field(default_factory=lambda: dict.fromkeys(PARTIES, 0.0))
    cpu: dict = field(default_factory=lambda: dict.fromkeys(PARTIES, 0.0))

    def __iadd__(self, other: "PhaseClock") -> "PhaseClock":
        self.add(other.critical, [other.busy[k] for k in PARTIES],
                 [other.cpu[k] for k in PARTIES])
        return self

    def add(self, critical: float, busy, cpu):
        """Add one step; `busy` and `cpu` are in PARTIES order."""
        self.critical += critical
        for party, b, c in zip(PARTIES, busy, cpu):
            self.busy[party] += b
            self.cpu[party] += c


@dataclass(frozen=True)
class Step:
    """One timed step: its phase, its critical-path seconds, and each
    party's wall and CPU busy seconds, in PARTIES order."""

    phase: str
    critical: float
    busy: tuple
    cpu: tuple


def fastest(runs: list[list[Step]]) -> dict[str, "PhaseClock"]:
    """Per phase, the clock of steps that several replicas ran alike, each
    figure taken from the replica that ran the step fastest."""
    if len({len(r) for r in runs}) != 1:
        raise LockstepError(f"replicas ran {[len(r) for r in runs]} steps")
    clocks = {ph: PhaseClock() for ph in PHASES}
    for same in zip(*runs):
        if len({s.phase for s in same}) != 1:
            raise LockstepError("replicas ran different phases")
        clocks[same[0].phase].add(
            min(s.critical for s in same),
            [min(col) for col in zip(*(s.busy for s in same))],
            [min(col) for col in zip(*(s.cpu for s in same))])
    return clocks


def meter_totals(channels) -> dict[str, dict[str, float]]:
    """Per channel class: on-wire bytes sent, messages sent, rounds, wait."""
    out = {c: dict(bytes=0, msgs=0, rounds=0, wait_s=0.0) for c in CLASSES}
    for ch in channels:
        m, t = ch.meter, out[ch.meter.chan_class]
        t["bytes"] += m.sent_bytes
        t["msgs"] += m.msgs_sent
        t["rounds"] += m.rounds
        t["wait_s"] += m.wait_seconds
    return out


def meter_delta(after, before):
    return {c: {k: after[c][k] - before[c][k] for k in after[c]} for c in after}


# -- one deployment ---------------------------------------------------------------------


@dataclass
class Inference:
    """One inference's shares and traffic.  The caller sets its per-phase
    clocks from the steps of all replicas (`Replicated.run`)."""

    logit_shares: list[list[int]]
    label_shares: list[list[int]]
    traffic_preprocess: dict
    traffic_online: dict
    online_rounds: int  # direction flips on server 0's peer channel
    reveal_elements: int  # online masked-reveal elements server 0 sent
    preprocess: PhaseClock | None = None
    online: PhaseClock | None = None


class Deployment:
    """Channels, two servers, the dealer and the owner of one protocol run.

    `tracer`, when given, is told which party and phase each call belongs
    to; `tamper(deployment)` runs after each preprocessing and lets tests
    corrupt material.
    """

    def __init__(self, params, mode: str, seed: str, tracer=None, tamper=None,
                 gauge: SpeedGauge | None = None):
        """With a `gauge`, steps are timed in reference seconds, and calls
        must run while the gauge is entered."""
        self.params = params
        self.gauge = gauge
        self.tracer = tracer
        self.tamper = tamper
        pair = transport.inproc_pair
        p0, p1 = pair("s0-peer", "s1-peer", WIDE_AREA)
        d0s, d0d = pair("s0-dealer", "dealer-s0", WIDE_AREA)
        d1s, d1d = pair("s1-dealer", "dealer-s1", WIDE_AREA)
        o0s, o0o = pair("s0-owner", "owner-s0", WIDE_AREA)
        o1s, o1o = pair("s1-owner", "owner-s1", WIDE_AREA)
        self.wide_area = [p0, p1, d0s, d0d, d1s, d1d, o0s, o0o, o1s, o1o]
        self.servers = (
            Server(0, params, mode, random.Random(f"{seed}/s0"), p0, d0s, o0s),
            Server(1, params, mode, random.Random(f"{seed}/s1"), p1, d1s, o1s))
        self.dealer = Dealer(params, (d0d, d1d), random.Random(f"{seed}/dealer"))
        self.owner = Owner(params, (o0o, o1o), random.Random(f"{seed}/owner"))
        self.steps: list[Step] = []  # every timed step, for `fastest`

    @property
    def channels(self) -> list:
        return self.wide_area + [ch for s in self.servers for ch in s.tee_channels]

    # ---- step runners --------------------------------------------------------

    def _enter(self, party: str, phase: str):
        if self.tracer is not None:
            self.tracer.enter(party, phase)

    def _record(self, phase: str, critical: float, times: dict):
        """Book one step; `times` maps a party to its (wall, CPU) seconds."""
        busy = tuple(times.get(party, (0.0, 0.0))[0] for party in PARTIES)
        cpu = tuple(times.get(party, (0.0, 0.0))[1] for party in PARTIES)
        self.steps.append(Step(phase, critical, busy, cpu))

    def _timed(self, fn, *args):
        """fn(*args) and its wall and CPU seconds, in reference seconds when
        the deployment has a gauge."""
        if self.gauge is not None:
            return self.gauge.timed(fn, *args)
        w0, c0 = time.perf_counter(), time.thread_time()
        out = fn(*args)
        return out, time.perf_counter() - w0, time.thread_time() - c0

    def alone(self, phase: str, party: str, fn, *args):
        """A dealer or owner call: nothing runs beside it."""
        self._enter(party, phase)
        out, wall, cpu = self._timed(fn, *args)
        self._record(phase, wall, {party: (wall, cpu)})
        return out

    def both(self, phase: str, method: str):
        """Run one server method on both servers in lockstep."""
        gens: list = [None, None]
        live = [True, True]

        def resume(b: int) -> bool:
            """Run server b to its next yield; False once it has finished."""
            try:
                if gens[b] is None:
                    out = getattr(self.servers[b], method)()
                    if not isinstance(out, GeneratorType):
                        return False
                    gens[b] = out
                    next(out)
                else:
                    next(gens[b])
                return True
            except StopIteration:
                return False

        while any(live):
            times = {}
            for b in (0, 1):
                if live[b]:
                    self._enter(SERVERS[b], phase)
                    live[b], wall, cpu = self._timed(resume, b)
                    times[SERVERS[b]] = (wall, cpu)
            self._record(phase, max(t[0] for t in times.values()), times)

    # ---- phases --------------------------------------------------------------------

    def run_setup(self):
        self.both("setup", "hello")
        self.alone("setup", "dealer", self.dealer.setup)
        self.both("setup", "finish_setup")

    def run_load(self, manifest):
        self.alone("load", "owner", self.owner.deliver_model, manifest)
        self.both("load", "load")
        self.alone("load", "dealer", self.dealer.convert)
        self.both("load", "finish_load")

    def run_inference(self, x_field) -> Inference:
        """Preprocess, then evaluate one input; the owner collects labels."""
        peer = self.servers[0].peer
        log0, rounds0 = len(peer.log), peer.meter.rounds
        m0 = meter_totals(self.channels)
        self.both("preprocess", "preprocess")
        if self.tamper is not None:
            self.tamper(self)
        m1 = meter_totals(self.channels)
        self.alone("online", "owner", self.owner.deliver_input, x_field)
        self.both("online", "infer")
        m2 = meter_totals(self.channels)
        reveals = sum(e.size for e in peer.log[log0:]
                      if e.direction == "send" and e.kind == KIND_MASKED_REVEAL
                      and e.phase == PHASE_ONLINE) // 8
        return Inference(
            logit_shares=[s.logit_shares for s in self.servers],
            label_shares=self.owner.collect(),
            traffic_preprocess=meter_delta(m1, m0),
            traffic_online=meter_delta(m2, m1),
            online_rounds=peer.meter.rounds - rounds0,
            reveal_elements=reveals)


class Replicated:
    """Deployments built alike from one seed, in reference time.

    They make the same calls on the same data, so their steps pair up one to
    one, and `run` books each step at the time of the replica that ran it
    fastest.  Replicas take turns on the process's CPUs, so a core that
    another tenant slows holds back only some of them.  Replica 0 is the one
    whose outputs and traffic are checked.  With one replica nothing is
    scaled or pinned: its clocks are plain wall and CPU seconds.
    """

    def __init__(self, count: int, params, mode: str, seed: str, **kwargs):
        self.gauge = SpeedGauge() if count > 1 else None
        self.deps = [Deployment(params, mode, seed, gauge=self.gauge, **kwargs)
                     for _ in range(count)]
        self.clocks = {ph: PhaseClock() for ph in PHASES}

    def run(self, method: str, *args) -> tuple[list, dict[str, PhaseClock]]:
        """Call one Deployment method on every replica; their results and
        the clocks of this call."""
        pin = self.gauge is not None and hasattr(os, "sched_setaffinity")
        cpus = sorted(os.sched_getaffinity(0)) if pin else []
        outs = []
        try:
            with self.gauge or contextlib.nullcontext():
                for i, dep in enumerate(self.deps):
                    if cpus:
                        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                    dep.steps.clear()
                    outs.append(getattr(dep, method)(*args))
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        clocks = fastest([dep.steps for dep in self.deps])
        for ph in PHASES:
            self.clocks[ph] += clocks[ph]
        return outs, clocks

    def drop_enclave_logs(self):
        """Forget the message logs of channels other than wide-area ones.
        Nothing reads them, and multi-TEE keygen logs ~100 MB per inference."""
        for dep in self.deps:
            for ch in dep.channels:
                if ch.chan_class != WIDE_AREA:
                    ch.log.clear()


# -- correctness gate ------------------------------------------------------------------


def _spline_spread(table, e: int) -> int:
    """Bound on |f(x + d) - f(x)| for |d| <= e, f the spline at integer
    inputs: the steepest slope over e steps, plus the rounding jump at each
    knot that e steps can cross."""
    if e == 0:
        return 0
    segs = table.segments
    slope = max(abs(a) for _, _, a, _ in segs)
    jump = max(abs((a2 * lo + c2) - (a1 * lo + c1))
               for (_, _, a1, c1), (lo, _, a2, c2) in zip(segs, segs[1:]))
    shortest = min(hi - lo + 1 for lo, hi, _, _ in segs[1:-1])
    return slope * e + jump * (e // shortest + 1)


def error_bounds(lowered, p: int, scale: int) -> list[int]:
    """Per-logit bound, in units of 2^-scale, on |protocol - reference|.

    Each truncation may move its output by one unit, and later steps carry
    earlier errors forward: a linear layer scales them by the output column's
    absolute weights, a spline by its slope and knot jumps, ReLU and max by
    one.
    """
    bounds: list[int] | None = None  # the inputs are exact
    for step in lowered:
        if isinstance(step, (engine.LinearSecret, engine.LinearPublic)):
            mat = step.y if isinstance(step, engine.LinearSecret) else step.mat
            n, m = mat.shape
            b_in = bounds or [0] * n
            bounds = []
            for j in range(m):
                d = sum(abs(fixedpoint.to_signed(mat[i, j], p)) * b_in[i]
                        for i in range(n) if b_in[i])
                bounds.append(-(-d >> scale) + 1)
        elif step.kind in ("sigmoid", "tanh"):
            bounds = [-(-_spline_spread(step.table, b) >> scale) + 1
                      for b in bounds]
        elif step.kind == "maxpool":
            bounds = [max(bounds[i:i + step.k])
                      for i in range(0, len(bounds), step.k)]
        elif step.kind == "argmax":
            break
    return bounds


def reveal_budget(lowered) -> int:
    """Closed-form masked-reveal elements per direction for one inference."""
    return sum(s.n if isinstance(s, engine.LinearSecret)
               else engine.gadget_reveal_elements(s)
               for s in lowered if not isinstance(s, engine.LinearPublic))


class Oracle:
    """Plaintext reference for one model: logits before argmax and labels."""

    def __init__(self, manifest, params):
        self.manifest = manifest
        self.params = params
        head = [l for l in manifest.layers if not isinstance(l, engine.ArgmaxLayer)]
        self.logit_manifest = engine.ModelManifest(
            manifest.name, manifest.fp_scale, manifest.input_dim, head)
        self.bounds = error_bounds(engine.lower_manifest(manifest, params),
                                   params.p, manifest.fp_scale)

    def check(self, x_field, logit_shares, label_shares) -> tuple[bool, bool, str]:
        """(passed, labels equal the reference, reason when not passed)."""
        p = self.params.p
        signed = lambda v: fixedpoint.to_signed(v, p)
        ref_logits = engine.reference_infer(self.logit_manifest, self.params, x_field)
        ref_labels = engine.reference_infer(self.manifest, self.params, x_field)
        logits = [(a + b) % p for a, b in zip(*logit_shares)]
        labels = [(a + b) % p for a, b in zip(*label_shares)]
        match = labels == ref_labels
        for j, (a, r, b) in enumerate(zip(logits, ref_logits, self.bounds)):
            if abs(signed(a - r)) > b:
                return False, match, \
                    f"logit {j} off by {abs(signed(a - r))} > {b} units"
        if labels != gadgets.plain_argmax(logits, p):
            return False, match, "labels are not the argmax of the logits"
        if not match:
            ref = [signed(v) for v in ref_logits]
            top = max(range(len(ref)), key=ref.__getitem__)
            near = any(ref[top] - ref[j] <= self.bounds[top] + self.bounds[j]
                       for j in range(len(ref)) if j != top)
            if not near:
                return False, match, "label differs away from a near tie"
        return True, match, ""


def make_model(workload, params, seed: int):
    return models.GENERATORS[workload.model](
        params, random.Random(f"{seed}/model"), **workload.model_kwargs)


def make_inputs(manifest, params, seed: int):
    """Endless stream of encoded inputs for one seed."""
    rng = random.Random(f"{seed}/inputs")
    while True:
        yield sim.encode_inputs(manifest, params,
                                [models.random_input(manifest, rng)])[0]

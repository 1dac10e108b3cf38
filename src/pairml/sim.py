"""In-process simulation: the dealer, two servers and the owner, each a
generator, stepped in one thread by `run_parties`, and trusted-test
reconstruction checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from . import mod64
from .engine import (
    DealerRole,
    DenseLayer,
    ConvLayer,
    LinearSecret,
    ModelManifest,
    ServerRole,
    encode_vec,
    decode_vec,
    lower_manifest,
    serialize_manifest,
)
from .codec import Writer
from .fixedpoint import FixedPointCodec
from .params import ProtocolParams
from .ring import draw_below
from .transport import (
    Channel,
    KIND_SHARE_DELIVERY,
    PHASE_LOAD,
    PHASE_NAMES,
    PHASE_ONLINE,
    PHASE_PREPROCESS,
    PHASE_SETUP,
    TransportError,
    WIDE_AREA,
    inproc_pair,
)


class ConfigError(ValueError):
    pass


class PartyError(RuntimeError):
    """The party of a run that raised: who, in which phase and, for a server
    online, at which lowered layer."""

    def __init__(self, party: str, phase: int, cause: BaseException,
                 layer: int | None = None):
        where = "" if layer is None else f" at layer {layer}"
        super().__init__(f"{party} failed in {PHASE_NAMES[phase]}{where}: {cause!r}")
        self.party, self.phase, self.layer = party, phase, layer
        self.__cause__ = cause


def run_parties(parties: dict):
    """Run every party, a generator that yields the channel it waits on, to
    its end in this thread: resume each party whose channel has a frame
    until all have ended.  A party's exception propagates at once; when no
    party can move, raise TransportError naming each party and its channel."""
    waits = dict.fromkeys(parties)  # None: the party has not waited yet
    while waits:
        moved = False
        for name, chan in list(waits.items()):
            if chan is None or chan.ready():
                moved = True
                try:
                    waits[name] = next(parties[name])
                except StopIteration:
                    del waits[name]
        if not moved:
            raise TransportError("no party can move: " + ", ".join(
                f"{name} waits on {chan.name}" for name, chan in waits.items()))


@dataclass
class RunConfig:
    mode: str = "single-tee"
    trusted_test: bool = False
    seed: int = 0

    def validate(self):
        if self.mode not in ("single-tee", "multi-tee"):
            raise ConfigError(f"unknown mode {self.mode}")


def split_weights(manifest: ModelManifest, p: int, rng) -> tuple[ModelManifest,
                                                                 ModelManifest]:
    """Additive share split of every weight tensor; structure stays public,
    and the two manifests share every layer that has no weights."""
    shares = ([], [])
    for layer in manifest.layers:
        field = {DenseLayer: "weights", ConvLayer: "filters"}.get(type(layer))
        if field is None:
            for layers in shares:
                layers.append(layer)
            continue
        w = np.asarray(getattr(layer, field), dtype=np.uint64) % p
        sh0 = draw_below(rng, p, w.size).reshape(w.shape)
        for layers, sh in zip(shares, (sh0, mod64.sub(w, sh0, p))):
            layers.append(replace(layer, **{field: sh}))
    return tuple(replace(manifest, layers=layers) for layers in shares)


@dataclass
class RunResult:
    labels: list[list[int]]
    channels: dict[str, Channel]
    roles: tuple[ServerRole, ServerRole]


class Simulation:
    """Inproc four-phase run over metered channels, every party in this
    thread; a party that raises stops the run with a `PartyError`."""

    def __init__(self, params: ProtocolParams, manifest: ModelManifest,
                 config: RunConfig):
        config.validate()
        self.params = params
        self.manifest = manifest
        self.config = config
        self.channels: dict[str, Channel] = {}
        p0, p1 = inproc_pair("s0-peer", "s1-peer", WIDE_AREA)
        d0s, d0d = inproc_pair("s0-dealer", "dealer-s0", WIDE_AREA)
        d1s, d1d = inproc_pair("s1-dealer", "dealer-s1", WIDE_AREA)
        o0s, o0o = inproc_pair("s0-owner", "owner-s0", WIDE_AREA)
        o1s, o1o = inproc_pair("s1-owner", "owner-s1", WIDE_AREA)
        for ch in (p0, p1, d0s, d0d, d1s, d1d, o0s, o0o, o1s, o1o):
            self.channels[ch.name] = ch

        def rng(who: str) -> random.Random:
            # secret randomness is cryptographic unless the parameters are for tests
            if params.test_mode:
                return random.Random(f"{config.seed}/{who}")
            return random.SystemRandom()

        self.roles = (
            ServerRole(0, params, p0, d0s, o0s, mode=config.mode, rng=rng("s0")),
            ServerRole(1, params, p1, d1s, o1s, mode=config.mode, rng=rng("s1")),
        )
        self.dealer = DealerRole(params, d0d, d1d, rng("dealer"))
        self.owner_chans = (o0o, o1o)
        self.owner_rng = rng("owner")

    def run(self, inputs_field: list[list[int]]) -> RunResult:
        n_sessions = len(inputs_field)
        p = self.params.p
        man0, man1 = split_weights(self.manifest, p, self.owner_rng)
        labels = []

        def dealer_script():
            phase = PHASE_SETUP
            try:
                self.dealer.run_setup()
                phase = PHASE_LOAD
                yield from self.dealer.run_convert()
            except Exception as e:
                raise PartyError("dealer", phase, e)

        def server_script(role: ServerRole):
            phase = PHASE_SETUP
            try:
                yield from role.run_setup()
                phase = PHASE_LOAD
                yield from role.run_load()
                for i in range(n_sessions):
                    phase = PHASE_PREPROCESS
                    yield from role.run_preprocess(i)
                    phase = PHASE_ONLINE
                    yield from role.run_infer(i)
            except Exception as e:
                raise PartyError(f"server{role.b}", phase, e,
                                 role.layer if phase == PHASE_ONLINE else None)

        def owner_script():
            phase = PHASE_LOAD
            try:
                # deliver model shares, then per-session input shares
                for chan, man in zip(self.owner_chans, (man0, man1)):
                    chan.send(KIND_SHARE_DELIVERY, PHASE_LOAD,
                              Writer().blob(serialize_manifest(man)).getvalue())
                phase = PHASE_ONLINE
                for x in inputs_field:
                    sh0 = draw_below(self.owner_rng, p, len(x))
                    sh1 = mod64.sub(np.array([int(v) % p for v in x], dtype=np.uint64), sh0, p)
                    for chan, sh in zip(self.owner_chans, (sh0, sh1)):
                        chan.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, encode_vec(sh))
                for _ in range(n_sessions):
                    outs = []
                    for b, chan in enumerate(self.owner_chans):
                        outs.append(decode_vec((yield from chan.wait()).payload))
                        if any(v >= p for v in outs[b]):
                            raise ValueError(f"server {b}'s output vector holds a value "
                                             f"not below p")
                    if len(outs[0]) != len(outs[1]):
                        raise ValueError(f"server 0 sent {len(outs[0])} output "
                                         f"shares, server 1 sent {len(outs[1])}")
                    labels.append([(a + b) % p for a, b in zip(outs[0], outs[1])])
            except Exception as e:
                raise PartyError("owner", phase, e)

        run_parties({"dealer": dealer_script(),
                     "server0": server_script(self.roles[0]),
                     "server1": server_script(self.roles[1]),
                     "owner": owner_script()})

        # collect the tee channels into the registry for sweeps and meters
        for role in self.roles:
            self.channels.update((ch.name, ch) for ch in role.tee_channels)

        result = RunResult(labels=labels, channels=self.channels, roles=self.roles)
        if self.config.trusted_test:
            self._trusted_checks(result)
        return result

    # -- trusted-test-mode reconstruction checks --------------------------------

    def _trusted_checks(self, result: RunResult):
        p = self.params.p
        r0, r1 = result.roles
        lowered = lower_manifest(self.manifest, self.params)
        secret_layers = [s for s in lowered if isinstance(s, LinearSecret)]
        for step in secret_layers:
            jid = step.job_id
            b_full = mod64.add(r0.b_shares[jid], r1.b_shares[jid], p)
            f_pub = r0.f_public[jid]
            if not np.array_equal(f_pub, r1.f_public[jid]):
                raise RuntimeError(f"the servers disagree on F at job {jid}")
            if not np.array_equal(mod64.add(f_pub, b_full, p), step.y):
                raise RuntimeError(f"F + B != Y at job {jid}")
        flagged = []
        for sid in r0.sessions:
            t0s, t1s = r0.sessions[sid].triples, r1.sessions[sid].triples
            for jid in (s.job_id for s in secret_layers):
                t0, t1 = t0s[jid], t1s[jid]
                a, c = mod64.add(t0.a, t1.a, p), mod64.add(t0.c, t1.c, p)
                if not np.array_equal(c, mod64.vecmat(a, mod64.add(t0.b_mat, t1.b_mat, p), p)):
                    flagged.append(f"flagged triple: session {sid} job {jid}")
        if flagged:
            raise RuntimeError(f"trusted-test checks failed: {flagged}")
        if self.config.mode == "multi-tee":
            for role in result.roles:
                bad = role.tee.check_view_discipline()
                if bad:
                    raise RuntimeError(f"server{role.b} view discipline: {bad}")


def encode_inputs(manifest: ModelManifest, params: ProtocolParams,
                  xs: list[list[float]]) -> list[list[int]]:
    codec = FixedPointCodec(params, scale_bits=manifest.fp_scale)
    return [[codec.encode(float(v)) for v in x] for x in xs]

"""In-process simulation: two server threads, a dealer thread, owner drivers,
and trusted-test reconstruction checks."""

from __future__ import annotations

import random
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

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
    parse_manifest,
    reference_infer,
    serialize_manifest,
)
from .fixedpoint import FixedPointCodec
from .params import ProtocolParams
from .transport import (
    Channel,
    KIND_SHARE_DELIVERY,
    PHASE_LOAD,
    PHASE_ONLINE,
    WIDE_AREA,
    inproc_pair,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "single-tee"
    transport: str = "inproc"
    trusted_test: bool = False
    seed: int = 0

    def validate(self, hosts: list[str] | None = None):
        if self.mode not in ("single-tee", "multi-tee"):
            raise ConfigError(f"unknown mode {self.mode}")
        if self.transport not in ("inproc", "socket"):
            raise ConfigError(f"unknown transport {self.transport}")
        if self.trusted_test and self.transport == "socket":
            for h in hosts or []:
                if h.split(":")[0] not in ("127.0.0.1", "localhost"):
                    raise ConfigError(
                        "trusted-test mode refuses socket transport to real hosts")


def split_weights(manifest: ModelManifest, p: int, rng) -> tuple[ModelManifest,
                                                                 ModelManifest]:
    """Additive share split of every weight tensor; structure stays public."""
    import copy
    m0 = copy.deepcopy(manifest)
    m1 = copy.deepcopy(manifest)
    for l0, l1, orig in zip(m0.layers, m1.layers, manifest.layers):
        if isinstance(orig, DenseLayer):
            sh0 = np.array([[rng.randrange(p) for _ in range(orig.weights.shape[1])]
                            for _ in range(orig.weights.shape[0])], dtype=object)
            l0.weights = sh0
            l1.weights = (np.array(orig.weights, dtype=object) - sh0) % p
        elif isinstance(orig, ConvLayer):
            flat = orig.filters.reshape(-1)
            sh0 = np.array([rng.randrange(p) for _ in flat], dtype=object)
            l0.filters = sh0.reshape(orig.filters.shape)
            l1.filters = ((np.array(flat, dtype=object) - sh0) % p).reshape(
                orig.filters.shape)
    return m0, m1


@dataclass
class RunResult:
    labels: list[list[int]]
    label_shares: list[tuple[list[int], list[int]]]
    channels: dict[str, Channel]
    roles: tuple[ServerRole, ServerRole]
    dealer: DealerRole
    errors: list[str] = field(default_factory=list)

    def wide_area_channels(self) -> list[Channel]:
        return [c for c in self.channels.values() if c.chan_class == WIDE_AREA]


class Simulation:
    """Inproc four-phase run over metered channels."""

    def __init__(self, params: ProtocolParams, manifest: ModelManifest,
                 config: RunConfig):
        config.validate()
        self.params = params
        self.manifest = manifest
        self.config = config
        self.channels: dict[str, Channel] = {}
        p0, p1 = inproc_pair("s0-peer", "s1-peer", WIDE_AREA, record=True)
        d0s, d0d = inproc_pair("s0-dealer", "dealer-s0", WIDE_AREA, record=True)
        d1s, d1d = inproc_pair("s1-dealer", "dealer-s1", WIDE_AREA, record=True)
        o0s, o0o = inproc_pair("s0-owner", "owner-s0", WIDE_AREA, record=True)
        o1s, o1o = inproc_pair("s1-owner", "owner-s1", WIDE_AREA, record=True)
        for ch in (p0, p1, d0s, d0d, d1s, d1d, o0s, o0o, o1s, o1o):
            self.channels[ch.name] = ch
        seed = config.seed
        self.roles = (
            ServerRole(0, params, p0, d0s, o0s, mode=config.mode,
                       rng=random.Random(f"{seed}/s0")),
            ServerRole(1, params, p1, d1s, o1s, mode=config.mode,
                       rng=random.Random(f"{seed}/s1")),
        )
        self.dealer = DealerRole(params, d0d, d1d, random.Random(f"{seed}/dealer"))
        self.owner_chans = (o0o, o1o)
        self.owner_rng = random.Random(f"{seed}/owner")

    def run(self, inputs_field: list[list[int]]) -> RunResult:
        n_sessions = len(inputs_field)
        p = self.params.p
        man0, man1 = split_weights(self.manifest, p, self.owner_rng)
        errors: list[str] = []

        def dealer_script():
            try:
                self.dealer.run_setup()
                self.dealer.run_convert()
            except Exception as e:  # surfaced with phase attribution
                errors.append(f"dealer: {e!r}")

        def server_script(role: ServerRole):
            try:
                role.run_setup()
                role.run_load()
                for i in range(n_sessions):
                    role.run_preprocess(i)
                    role.run_infer(i)
            except Exception as e:
                errors.append(f"server{role.b}: {e!r}")
                raise

        threads = [threading.Thread(target=dealer_script, daemon=True)]
        for role in self.roles:
            threads.append(threading.Thread(target=server_script, args=(role,),
                                            daemon=True))
        for t in threads:
            t.start()

        # owner: deliver model shares, then per-session input shares
        for chan, man in zip(self.owner_chans, (man0, man1)):
            blob = serialize_manifest(man)
            chan.send(KIND_SHARE_DELIVERY, PHASE_LOAD,
                      struct.pack("<I", len(blob)) + blob)
        input_shares = []
        for x in inputs_field:
            sh0 = [self.owner_rng.randrange(p) for _ in x]
            sh1 = [(int(v) - a) % p for v, a in zip(x, sh0)]
            input_shares.append((sh0, sh1))
            for chan, sh in zip(self.owner_chans, (sh0, sh1)):
                chan.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, encode_vec(sh))
        labels = []
        label_shares = []
        for _ in range(n_sessions):
            outs = [decode_vec(chan.recv().payload) for chan in self.owner_chans]
            label_shares.append((outs[0], outs[1]))
            labels.append([(a + b) % p for a, b in zip(outs[0], outs[1])])
        for t in threads:
            t.join(timeout=600)
            if t.is_alive():
                errors.append("thread did not finish")

        # collect tee channels into the registry for sweeps/meters
        for role in self.roles:
            for ch in role.tee_channels:
                self.channels[ch.name] = ch

        result = RunResult(labels=labels, label_shares=label_shares,
                           channels=self.channels, roles=self.roles,
                           dealer=self.dealer, errors=errors)
        if errors:
            raise RuntimeError(f"simulation errors: {errors}")
        if self.config.trusted_test:
            self._trusted_checks(result)
        return result

    # -- trusted-test-mode reconstruction assertions ---------------------------

    def _trusted_checks(self, result: RunResult):
        p = self.params.p
        r0, r1 = result.roles
        lowered = lower_manifest(self.manifest, self.params)
        secret_layers = [s for s in lowered if isinstance(s, LinearSecret)]
        for step in secret_layers:
            jid = step.job_id
            b_full = (r0.b_shares[jid] + r1.b_shares[jid]) % p
            f_pub = r0.f_public[jid]
            assert np.array_equal(f_pub, r1.f_public[jid]), "F disagreement"
            y_full = (f_pub + b_full) % p
            assert np.array_equal(y_full, np.array(step.y, dtype=object) % p), \
                f"F + B != Y at job {jid}"
        for sid in r0.sessions:
            t0s, t1s = r0.sessions[sid].triples, r1.sessions[sid].triples
            for jid, step in ((s.job_id, s) for s in secret_layers):
                a = (t0s[jid].a.astype(object) + t1s[jid].a.astype(object)) % p
                b_full = (t0s[jid].b_mat + t1s[jid].b_mat) % p
                c = (t0s[jid].c.astype(object) + t1s[jid].c.astype(object)) % p
                expect = (a @ b_full) % p
                if list(c) != list(expect):
                    result.errors.append(
                        f"flagged triple: session {sid} job {jid}")
        if self.config.mode == "multi-tee":
            for role in result.roles:
                bad = role.tee.check_view_discipline()
                assert not bad, bad


def encode_inputs(manifest: ModelManifest, params: ProtocolParams,
                  xs: list[list[float]]) -> list[list[int]]:
    codec = FixedPointCodec(params, scale_bits=manifest.fp_scale)
    return [[codec.encode(float(v)) for v in x] for x in xs]


def run_inproc(params: ProtocolParams, manifest: ModelManifest,
               inputs_field: list[list[int]], config: RunConfig | None = None
               ) -> RunResult:
    sim = Simulation(params, manifest, config or RunConfig())
    return sim.run(inputs_field)

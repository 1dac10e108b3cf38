"""Byte identity of the HSS triple pipeline on fixed seeds.

The digests were recorded from the coefficient-form implementation (limb-split
FFT multiply and big-int CRT rounding).  Every output here is exact, so any
change to the R_q arithmetic must reproduce them bit for bit: dealer setup
output, dealer column conversions, LPR ciphertexts, HSS Mult outputs and the
(a, c) shares of a full triple session.
"""

import hashlib
import random

import numpy as np

from pairml.engine import place_column
from pairml.hss import (
    TripleGenSession,
    dealer_convert_column,
    dealer_setup,
    hss_mult,
    plan_packing,
)
from pairml.lpr import encrypt
from pairml.params import ProtocolParams
from pairml.ring import vec_to_poly


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _words(vec) -> bytes:
    return np.array([int(v) for v in vec], dtype="<u8").tobytes()


def _pipeline_digests(params: ProtocolParams, jobs, seed: int) -> dict[str, str]:
    p = params.p
    rng_d = random.Random(seed)
    rngs = (random.Random(seed + 1), random.Random(seed + 2))
    _, d0, d1 = dealer_setup(params, rng_d)
    out = {"setup": _digest([d0.pk[0].serialize(), d0.pk[1].serialize(),
                             d1.pk[0].serialize(), d1.pk[1].serialize(),
                             d0.s_share.serialize(), d1.s_share.serialize()])}
    plan = plan_packing(params, jobs)
    b_shares = ({}, {})
    converted = ({}, {})
    conv_parts = []
    for job in plan.jobs:
        for b in (0, 1):
            b_shares[b][job.job_id] = np.array(
                [[rngs[b].randrange(p) for _ in range(job.m)]
                 for _ in range(job.n)], dtype=object)
        for t in range(job.m):
            cols = [place_column(params, plan, job.job_id,
                                 [int(v) for v in b_shares[b][job.job_id][:, t]])
                    for b in (0, 1)]
            convs = dealer_convert_column(params, d0.s_share, d1.s_share,
                                          cols[0], cols[1], rng_d)
            for b, conv in enumerate(convs):
                converted[b][(job.job_id, t)] = conv
                conv_parts += [conv.y_share.serialize(), conv.ys_share.serialize()]
    out["convert"] = _digest(conv_parts)
    x = [rng_d.randrange(p) for _ in range(params.n_ring)]
    ct = encrypt(params, d0.pk, vec_to_poly(params, x), rng_d)
    out["encrypt"] = _digest([ct.serialize()])
    mults = [hss_mult(params, b, conv.y_share, conv.ys_share, ct)
             for b, conv in enumerate(c[(0, 0)] for c in converted)]
    out["hss_mult"] = _digest([_words(m) for m in mults])
    sessions = [TripleGenSession(params, plan, b, d, b_shares[b], converted[b],
                                 rngs[b]) for b, d in enumerate((d0, d1))]
    blobs = [s.start() for s in sessions]
    sessions[0].feed(blobs[1])
    sessions[1].feed(blobs[0])
    out["triples"] = _digest([_words(v) for s in sessions for t in s.output
                              for v in (t.a, t.c)])
    return out


PINNED = {
    "testing": {
        "setup": "99039b36291a32f97dc563913ec6dd9c",
        "convert": "515b7c0af9bbc213bb4be1e1c091090e",
        "encrypt": "47485606336765a767133b3c3e1d8af4",
        "hss_mult": "c22b56012aa82a84444b08f2a07a46f7",
        "triples": "8cbc9864eb3ea4ca2126caf5fff61dd0",
    },
    "production": {
        "setup": "3c8167b209539f34abe5e33638a2847b",
        "convert": "0c2617399fd381d655e924a16cf3277e",
        "encrypt": "9eb9d28e23f171bd65bff6a81f065760",
        "hss_mult": "93107450c0c6ae202ab930173ce5802c",
        "triples": "e3adf4d23a1e966decd89af30702a5cd",
    },
}


def test_testing_pipeline_pinned():
    got = _pipeline_digests(ProtocolParams.testing(), [(8, 3), (16, 2)], 21)
    assert got == PINNED["testing"]


def test_production_pipeline_pinned():
    got = _pipeline_digests(ProtocolParams.production(), [(8, 2)], 31)
    assert got == PINNED["production"]

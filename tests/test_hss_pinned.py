"""Byte identity of the HSS triple pipeline on fixed seeds.

Every output here is exact, so any change to the R_q arithmetic must
reproduce it bit for bit.  Two kinds of digest are pinned:

* wire bytes and shares: dealer setup output, dealer column conversions, LPR
  ciphertexts, HSS Mult outputs and the (a, c) shares of a full triple
  session, recorded with R_q polys on the wire in NTT form and the dealer's
  random shares drawn as NTT residues;
* values (`*_values`): the public key, the secret s = s0 + s1, each column's
  (y, y*s), the ciphertext and each triple's (a, c), in coefficient form and
  summed over the two shares.  These were recorded from the coefficient-form
  implementation (limb-split FFT multiply and big-int CRT rounding), and a
  change of form or of share draws must leave them as they are.
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
from pairml.ring import slots_to_coeffs


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _words(vec) -> bytes:
    return np.array([int(v) for v in vec], dtype="<u8").tobytes()


def _coeff_rows(poly) -> bytes:
    """A poly's value, whatever form it is held or serialized in."""
    return poly.coeffs().astype("<u8").tobytes()


def _pipeline_digests(params: ProtocolParams, jobs, seed: int) -> dict[str, str]:
    p = params.p
    rng_d = random.Random(seed)
    rngs = (random.Random(seed + 1), random.Random(seed + 2))
    _, d0, d1 = dealer_setup(params, rng_d)
    out = {"setup": _digest([d0.pk[0].serialize(), d0.pk[1].serialize(),
                             d1.pk[0].serialize(), d1.pk[1].serialize(),
                             d0.s_share.serialize(), d1.s_share.serialize()]),
           "setup_values": _digest([_coeff_rows(poly) for d in (d0, d1) for poly in d.pk]
                                   + [_coeff_rows(d0.s_share + d1.s_share)])}
    plan = plan_packing(params, jobs)
    b_shares = ({}, {})
    converted = ({}, {})
    conv_parts, conv_values = [], []
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
            conv_values += [_coeff_rows(convs[0].y_share + convs[1].y_share),
                            _coeff_rows(convs[0].ys_share + convs[1].ys_share)]
    out["convert"] = _digest(conv_parts)
    out["convert_values"] = _digest(conv_values)
    x = [rng_d.randrange(p) for _ in range(params.n_ring)]
    ct = encrypt(params, d0.pk, slots_to_coeffs(params, x), rng_d)
    out["encrypt"] = _digest([ct.serialize()])
    out["ct_values"] = _digest([_coeff_rows(ct.c0), _coeff_rows(ct.c1)])
    mults = [hss_mult(params, conv.y_share.data, conv.ys_share.data, ct)
             for conv in (c[(0, 0)] for c in converted)]
    out["hss_mult"] = _digest([_words(m) for m in mults])
    sessions = [TripleGenSession(params, plan, b, d, b_shares[b], converted[b],
                                 rngs[b]) for b, d in enumerate((d0, d1))]
    blobs = [s.start() for s in sessions]
    sessions[0].feed(blobs[1])
    sessions[1].feed(blobs[0])
    out["triples"] = _digest([_words(v) for s in sessions for t in s.output
                              for v in (t.a, t.c)])
    out["triple_values"] = _digest([_words((t0.a + t1.a) % p) + _words((t0.c + t1.c) % p)
                                    for t0, t1 in zip(*(s.output for s in sessions))])
    return out


PINNED = {
    "testing": {
        "setup": "e40340945ccec0c598ab89789662d954",
        "setup_values": "542ca7678bf0ea76a5a114263bcb16bf",
        "convert": "0bed13dba269cab83785d6fcceb15d13",
        "convert_values": "047ab702000e36cc1945718880ba89f1",
        "encrypt": "97687ac832de92daf890ed1d7a9038eb",
        "ct_values": "b200384a061211caafb57944c20df264",
        "hss_mult": "8e549ceb62a8690b2332563b4afa2864",
        "triples": "c3bb12962991e6472c2ed735ecf2fc5d",
        "triple_values": "25943e9a84ec6da4a0b518b6edd6a476",
    },
    "production": {
        "setup": "04bf442bee910b928cdd1cafeebfcea4",
        "setup_values": "3197aeccde1445356db9d495e6273366",
        "convert": "4ba8ab90b4b681a4da0e2f495c392971",
        "convert_values": "940d663f39f803758add8881d871081d",
        "encrypt": "1af9744f42921784a42a74d1238449b1",
        "ct_values": "ffcca988e44f5472684974536d9077ac",
        "hss_mult": "25f3e541b05f07c720349eabe88dba99",
        "triples": "d054c7f9f931b63f8d15f3e93b468fd3",
        "triple_values": "0f6912cd2e4de09d322274e97e3bd051",
    },
}


def test_testing_pipeline_pinned():
    got = _pipeline_digests(ProtocolParams.testing(), [(8, 3), (16, 2)], 21)
    assert got == PINNED["testing"]


def test_production_pipeline_pinned():
    got = _pipeline_digests(ProtocolParams.production(), [(8, 2)], 31)
    assert got == PINNED["production"]

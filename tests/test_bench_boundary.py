"""The values the benchmark's own protocol copy, `perfbench/lockstep.py`,
takes from the library.

The library holds field vectors and matrices as uint64 arrays.  The copy
mixes what it reads with Python ints of its own, in object-dtype arithmetic:
it adds its e shares to `decode_vec`'s values and multiplies by its object
B shares, subtracts its B shares from a lowered matrix, and reads a triple's
a and c with `int()` and `.astype(object)`.  Object arithmetic is exact only
on Python ints: a np.uint64 in an object array wraps at 2^64 without a
word.  So `decode_vec` returns Python ints, and every uint64 array the copy
reads must give Python ints under `int()` and `.astype(object)`.  These
checks run at `production()`, whose products pass 2^64; at `testing()` they
fit, and a wrap would not show.
"""

import random

import numpy as np

from pairml import models
from pairml.engine import (LinearPublic, LinearSecret, decode_mat, decode_vec, encode_mat,
                           encode_vec, lower_manifest, place_column)
from pairml.fixedpoint import truncate_share, truncate_share_vec
from pairml.hss import TripleGenSession, dealer_convert_column, dealer_setup, plan_packing
from pairml.params import ProtocolParams

PARAMS = ProtocolParams.production()
P = PARAMS.p


def _dot(x, mat) -> list[int]:
    """x @ mat mod p over Python ints."""
    return [sum(int(v) * int(mat[i][j]) for i, v in enumerate(x)) % P
            for j in range(len(mat[0]))]


def test_decode_vec_returns_python_ints():
    got = decode_vec(encode_vec(np.array([P - 1, 0, 7], dtype=np.uint64)))
    assert got == [P - 1, 0, 7] and all(type(v) is int for v in got)


def test_a_beaver_step_written_as_the_benchmark_writes_it_is_exact():
    # lockstep's e = (e_share + peer_e) % p over `decode_vec`'s values, then
    # an object-dtype product with its object B share
    rng = random.Random(1)
    e_share = [P - 1 - rng.randrange(1 << 20) for _ in range(6)]
    peer_e = decode_vec(encode_vec([P - 1 - rng.randrange(1 << 20) for _ in range(6)]))
    b = np.array([[P - 1 - rng.randrange(1 << 20) for _ in range(3)] for _ in range(6)],
                 dtype=object)
    e = np.array([(a + v) % P for a, v in zip(e_share, peer_e)], dtype=object)
    assert list((e @ b) % P) == _dot([(a + v) % P for a, v in zip(e_share, peer_e)], b)


def test_library_arrays_reconstruct_exactly_under_int_and_object_arithmetic():
    rng = random.Random(2)
    x = [P - 1 - rng.randrange(1 << 20) for _ in range(3)]
    # a truncation of a list, read back with int() as lockstep's `_truncate` does
    out = [int(v) for v in truncate_share_vec(x, 12, 1, P)]
    assert out == [truncate_share(v, 12, 1, P) for v in x]
    mat = np.full((3, 2), P - 1, dtype=object)
    assert list((np.array(out, dtype=object) @ mat) % P) == _dot(out, mat)
    # a decoded matrix, added to an object one and multiplied by Python ints
    f_share = np.full((3, 2), P - 2, dtype=object)
    f = (f_share + decode_mat(encode_mat(f_share))) % P
    assert f.tolist() == [[(2 * (P - 2)) % P] * 2] * 3
    assert list((np.array(x, dtype=object) @ f) % P) == _dot(x, f.tolist())
    # lowered matrices: Y minus an object B share, and a public average pool
    manifest = models.gen_mcnn(PARAMS, random.Random(3))
    for step in lower_manifest(manifest, PARAMS):
        if isinstance(step, LinearSecret):
            b_share = np.full(step.y.shape, P - 1, dtype=object)
            assert ((step.y - b_share) % P).tolist() == [
                [(int(v) - (P - 1)) % P for v in row] for row in step.y]
        elif isinstance(step, LinearPublic):
            xs = [P - 1] * step.mat.shape[0]
            assert list((np.array(xs, dtype=object) @ step.mat) % P) == _dot(xs, step.mat)


def test_a_triples_shares_reconstruct_exactly_under_int_and_object_arithmetic():
    # one (4, 2) job, with object B shares as lockstep passes them
    rng = random.Random(4)
    _, *setups = dealer_setup(PARAMS, rng)
    plan = plan_packing(PARAMS, [(4, 2)])
    bs = [np.array([[rng.randrange(P) for _ in range(2)] for _ in range(4)], dtype=object)
          for _ in (0, 1)]
    converted = ({}, {})
    for t in range(2):
        cols = [place_column(PARAMS, plan, 0, [int(v) for v in b[:, t]]) for b in bs]
        for conv, c in zip(converted, dealer_convert_column(
                PARAMS, setups[0].s_share, setups[1].s_share, *cols, rng)):
            conv[(0, t)] = c
    sessions = [TripleGenSession(PARAMS, plan, b, setups[b], {0: bs[b]}, converted[b],
                                 random.Random(5 + b)) for b in (0, 1)]
    blobs = [s.start() for s in sessions]
    sessions[0].feed(blobs[1])
    sessions[1].feed(blobs[0])
    t0, t1 = (s.output[0] for s in sessions)
    a = [(int(u) + int(v)) % P for u, v in zip(t0.a, t1.a)]
    c = (t0.c.astype(object) + t1.c.astype(object)) % P
    assert list(c) == _dot(a, ((bs[0] + bs[1]) % P).tolist())

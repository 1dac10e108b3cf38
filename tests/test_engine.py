import random

import numpy as np
import pytest

from oracles import direct_conv
from pairml.codec import Writer
from pairml.engine import (ConvLayer, DealerRole, DenseLayer, GadgetLayer,
                           MaxPoolVecLayer, ModelManifest, ServerRole, ShapeError,
                           im2col_matrix, lower_manifest)
from pairml.hss import dealer_setup
from pairml.params import ProtocolParams
from pairml.sim import run_parties
from pairml.transport import KIND_DEALER, PHASE_LOAD, WIDE_AREA, inproc_pair


def test_setup_frame_round_trip():
    params = ProtocolParams.testing()
    peer0, peer1 = inproc_pair("s0-peer", "s1-peer", WIDE_AREA)
    d0s, d0d = inproc_pair("s0-dealer", "dealer-s0", WIDE_AREA)
    d1s, d1d = inproc_pair("s1-dealer", "dealer-s1", WIDE_AREA)
    dealer = DealerRole(params, d0d, d1d, random.Random(1))
    servers = [ServerRole(b, params, peer, dealer_chan, owner=None)
               for b, peer, dealer_chan in ((0, peer0, d0s), (1, peer1, d1s))]
    dealer.run_setup()
    run_parties({f"server{s.b}": s.run_setup() for s in servers})
    for s in servers:
        for got, sent in zip(s.setup.pk, dealer.keys.pk):
            assert np.array_equal(got.data, sent.data)
        assert s.tee is not None
    s_sum = servers[0].setup.s_share + servers[1].setup.s_share
    assert np.array_equal(s_sum.data, dealer.keys.s.data)


def _convert(params, cols0, cols1):
    """One dealer conversion of the servers' column requests, as ServerRole frames them."""
    chans = [inproc_pair(f"s{b}-dealer", f"dealer-s{b}", WIDE_AREA) for b in (0, 1)]
    dealer = DealerRole(params, chans[0][1], chans[1][1], random.Random(2))
    _, *setups = dealer_setup(params, random.Random(3))
    for (server, _), d, cols in zip(chans, setups, (cols0, cols1)):
        w = Writer().blob(d.s_share.serialize()).u32(len(cols))
        for (jid, t), col in cols.items():
            w.u32(jid).u32(t).u32(len(col)).u64s(col)
        server.send(KIND_DEALER, PHASE_LOAD, w.getvalue())
    run_parties({"dealer": dealer.run_convert()})
    return [server.recv() for server, _ in chans]


def test_malformed_conversion_requests_are_rejected():
    params = ProtocolParams.testing()
    p = params.p
    good = {(0, 0): [1] * 8, (0, 1): [p - 1] * 8}
    assert len(_convert(params, good, good)) == 2
    short = {(0, 0): [1] * 8, (0, 1): [5]}  # would fill the whole segment with 5
    cases = [
        (short, short, "job 0 column 1: 1 values for a job of n=8"),
        (good, {**good, (0, 0): [1] * 4}, "job 0 column 0: the servers sent 8 and 4"),
        (good, {**good, (0, 1): [0] * 7 + [p]}, r"job 0 column 1: a value is not in \[0, p\)"),
        ({**good, (0, 0): [2 ** 64 - 1] * 8}, good, r"job 0 column 0: a value is not in"),
    ]
    for cols0, cols1, message in cases:
        with pytest.raises(ValueError, match=message):
            _convert(params, cols0, cols1)


# -- convolution lowering ------------------------------------------------------------


def _conv(filters, in_shape, stride, padding):
    return ConvLayer(np.array(filters, dtype=object), in_shape, stride, padding)


def test_im2col_hand_checked_case():
    # 3x3 single-channel input, 2x2 filter [[1, 2], [3, 4]]: each output is
    # the window's weighted sum, row-major over the 2x2 output
    layer = _conv([[[[1]], [[2]]], [[[3]], [[4]]]], (3, 3, 1), 1, 0)
    x = list(range(1, 10))
    assert list(np.array(x, dtype=object) @ im2col_matrix(layer, 1009)) == \
        [37, 47, 67, 77]


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("cin,cout", [(1, 1), (2, 3), (3, 2)])
def test_im2col_matches_direct_conv(stride, padding, cin, cout):
    # a non-square input and kernel, so swapped axes cannot cancel out
    p = 1009
    rng = random.Random(100 * stride + 10 * padding + cin * cout)
    h, w, kh, kw = 5, 6, 3, 2
    filters = [[[[rng.randrange(p) for _ in range(cout)] for _ in range(cin)]
                for _ in range(kw)] for _ in range(kh)]
    layer = _conv(filters, (h, w, cin), stride, padding)
    t = im2col_matrix(layer, p)
    for _ in range(3):
        x = [rng.randrange(p) for _ in range(h * w * cin)]
        assert list((np.array(x, dtype=object) @ t) % p) == direct_conv(layer, x, p)


def _pool_manifest(k: int) -> ModelManifest:
    """dense 4 -> 10, then a maxpool over groups of k."""
    weights = np.zeros((4, 10), dtype=object)
    return ModelManifest("pool", 8, 4, [DenseLayer(weights), MaxPoolVecLayer(k)])


@pytest.mark.parametrize("k", [3, 0, -2])
def test_maxpool_must_divide_its_width(k):
    with pytest.raises(ShapeError, match=f"layer 1: maxpool k={k}"):
        lower_manifest(_pool_manifest(k), ProtocolParams.testing())


def test_maxpool_lowers_to_groups_of_k():
    lowered = lower_manifest(_pool_manifest(5), ProtocolParams.testing())
    assert lowered[1] == GadgetLayer("maxpool", width=10, k=5)

import random
import threading

from pairml.engine import DealerRole, ServerRole
from pairml.params import ProtocolParams
from pairml.transport import WIDE_AREA, inproc_pair


def _run_threads(*targets, timeout=60.0):
    errors = []

    def guard(fn):
        try:
            fn()
        except Exception as e:  # reported below, so a failed party fails the test
            errors.append(e)

    threads = [threading.Thread(target=guard, args=(fn,), daemon=True)
               for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a party did not finish"
    assert not errors, errors


def test_setup_frame_round_trip():
    params = ProtocolParams.testing()
    peer0, peer1 = inproc_pair("s0-peer", "s1-peer", WIDE_AREA)
    d0s, d0d = inproc_pair("s0-dealer", "dealer-s0", WIDE_AREA)
    d1s, d1d = inproc_pair("s1-dealer", "dealer-s1", WIDE_AREA)
    dealer = DealerRole(params, d0d, d1d, random.Random(1))
    servers = [ServerRole(b, params, peer, dealer_chan, owner=None)
               for b, peer, dealer_chan in ((0, peer0, d0s), (1, peer1, d1s))]
    _run_threads(dealer.run_setup, *(s.run_setup for s in servers))
    for s in servers:
        assert s.setup_msg[0] == dealer.keys.pk
        assert s.tee is not None
    s_sum = servers[0].setup_msg[1] + servers[1].setup_msg[1]
    assert s_sum == dealer.keys.s

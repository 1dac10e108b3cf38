"""`sim.run_parties`, which steps every party in one thread, and the
library's own protocol path checked against `reference_infer` for every
model in both modes."""

import random
import sys
import threading
from pathlib import Path

import pytest

from pairml import models
from pairml.engine import ArgmaxLayer, ModelManifest, lower_manifest, reference_infer
from pairml.fixedpoint import to_signed
from pairml.params import ProtocolParams
from pairml.sim import RunConfig, Simulation, encode_inputs, run_parties
from pairml.transport import TransportError, WIDE_AREA, inproc_pair, sweep_wide_area

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.lockstep import error_bounds  # noqa: E402

PARAMS = ProtocolParams.testing()


def _setup(model: str, seed: int, argmax: bool = True):
    """A seed-`seed` model and two inputs, drawn as `test_sim._run` draws them."""
    manifest = models.GENERATORS[model](PARAMS, random.Random(seed))
    rng = random.Random(seed + 1)
    inputs = encode_inputs(manifest, PARAMS,
                           [models.random_input(manifest, rng) for _ in range(2)])
    if not argmax:
        manifest = ModelManifest(manifest.name, manifest.fp_scale, manifest.input_dim,
                                 [l for l in manifest.layers
                                  if not isinstance(l, ArgmaxLayer)])
    return manifest, inputs


def test_a_deadlock_raises_at_once_naming_every_party():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    with pytest.raises(TransportError) as err:
        run_parties({"alice": a.wait(), "bob": b.wait()})
    assert str(err.value) == "no party can move: alice waits on a, bob waits on b"


def test_a_run_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the library started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    manifest, inputs = _setup("mfnn", 3)
    sim = Simulation(PARAMS, manifest, RunConfig(trusted_test=True, seed=3))
    assert len(sim.run(inputs).labels) == 2


def test_a_tampered_f_raises_in_trusted_test_mode(monkeypatch):
    manifest, inputs = _setup("mfnn", 3)
    sim = Simulation(PARAMS, manifest, RunConfig(trusted_test=True, seed=3))
    role = sim.roles[1]
    load = role.run_load

    def tampered_load():
        yield from load()
        f = role.f_public[0]
        f[0, 0] = (f[0, 0] + 1) % PARAMS.p

    monkeypatch.setattr(role, "run_load", tampered_load)
    with pytest.raises(RuntimeError, match="^the servers disagree on F at job 0$"):
        sim.run(inputs)


@pytest.mark.parametrize("mode", ["single-tee", "multi-tee"])
@pytest.mark.parametrize("model", ["mfnn", "ifnn", "mcnn"])
def test_logits_are_within_the_error_bounds(model, mode):
    # without the argmax the owner receives the logits
    manifest, inputs = _setup(model, 3, argmax=False)
    sim = Simulation(PARAMS, manifest, RunConfig(mode=mode, trusted_test=True, seed=3))
    result = sim.run(inputs)
    bounds = error_bounds(lower_manifest(manifest, PARAMS), PARAMS.p,
                          manifest.fp_scale)
    for x, logits in zip(inputs, result.labels):
        ref = reference_infer(manifest, PARAMS, x)
        assert len(logits) == len(ref) == len(bounds)
        off = [abs(to_signed(got - want, PARAMS.p)) for got, want in zip(logits, ref)]
        assert all(o <= b for o, b in zip(off, bounds)), (off, bounds)
    assert sweep_wide_area(list(result.channels.values())) == []

"""Tests of the benchmark itself, at a miniature size.

    python3 -m pytest -q perfbench
"""

import json
import random

import pytest

from perfbench import lockstep, run
from perfbench.trace import Tracer
from pairml import engine, hss, models
from pairml.params import ProtocolParams

MINI = run.Workload(
    "mini-mfnn", "mfnn", lambda: ProtocolParams.testing(n_ring=32), "single-tee",
    setups_per_inference=1, loads_per_inference=1, dominant=(("ring", "lpr", "hss"), ("load", "preprocess")),
    model_kwargs={"dims": (8, 4, 3)})


def _bump_beaver_c(dep):
    """Server 0's c share of the last linear layer, entry 0, off by p/4."""
    triples = dep.servers[0].triples
    c = triples[max(triples)].c
    c[0] = (int(c[0]) + dep.params.p // 4) % dep.params.p


def _bump_gadget_mask(dep):
    """Server 0's argmax mask shares, each off by p/4."""
    argmax = dep.servers[0].materials[-1]
    argmax.rho_shares = [(r + dep.params.p // 4) % dep.params.p
                         for r in argmax.rho_shares]


def test_clean_run_passes_every_check():
    res = run.run_pass(MINI, seed=3, seconds=None, n_inferences=2)
    assert [r.failed for r in res.records] == [False, False]
    assert not res.sweep
    assert all(r.inference.reveal_elements == res.budget for r in res.records)


@pytest.mark.parametrize("tamper", [_bump_beaver_c, _bump_gadget_mask])
def test_corrupted_material_is_a_failed_inference(tamper):
    res = run.run_pass(MINI, seed=3, seconds=None, n_inferences=2,
                       tamper=tamper)
    assert [r.failed for r in res.records] == [True, True]
    assert all(r.inference is not None for r in res.records)


def test_each_step_counts_at_its_fastest_replica():
    def step(phase, crit, s0):
        return lockstep.Step(phase, crit, (s0, crit, 0.0, 0.0), (s0, crit, 0.0, 0.0))

    a = [step("preprocess", 2.0, 1.0), step("online", 1.0, 1.0)]
    b = [step("preprocess", 1.5, 1.2), step("online", 3.0, 0.5)]
    clocks = lockstep.fastest([a, b])
    assert clocks["preprocess"].critical == 1.5
    assert clocks["preprocess"].busy["s0"] == 1.0
    assert clocks["online"].critical == 1.0
    assert clocks["online"].cpu["s0"] == 0.5
    with pytest.raises(lockstep.LockstepError):
        lockstep.fastest([a, a[:1]])


def test_closed_form_budgets_match_the_baseline():
    params = ProtocolParams.testing()
    budgets = {}
    for name in ("mfnn", "ifnn"):
        manifest = models.GENERATORS[name](params, random.Random(0))
        budgets[name] = lockstep.reveal_budget(
            engine.lower_manifest(manifest, params))
    assert budgets == {"mfnn": 243, "ifnn": 129}


def _report(trace, tmp_path):
    line = run.run_one(MINI, seed=5, seconds=0.1, trace=trace, out_dir=tmp_path)
    return json.loads(line)


def test_report_names_every_end_to_end_metric_with_its_unit(tmp_path):
    res = _report(False, tmp_path)
    want = {m["name"]: m["unit"] for m in run.spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_report_names_every_per_layer_metric(tmp_path):
    res = _report(True, tmp_path)
    want = {m["name"]: m["unit"] for m in run.spec()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"]
    assert list(tmp_path.glob("trace-mini-mfnn-seed5.jsonl"))


def test_tracer_restores_the_library():
    before = hss.hss_mult
    tracer = Tracer()
    tracer.install()
    assert hss.hss_mult is not before
    tracer.uninstall()
    assert hss.hss_mult is before

"""Lockstep private-inference benchmark.

    python3 perfbench/run.py --workload mfnn-prod-1tee --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones listed in BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, and every per-layer figure
plus the spans of the traced pass are written under ``.perfbench-out/``.
``--workload all`` runs every workload in its own process and prints a
table.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

if not (ROOT / "src" / "pairml").is_dir():
    sys.exit(f"perfbench: no pairml sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pairml import engine, transport  # noqa: E402
from pairml.params import ProtocolParams  # noqa: E402

from perfbench import lockstep  # noqa: E402
from perfbench.lockstep import PARTIES, PHASES  # noqa: E402
from perfbench.trace import LAYERS, Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # key of pairml.models.GENERATORS
    params: Callable[[], ProtocolParams]
    mode: str  # "single-tee" | "multi-tee"
    # Extra set-ups, on throwaway deployments, and extra model loads before
    # each inference.  setup_s and load_s are medians over the run, so they
    # sample the same stretch of time as the inferences do.
    setups_per_inference: int
    loads_per_inference: int
    dominant: tuple  # (layers, phases): the layers predicted to carry the phases
    model_kwargs: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("mfnn-prod-1tee", "mfnn", ProtocolParams.production, "single-tee",
             setups_per_inference=3, loads_per_inference=0,
             dominant=(("ring", "lpr", "hss"), ("load", "preprocess"))),
    Workload("ifnn-test-1tee", "ifnn", ProtocolParams.testing, "single-tee",
             setups_per_inference=5, loads_per_inference=1,
             dominant=(("fss", "gadgets"), ("online",))),
    Workload("ifnn-test-3tee", "ifnn", ProtocolParams.testing, "multi-tee",
             setups_per_inference=15, loads_per_inference=5,
             dominant=(("tee", "shares3", "transport"), ("preprocess",))),
)}


# Alike deployments that run every step of a timed pass, in reference time;
# each step counts at its fastest replica (lockstep.Replicated).
REPLICAS = 2


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- one pass: set-up, load, closed-loop inferences -------------------------------------


@dataclass
class Record:
    inference: lockstep.Inference | None  # None when a call raised
    failed: bool
    label_match: bool
    reason: str = ""


@dataclass
class Pass:
    setup_s: list[float]
    load_s: list[float]
    replicas: lockstep.Replicated
    load_traffic: dict
    records: list[Record]
    budget: int
    sweep: list[str]
    rss_mb: float  # peak resident memory up to the end of the first inference

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.records)

    @property
    def done(self) -> list[lockstep.Inference]:
        return [r.inference for r in self.records if r.inference is not None]

    @property
    def deployment(self) -> lockstep.Deployment:
        return self.replicas.deps[0]

    @property
    def clocks(self) -> dict[str, lockstep.PhaseClock]:
        return self.replicas.clocks

    @property
    def busy_s(self) -> float:
        return sum(sum(c.busy.values()) for c in self.clocks.values())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload: Workload, seed: int, seconds: float | None,
             n_inferences: int | None = None, repeat: bool = True,
             replicas: int = REPLICAS, tracer=None, tamper=None) -> Pass:
    """Set up a deployment and load the model, then run inferences one after
    another, or exactly `n_inferences` of them.  A timed pass stops before
    an inference that would end more than `seconds` after loading began, the
    last one's time being the guide, but it runs at least one.  With
    `repeat`, each inference is preceded by the workload's extra set-ups and
    loads.  Every deployment is `replicas` alike ones; their outputs must
    agree."""
    params = workload.params()
    manifest = lockstep.make_model(workload, params, seed)
    oracle = lockstep.Oracle(manifest, params)
    budget = lockstep.reveal_budget(engine.lower_manifest(manifest, params))
    inputs = lockstep.make_inputs(manifest, params, seed)
    setups = 0

    def set_up() -> lockstep.Replicated:
        nonlocal setups
        reps = lockstep.Replicated(replicas, params, workload.mode,
                                   f"{seed}/{setups}", tracer=tracer,
                                   tamper=tamper)
        setups += 1
        _, clocks = reps.run("run_setup")
        setup_s.append(clocks["setup"].critical)
        return reps

    def load():
        _, clocks = live.run("run_load", manifest)
        load_s.append(clocks["load"].critical)

    setup_s: list[float] = []
    load_s: list[float] = []
    live = set_up()
    started = time.perf_counter()
    meters = lockstep.meter_totals(live.deps[0].channels)
    load()
    load_traffic = lockstep.meter_delta(
        lockstep.meter_totals(live.deps[0].channels), meters)

    records: list[Record] = []
    rss_mb = 0.0
    while n_inferences is None or len(records) < n_inferences:
        begun = time.perf_counter()
        if repeat:
            for _ in range(workload.setups_per_inference):
                set_up()
            for _ in range(workload.loads_per_inference):
                load()
        if tracer is not None:
            tracer.inference = len(records)
        x_field = next(inputs)
        try:
            infs, clocks = live.run("run_inference", x_field)
        except Exception:  # the lockstep state is lost: fail it and stop
            traceback.print_exc(file=sys.stderr)
            records.append(Record(None, True, False, "a call raised"))
            break
        live.drop_enclave_logs()
        rss_mb = rss_mb or _peak_rss_mb()
        inf = infs[0]
        inf.preprocess, inf.online = clocks["preprocess"], clocks["online"]
        if tracer is not None:
            tracer.enter("check", "verify")
        passed, match, reason = oracle.check(x_field, inf.logit_shares,
                                             inf.label_shares)
        if passed and inf.reveal_elements != budget:
            passed = False
            reason = f"{inf.reveal_elements} online reveal elements, budget {budget}"
        if passed and any((i.logit_shares, i.label_shares)
                          != (inf.logit_shares, inf.label_shares) for i in infs):
            passed = False
            reason = "replicas gave different shares"
        if not passed:
            print(f"perfbench: inference {len(records)} failed: {reason}",
                  file=sys.stderr)
        records.append(Record(inf, not passed, match, reason))
        now = time.perf_counter()
        if n_inferences is None and now + (now - begun) - started > seconds:
            break
    sweep = [line for dep in live.deps
             for line in transport.sweep_wide_area(dep.channels)]
    for line in sweep:
        print(f"perfbench: wide-area sweep: {line}", file=sys.stderr)
    return Pass(setup_s, load_s, live, load_traffic, records, budget, sweep,
                rss_mb or _peak_rss_mb())


# -- metrics ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Pass) -> dict[str, float]:
    done = run.done
    wan = transport.WIDE_AREA
    cpu_s = _median([sum(c.cpu[s] for c in (i.preprocess, i.online)
                         for s in lockstep.SERVERS) for i in done])
    wan_pre = _median([i.traffic_preprocess[wan]["bytes"] for i in done])
    wan_on = _median([i.traffic_online[wan]["bytes"] for i in done])
    cost = transport.cost_report(
        {wan: {"class": wan, "sent_bytes": wan_pre + wan_on}},
        cpu_hours={"sgx": cpu_s / 3600})
    return {
        "setup_s": _median(run.setup_s),
        "load_s": _median(run.load_s),
        "preprocess_s": _median([i.preprocess.critical for i in done]),
        "online_s": _median([i.online.critical for i in done]),
        "cpu_s_per_inference": cpu_s,
        "usd_per_1k_inferences": 1000 * cost.total_dollars,
        "wan_bytes_load": run.load_traffic[wan]["bytes"],
        "wan_bytes_preprocess": wan_pre,
        "wan_bytes_online": wan_on,
        "online_rounds": _median([i.online_rounds for i in done]),
        "peak_rss_mb": run.rss_mb,
    }


def per_layer(workload: Workload, plain: Pass, traced: Pass, tracer) -> dict:
    """Every per-layer figure.  Self times and call counts come from the
    traced pass; meters, party busy time and reveal counts from the plain
    pass.  Preprocess and online figures are per inference, set-up and load
    figures per run."""
    n = max(len(traced.done), 1)
    per = {"setup": 1, "load": 1, "preprocess": n, "online": n}
    out: dict[str, float] = {}
    for (name, ph), (calls, self_s) in tracer.stats.items():
        if ph in per:
            out[f"{name}.calls.{ph}"] = calls / per[ph]
            out[f"{name}.self_s.{ph}"] = self_s / per[ph]
    for (name, ph), count in tracer.counts.items():
        if ph in per:
            out[f"{name}.{ph}"] = count / per[ph]
    for layer in LAYERS:
        for ph in PHASES:
            out[f"layer.{layer}.self_s.{ph}"] = \
                tracer.layer_seconds(layer, (ph,)) / per[ph]
    servers = traced.deployment.servers
    if workload.mode == "multi-tee":
        out["shares3.and_gates"] = sum(s.tee.bool3.and_gates for s in servers) / n
        out["shares3.mults"] = sum(s.tee.arith.mults for s in servers) / n
    for kind, rounds in servers[0].gadget_rounds.items():
        out[f"gadgets.rounds.{kind}"] = rounds / n
    layers, phases = workload.dominant
    busy = sum(sum(traced.clocks[ph].busy.values()) for ph in phases)
    out["trace.dominant_share"] = sum(
        tracer.layer_seconds(layer, phases) for layer in layers) / busy
    out["trace.overhead"] = traced.busy_s / plain.busy_s

    done, clocks = plain.done, plain.clocks
    n = max(len(done), 1)
    per = {"setup": 1, "load": 1, "preprocess": n, "online": n}
    for ph in PHASES:
        for party in PARTIES:
            out[f"party.{party}.busy_s.{ph}"] = clocks[ph].busy[party] / per[ph]
    for cls in lockstep.CLASSES:
        for stat in ("bytes", "msgs", "rounds"):
            out[f"transport.{cls}.{stat}.load"] = plain.load_traffic[cls][stat]
            for ph in ("preprocess", "online"):
                out[f"transport.{cls}.{stat}.{ph}"] = _median(
                    [getattr(i, f"traffic_{ph}")[cls][stat] for i in done])
    for ph in ("preprocess", "online"):
        out[f"transport.wait_s.{ph}"] = _median(
            [sum(t["wait_s"] for t in getattr(i, f"traffic_{ph}").values())
             for i in done])
    out["engine.reveal_elements"] = _median([i.reveal_elements for i in done])
    out["engine.reveal_budget"] = plain.budget
    out["engine.label_match"] = \
        sum(r.label_match for r in plain.records) / len(plain.records)
    return out


# -- command line ------------------------------------------------------------------------


def _result(correct: bool, attempted: int, failed: int, values: dict,
            table: list[dict]) -> str:
    """The result line.  A listed count the run never touched reads 0."""
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in table}
    return json.dumps(dict(correct=correct, attempted=attempted, failed=failed,
                           metrics=metrics))


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT_DIR) -> str:
    bench = spec()
    if not trace:
        run = run_pass(workload, seed, seconds)
        return _result(run.failed == 0 and not run.sweep, len(run.records),
                       run.failed, end_to_end(run), bench["end_to_end"])
    plain = run_pass(workload, seed, seconds / 2, repeat=False, replicas=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, None, n_inferences=len(plain.records),
                          repeat=False, replicas=1, tracer=tracer)
    finally:
        tracer.uninstall()
    values = per_layer(workload, plain, traced, tracer)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    with open(out_dir / f"layers-{workload.name}-seed{seed}.json", "w") as f:
        json.dump(values, f, indent=1, sort_keys=True)
    failed = plain.failed + traced.failed
    return _result(failed == 0 and not plain.sweep and not traced.sweep,
                   len(plain.records) + len(traced.records), failed, values,
                   bench["per_layer"])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process, since peak RSS is per process."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<44} {v['value']:>14.6g} {v['unit']}")
        status |= not res["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Lockstep private-inference benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    print(run_one(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

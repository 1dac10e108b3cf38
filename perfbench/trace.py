"""Per-layer tracing by wrapping the library's functions from outside.

`Tracer.install()` replaces each function in `WRAPS` with a wrapper in every
namespace its callers resolve it from (for example `gadgets.dcf_eval` as well
as `fss.dcf_eval`), and `uninstall()` puts the originals back.  Nothing under
`src/` changes.

Three wrapper kinds:

* ``span``: timed and recorded (name, start, end, parent, party, phase,
  inference id); spans stay in memory until `write()`;
* ``timed``: timed for self time but not recorded, for calls too frequent
  to keep (channel send/recv, 3PC ring passes);
* ``count``: only counted, for very hot small functions whose time stays
  in their caller's self time (CRT combine, PRF draws).

A call's self time is its duration minus the time covered by the timed
calls beneath it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from pairml import (engine, fixedpoint, fss, gadgets, hss, lpr, prg, ring,
                    shares3, tee, transport)

# metric name (a str, or a function of the call's arguments), kind, then every
# (namespace, attribute) that callers resolve
WRAPS = [
    ("ring.mul", "span", [(ring.RingPoly, "__mul__")]),
    ("ring.ntt", "span", [(ring.NttContext, "ntt"), (ring.NttContext, "intt")]),
    ("ring.rns_combine", "count", [(ring.RnsContext, "combine")]),
    ("ring.serdes", "span", [(ring.RingPoly, "serialize"),
                             (ring.RingPoly, "deserialize")]),
    ("lpr.encrypt", "span", [(lpr, "encrypt"), (hss, "encrypt")]),
    ("lpr.ct_deserialize", "span", [(lpr.LprCiphertext, "deserialize")]),
    ("hss.convert", "span", [(hss, "dealer_convert_column")]),
    ("hss.mult", "span", [(hss, "hss_mult")]),
    ("hss.start", "span", [(hss.TripleGenSession, "start")]),
    ("hss.feed", "span", [(hss.TripleGenSession, "feed")]),
    ("fss.dcf_gen", "span", [(fss, "dcf_gen"), (gadgets, "dcf_gen")]),
    ("fss.dpf_gen", "span", [(fss, "dpf_gen"), (gadgets, "dpf_gen")]),
    ("fss.dcf_eval", "span", [(fss, "dcf_eval"), (gadgets, "dcf_eval")]),
    ("fss.dpf_eval", "span", [(fss, "dpf_eval"), (gadgets, "dpf_eval")]),
    ("prg.prf_draws", "count", [(prg.Prf, "raw")]),
    ("shares3.pass_ring", "timed", [(shares3.TriadNet, "pass_ring")]),
    ("shares3.a2b", "span", [(shares3.Bool3Engine, "a2b")]),
    (lambda a, kw: f"tee.material.{a[1] if len(a) > 1 else kw['kind']}", "span",
     [(tee.SingleTee, "gadget_material"), (tee.TeeTriple, "gadget_material")]),
    ("tee.dist_tree_gen", "span", [(tee.TeeTriple, "dist_tree_gen")]),
    ("gadgets.session.relu", "span", [(gadgets.ReluSession, "start"),
                                      (gadgets.ReluSession, "feed")]),
    (lambda a, kw: f"gadgets.session.{a[0].mat.kind}", "span",
     [(gadgets.SplineSession, "start"), (gadgets.SplineSession, "feed")]),
    ("gadgets.session.max2", "span", [(gadgets.Max2Session, "start"),
                                      (gadgets.Max2Session, "feed")]),
    ("gadgets.session.maxpool", "span", [(gadgets.MaxPoolSession, "start"),
                                         (gadgets.MaxPoolSession, "feed")]),
    ("gadgets.session.argmax", "span", [(gadgets.ArgmaxSession, "start"),
                                        (gadgets.ArgmaxSession, "feed")]),
    ("gadgets.material_serdes", "span",
     [(gadgets, "serialize_material"), (gadgets, "deserialize_material"),
      (tee, "serialize_material"), (tee, "deserialize_material")]),
    ("transport.send", "timed", [(transport.Channel, "send")]),
    ("transport.recv", "timed", [(transport.Channel, "recv")]),
    ("fixedpoint.truncate", "span", [(fixedpoint, "truncate_share_vec")]),
    ("engine.lower_manifest", "span", [(engine, "lower_manifest")]),
]

# a timed metric is charged to the module its prefix names; prg has only
# counts, so its time stays in its callers' (fss, tee) self time
LAYERS = ("ring", "lpr", "hss", "fss", "shares3", "tee", "gadgets",
          "transport", "fixedpoint", "engine")


class Tracer:
    """Collects spans, self times and counts while installed."""

    def __init__(self):
        self.party = None
        self.phase = None
        self.inference = None
        self.spans: list[list] = []
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [child seconds, recorded span id]
        self._saved: list[tuple[object, str, object]] = []
        self._prg_mark = (0, 0)

    # ---- context -------------------------------------------------------------

    def enter(self, party: str, phase: str):
        """Charge what follows to `party` in `phase`."""
        self._flush_prg()
        self.party, self.phase = party, phase

    def _flush_prg(self):
        calls, nbytes = self._prg_mark
        if self.phase is not None:
            self.counts[("prg.calls", self.phase)] += prg.calls - calls
            self.counts[("prg.bytes_expanded", self.phase)] += \
                prg.bytes_expanded - nbytes
        self._prg_mark = (prg.calls, prg.bytes_expanded)

    # ---- wrappers ------------------------------------------------------------

    def _wrap(self, name, kind: str, fn):
        tracer = self
        naming = callable(name)

        if kind == "count":
            def counted(*args, **kw):
                tracer.counts[(name, tracer.phase)] += 1
                return fn(*args, **kw)
            return counted

        record = kind == "span"

        def timed(*args, **kw):
            label = name(args, kw) if naming else name
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            span_id = parent
            if record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st = tracer.stats[(label, tracer.phase)]
                st[0] += 1
                st[1] += dur - frame[0]
                if record:
                    tracer.spans[span_id] = [label, start, end, parent,
                                             tracer.party, tracer.phase,
                                             tracer.inference]
        return timed

    def install(self):
        for name, kind, targets in WRAPS:
            for owner, attr in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, kind, raw.__func__))
                else:
                    new = self._wrap(name, kind, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        self._prg_mark = (prg.calls, prg.bytes_expanded)

    def uninstall(self):
        self._flush_prg()
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # ---- results ---------------------------------------------------------------

    def layer_seconds(self, layer: str, phases) -> float:
        return sum(st[1] for (n, ph), st in self.stats.items()
                   if n.split(".")[0] == layer and ph in phases)

    def write(self, path):
        """One JSON object per span, then the aggregate table."""
        with open(path, "w") as out:
            for name, start, end, parent, party, phase, inf in self.spans:
                out.write(json.dumps(dict(
                    name=name, start=start, end=end, parent=parent,
                    party=party, phase=phase, inference=inf)) + "\n")
            for (name, phase), (calls, self_s) in sorted(self.stats.items(),
                                                         key=str):
                out.write(json.dumps(dict(name=name, phase=phase, calls=calls,
                                          self_s=self_s)) + "\n")
            for (name, phase), calls in sorted(self.counts.items(), key=str):
                out.write(json.dumps(dict(name=name, phase=phase,
                                          calls=calls)) + "\n")

"""Spans and counts at the public entry points of each minorsum module.

`install(ms, tracer)` replaces each traced function with a wrapper on every
name that binds it: the defining module, each module that imported it
(`minorsum.identities.det_bareiss` as well as `minorsum.matrix.det_bareiss`),
the package itself, and, for methods, every class attribute that holds it
(`Poly.__mul__` and its alias `__rmul__`).  Nothing under `src/` changes.

A wrapper records only inside an operation span, so inputs built at set-up
are not counted.  Each span knows its parent, so a name's self time is its
duration minus the time of its child spans.  Generators and very small
helpers are counted, not timed: a generator's work runs in its caller.

Spans of the first round are kept in memory and written out at exit along
with the totals; later rounds, which repeat the same operations, add to
the totals only.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric name, module, attribute, how): "span" times the call, "count"
# only counts it.  An attribute "Class.method" names a method.
TARGETS = (
    ("ring.poly_mul", "ring", "Poly.__mul__", "span"),
    ("ring.poly_exact_div", "ring", "Poly.exact_div", "span"),
    ("ring.poly_add", "ring", "Poly.__add__", "span"),
    ("ring.format", "ring", "format_poly", "span"),
    ("ring.parse", "ring", "PolynomialRing.parse", "span"),
    ("matrix.det_bareiss", "matrix", "det_bareiss", "span"),
    ("matrix.det_rows", "identities", "_det_rows", "span"),
    ("matrix.det_cofactor", "matrix", "det_cofactor", "span"),
    ("matrix.pfaffian_laplace", "matrix", "pfaffian_laplace", "span"),
    ("matrix.pfaffian_matchings", "matrix", "pfaffian_matchings", "span"),
    ("matrix.matmul", "matrix", "Matrix.__matmul__", "span"),
    ("combinat.crossing_number", "combinat", "crossing_number", "count"),
    ("combinat.perfect_matchings", "combinat", "perfect_matchings", "count"),
    ("identities.f_AB", "identities", "f_AB", "span"),
    ("identities.g_AB", "identities", "g_AB", "span"),
    ("identities.chain_sum", "identities", "_chain_sum", "span"),
    ("identities.minor_sum", "identities", "minor_sum", "span"),
    ("identities.check_okada", "identities", "check_okada", "span"),
    ("identities.check_byun", "identities", "check_byun", "span"),
    ("identities.check_main1", "identities", "check_main1", "span"),
    ("identities.check_main2", "identities", "check_main2", "span"),
    ("identities.check_rank1", "identities", "check_rank1", "span"),
    ("identities.check_lemma_aux", "identities", "check_lemma_aux", "span"),
    ("identities.check_iswa", "identities", "check_iswa", "span"),
    ("identities.check_lemma_iswa", "identities", "check_lemma_iswa", "span"),
    ("identities.check_ab", "identities", "check_ab", "span"),
    ("identities.check_ab2", "identities", "check_ab2", "span"),
    ("identities.check_cor7", "identities", "check_cor7", "span"),
    ("identities.check_closed_forms", "identities", "check_closed_forms", "span"),
    ("identities.check_det_pf_square", "identities", "check_det_pf_square", "span"),
    ("identities.check_cauchy_binet_pf", "identities", "check_cauchy_binet_pf", "span"),
    ("symfun.skew_schur", "symfun", "skew_schur", "span"),
    ("symfun.h_complete", "symfun", "h_complete", "span"),
    ("symfun.check_cauchy", "symfun", "check_cauchy", "span"),
    ("paths.count_free", "paths", "count_free", "span"),
    ("paths.brute_force", "paths", "brute_force_nonintersecting", "span"),
    ("paths.lindstrom_matrix", "paths", "lindstrom_matrix", "span"),
    ("cli.eval", "cli", "eval_cmd.callback", "span"),
    ("cli.paths", "cli", "paths_cmd.callback", "span"),
    ("cli.main", "cli", "main.main", "span"),
)

OP = "bench.op"
# combinat is counted only, so it has no time of its own to share
LAYERS = ("bench", "ring", "matrix", "identities", "symfun", "paths", "cli")
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, span id, child time]
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.from_bareiss = 0
        self.spans = []  # (id, parent id, name, start, end) of the first round
        self.op_labels = {}  # root span id -> operation label, first round
        self.dropped = 0
        self.recording = True
        self.absent = []
        self.next_id = 0

    def _enter(self, name):
        self.next_id += 1
        frame = [name, self.next_id, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self.stack.pop()
        dur = end - start
        tot = self.totals.setdefault(frame[0], [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if self.recording:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((frame[1], parent[1] if parent else 0, frame[0], start, end))
            else:
                self.dropped += 1

    def op(self, fn, label):
        """Run one benchmark operation inside a root span."""
        frame = self._enter(OP)
        if self.recording:
            self.op_labels[frame[1]] = label
        start = perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, start, perf_counter())

    def span_wrapper(self, name, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if name == "matrix.det_cofactor" and stack[-1][0] == "matrix.det_bareiss":
                self.from_bareiss += 1
            frame = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        stack = self.stack
        totals = self.totals

        def counted(*args, **kwargs):
            if stack:
                totals.setdefault(name, [0, 0.0, 0.0])[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ---------------------------------------------------------

    def metrics(self, rounds: int, names) -> dict:
        """Per-round values of the per-layer metrics named in `names`."""
        values = {}
        op_time = self.totals.get(OP, [0, 0.0, 0.0])[1]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_s
        for metric in names:
            base, quantity = metric.rsplit(".", 1)
            if quantity == "share":
                layer = base.split(".", 1)[0]
                values[metric] = layer_self[layer] / op_time if op_time else 0.0
                continue
            if base == "matrix.det_cofactor.from_bareiss":
                total = self.from_bareiss
            elif base == "cli" and quantity == "self_s":
                total = sum(self.totals.get(n, [0, 0.0, 0.0])[2] for n in ("cli.main", "cli.eval", "cli.paths"))
            else:
                calls, incl, self_s = self.totals.get(base, [0, 0.0, 0.0])
                total = {"calls": calls, "s": incl, "self_s": self_s}[quantity]
            per_round = total / rounds
            if quantity == "calls" and per_round == int(per_round):
                per_round = int(per_round)
            values[metric] = per_round
        return values

    def dump(self, path, header: dict):
        doc = dict(header)
        doc.update(
            {
                "absent": self.absent,
                "totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in sorted(self.totals.items())},
                "from_bareiss": self.from_bareiss,
                "spans_dropped": self.dropped,
                "span_fields": ["id", "parent", "name", "start", "end"],
                "spans": self.spans,
                "op_labels": self.op_labels,
            }
        )
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(original, wrapper):
    """Point every minorsum binding of `original` at `wrapper`."""
    for modname, module in list(sys.modules.items()):
        if modname != "minorsum" and not modname.startswith("minorsum."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(ms, tracer: Tracer):
    """Wrap every target; record the ones this version of minorsum lacks."""
    for name, modname, attr, how in TARGETS:
        module = getattr(ms, modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            tracer.absent.append(f"{modname}.{attr}")
            continue
        make = tracer.span_wrapper if how == "span" else tracer.count_wrapper
        wrapper = make(name, original)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
        elif owner is module:
            _rebind(original, wrapper)
        else:
            # click command objects: the callback and the group's entry point
            setattr(owner, leaf, wrapper)

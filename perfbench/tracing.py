"""In-memory span tracer that measures clawbench's layers from outside.

`Tracer.install()` rebinds a fixed list of clawbench's public functions
(and three methods) to timing wrappers in every loaded clawbench module;
`Tracer.uninstall()` puts the originals back.  No clawbench file changes.

A span is recorded at each wrapped call made while an op is open: name,
start, end, parent span, op id, the exception name if one escaped, and
self time (duration minus the time of the child spans, which nest
strictly because everything runs on one thread).  `FeistelSpec.round_f`
runs ~10^4 times per attack, so it is kept as an aggregate (calls, input
words, time) instead of one span per call; its time still counts as a
child of the enclosing span.  Calls made outside an op (set-up and output
checks) pass straight through untraced.

Counters are taken at the same boundaries: the query ledgers the library
returns (QueryStats, QueryLedger, WalkResult), plus work computed from the
call arguments (walk steps, matrix sizes, statevector updates).
"""

import functools
import inspect
import json
import time
from collections import Counter

import numpy as np

from clawbench import attack, cipher, claw, cli, grover, walk

TUNE = "walk.tune_outer_reps"
WALK_SAMPLE = "walk.claw_walk_sample"
GROVER_SAMPLE = "grover.grover_sample"
OP = "op"

# span name -> per-op inclusive-time metric
INCLUSIVE_S = {
    "attack.resolve_k1_k2_k3": "attack.resolve.s",
    "attack.attack_report": "attack.report.s",
    TUNE: "walk.tune_outer_reps.s",
    "claw.find_claws_exhaustive": "claw.find_claws_exhaustive.s",
    GROVER_SAMPLE: "grover.grover_sample.s",
    "walk.FullWalkSim.run": "walk.full.run_s",
    "grover.grover_run_statevector": "grover.grover_run_statevector.s",
    "cli.main:scaling": "cli.scaling.s",
    "cli.main:selftest": "cli.selftest.s",
    "claw.find_claws_sorted": "claw.find_claws_sorted.s",
}

MODULES = ("attack", "cipher", "claw", "walk", "grover", "cli")


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent, op, error, self_s)
        self.stack = []        # open spans: [id, name, child_s]
        self.counts = Counter()
        self.maxima = {"claw.census_bytes": 0, "walk.full.dim": 0,
                       "walk.full.matrix_bytes": 0}
        self.round_f_s = 0.0
        self.op_id = None
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def under(self, *names):
        return any(frame[1] in names for frame in self.stack)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the result or exception passes through."""
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, name, 0.0]
        self.stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][2] += duration
            self.spans.append((span_id, name, start, end, parent, self.op_id,
                               error, duration - frame[2]))

    def run_op(self, op_id, fn):
        self.op_id = op_id
        try:
            return self.call(OP, fn)
        finally:
            self.op_id = None

    # -- installing wrappers ----------------------------------------------

    def _traced(self, name, fn, after=None, before=None):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before(tracer, bound.arguments)
            span = name(bound.arguments) if callable(name) else name
            result = tracer.call(span, fn, *bound.args, **bound.kwargs)
            if after is not None:
                after(tracer, bound.arguments, result)
            return result

        return traced

    def _traced_round_f(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(spec, round_index, x):
            if not tracer.stack:
                return fn(spec, round_index, x)
            start = time.perf_counter()
            result = fn(spec, round_index, x)
            duration = time.perf_counter() - start
            tracer.stack[-1][2] += duration
            tracer.round_f_s += duration
            tracer.counts["cipher.round_f.calls"] += 1
            tracer.counts["cipher.round_f.evals"] += np.size(x)
            return result

        return traced

    def _rebind(self, module, attr, wrapper):
        original = getattr(module, attr)
        for mod in (attack, cipher, claw, cli, grover, walk):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        functions = [
            (cli, "main", lambda a: f"cli.main:{(a['argv'] or ['?'])[0]}",
             None, None),
            (attack, "run_asr_attack", "attack.run_asr_attack",
             _after_attack, None),
            (attack, "resolve_k1_k2_k3", "attack.resolve_k1_k2_k3",
             None, None),
            (attack, "k1k3_constant", "attack.k1k3_constant", None, None),
            (attack, "attack_report", "attack.attack_report", None, None),
            (claw, "find_claws_sorted", "claw.find_claws_sorted",
             _after_sorted, None),
            (claw, "find_claws_exhaustive", "claw.find_claws_exhaustive",
             _after_exhaustive, None),
            (claw, "side_table", "claw.side_table", _after_side_table, None),
            (grover, "grover_sample", GROVER_SAMPLE, _after_grover_sample,
             _before_grover_sample),
            (grover, "grover_run_statevector",
             "grover.grover_run_statevector", _after_statevector, None),
            (walk, "claw_walk_sample", WALK_SAMPLE, _after_walk_sample, None),
            (walk, "tune_outer_reps", TUNE, _after_tune, None),
        ]
        for module, attr, name, after, before in functions:
            self._rebind(module, attr, self._traced(
                name, getattr(module, attr), after, before))
        self._rebind_method(walk.CollapsedWalkSim, "run", self._traced(
            "walk.CollapsedWalkSim.run", walk.CollapsedWalkSim.run,
            _after_sim_run))
        self._rebind_method(walk.FullWalkSim, "run", self._traced(
            "walk.FullWalkSim.run", walk.FullWalkSim.run, _after_full_run))
        self._rebind_method(cipher.FeistelSpec, "round_f",
                            self._traced_round_f(cipher.FeistelSpec.round_f))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op, error, self_s in \
                    self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "error": error,
                    "self_s": self_s}) + "\n")

    def per_layer(self, n_ops, units):
        """Per-layer metric values.  `units` is the per-layer table of
        BENCHMARK.json; "/op" values are totals over the traced ops divided
        by n_ops, B values the largest single allocation seen.  The caller
        adds trace.overhead and fail_ratio."""
        by_id = {s[0]: s for s in self.spans}
        inclusive = Counter()
        self_time = Counter()
        calls = Counter()
        fallbacks = 0
        wasted_tune = 0.0
        collapsed = 0.0
        for _id, name, start, end, parent, _op, error, self_s in self.spans:
            inclusive[name] += end - start
            self_time[name] += self_s
            calls[name] += 1
            if name == WALK_SAMPLE:
                fallbacks += error == "UniqueClawRequired"
            elif name == TUNE and _ancestor_failed(by_id, parent):
                wasted_tune += end - start
            elif name == "walk.CollapsedWalkSim.run" \
                    and not _has_ancestor(by_id, parent, TUNE):
                collapsed += end - start
        by_module = Counter({"cipher": self.round_f_s})
        for name, t in self_time.items():
            by_module["harness" if name == OP else name.split(".")[0]] += t

        per_op = max(n_ops, 1)
        c = self.counts
        values = {metric: inclusive[span] / per_op
                  for span, metric in INCLUSIVE_S.items()}
        values.update({
            "attack.resolve.calls":
                calls["attack.resolve_k1_k2_k3"] / per_op,
            "attack.resolve.useful_ratio": _ratio(
                c["attack.resolve.useful"], calls["attack.resolve_k1_k2_k3"]),
            "attack.run_asr_attack.self_s":
                self_time["attack.run_asr_attack"] / per_op,
            "walk.tune.wasted_s": wasted_tune / per_op,
            "walk.fallback_ratio": _ratio(fallbacks, calls[WALK_SAMPLE]),
            "walk.collapsed.run_s": collapsed / per_op,
            "grover.hit_ratio": _ratio(c["grover.hits"], c["grover.samples"]),
        })
        values.update(self.maxima)
        for module in (*MODULES, "harness"):
            values[f"self_share.{module}"] = _ratio(by_module[module],
                                                    inclusive[OP])
        # the rest are counters named after their metric
        for name, unit in units.items():
            if unit in ("count/op", "flop/op") and name not in values:
                values[name] = c[name] / per_op
        return values

    def exact_counts(self):
        """The counts that must repeat exactly for a fixed op sequence."""
        out = {k: int(v) for k, v in sorted(self.counts.items())}
        out.update({f"max.{k}": int(v) for k, v in sorted(self.maxima.items())})
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(by_id, span_id, name):
    while span_id is not None:
        span = by_id[span_id]
        if span[1] == name:
            return True
        span_id = span[4]
    return False


def _ancestor_failed(by_id, span_id):
    """Whether tuning under this span was thrown away by a fallback."""
    while span_id is not None:
        span = by_id[span_id]
        if span[1] == WALK_SAMPLE:
            return span[6] == "UniqueClawRequired"
        span_id = span[4]
    return False


# -- counter hooks: (tracer, bound arguments, result) -----------------------


def _raise_max(tr, name, value):
    tr.maxima[name] = max(tr.maxima[name], value)


def _after_attack(tr, args, result):
    _recovered, stats, _stages = result
    for stage, n in stats.classical_evals.items():
        tr.counts[f"attack.classical_evals.{stage}"] += n
    for stage, n in stats.grover_queries.items():
        tr.counts[f"attack.grover_queries.{stage}"] += n
    if args["pair_set"].extra_pair is not None:
        # the last resolve call of a successful attack is the useful one
        tr.counts["attack.resolve.useful"] += 1


def _after_sorted(tr, args, result):
    tr.counts["claw.claws_found"] += len(result[0])


def _after_exhaustive(tr, args, result):
    n = args["problem"].n_side
    _raise_max(tr, "claw.census_bytes", n * n)
    tr.counts["claw.claws_found"] += len(result)


def _after_side_table(tr, args, result):
    tr.counts["claw.side_table.evals"] += args["problem"].n_side


def _before_grover_sample(tr, args):
    predicate = args["predicate"]

    def counted(x):
        tr.counts["grover.predicate_calls"] += 1
        return predicate(x)

    counted.original = predicate
    args["predicate"] = counted


def _after_grover_sample(tr, args, result):
    idx, ledger = result
    tr.counts["grover.oracle_queries"] += ledger.oracle_queries
    tr.counts["grover.samples"] += 1
    tr.counts["grover.hits"] += bool(args["predicate"].original(idx))


def _after_statevector(tr, args, result):
    inst = args["inst"]
    tr.counts["grover.statevector.amp_updates"] += \
        inst.n_items * inst.iterations
    if not tr.under(GROVER_SAMPLE):
        tr.counts["grover.oracle_queries"] += result[1].oracle_queries


def _after_walk_sample(tr, args, result):
    tr.counts["walk.oracle_queries"] += result.ledger.oracle_queries


def _after_tune(tr, args, result):
    p = args["params"]
    top = args["max_multiplier"] * p.outer_reps
    # outer reps 1..top, each outer rep is t1 + t2 walk steps
    tr.counts["walk.tune.sim_steps"] += (p.t1 + p.t2) * top * (top + 1) // 2


def _after_sim_run(tr, args, result):
    if not tr.under(TUNE, WALK_SAMPLE):
        tr.counts["walk.oracle_queries"] += args["self"].ledger.oracle_queries


def _after_full_run(tr, args, result):
    sim = args["self"]
    p = sim.params
    dim = len(sim.basis)
    steps = p.outer_reps * (p.t1 + p.t2)
    # a step multiplies a dim x dim operator into the dim x dim state:
    # four sub-operators when fine, one precomposed step (built once from
    # three products) when not
    products = 4 * steps if args["fine"] else steps + 3
    tr.counts["walk.full.matmul_flops"] += products * 2 * dim ** 3
    _raise_max(tr, "walk.full.dim", dim)
    # four sub-operators plus the state, float64
    _raise_max(tr, "walk.full.matrix_bytes", 5 * 8 * dim * dim)
    _after_sim_run(tr, args, result)

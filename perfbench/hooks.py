"""Outside-in tracing of a mebo fit.

The program has no timers of its own, so the layers are measured from
outside: while a traced fit runs, the module attributes through which
one mebo module calls into another are replaced by timing wrappers,
and the originals are put back when the fit ends.  Every wrapper call
records a span (name, start, end, parent span, info) in memory;
`analyse` turns the spans of one fit into per-layer metrics and checks
them.  A hook whose target is missing, or that never fires where the
workload should reach it, is reported as absent with a reason, never
as a zero.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute): the calls that cross a module boundary inside a fit
HOOKS = (
    ("mebo.recognition", "approx_meb_center"),
    ("mebo.recognition", "expanded_sq_dists"),
    ("mebo.recognition", "top_k_farthest"),
    ("mebo.recognition", "k_smallest_distance"),
    ("mebo.recognition", "score_candidate"),
    ("mebo.recognition", "make_node_rng"),
    ("mebo.multiclass", "recognize"),
    ("mebo.multiclass", "Dataset"),
    ("mebo.cli", "peel"),
    ("mebo.cli", "score_candidate"),
)

MEB = "recognition.approx_meb_center"
DIST = "recognition.expanded_sq_dists"
TOPK = "recognition.top_k_farthest"
KTH = "recognition.k_smallest_distance"
SCORE = "recognition.score_candidate"
RNG = "recognition.make_node_rng"
STAGE = "multiclass.recognize"
SUBSET = "multiclass.Dataset"
PEEL = "cli.peel"
CLI_SCORE = "cli.score_candidate"
ROOT = "fit"

# per-layer metrics of layers only multiclass_cli reaches, with their units;
# BENCHMARK.json lists only metrics that every workload reports, so these
# appear in a traced run's text lines and not in its JSON result
TEXT_ONLY = {
    "multiclass.stage1.fit_s": "s",
    "multiclass.stage2.fit_s": "s",
    "multiclass.stage3.fit_s": "s",
    "multiclass.subset_s": "s",
    "cli.load_s": "s",
    "cli.score_s": "s",
    "cli.emit_s": "s",
    "cli.out_bytes": "B",
}

# what a span keeps besides its times: the path length of a center
# (= node depth), the bytes a distance pass reads, a stage's node count
_INFO = {
    MEB: lambda args, out: len(args[0]),
    DIST: lambda args, out: args[0].nbytes,
    STAGE: lambda args, out: out.candidates_evaluated,
}


class Tracer:
    """Spans of one traced fit; `with tracer:` installs and restores the hooks."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info]
        self.missing = {}  # hook name -> why it could not be installed
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for modname, attr in HOOKS:
            mod = importlib.import_module(modname)
            name = f"{modname.split('.', 1)[1]}.{attr}"
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing[name] = f"{modname} has no attribute {attr!r}"
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        def timed(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        return timed

    @contextmanager
    def root(self):
        """The span of the whole fit, opened by the benchmark itself."""
        rec = [ROOT, 0.0, 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def analyse(tracer: Tracer, *, multiclass: bool, candidates: int | None,
            s: int, h: int, trees: int, out_bytes: int | None):
    """Per-layer metrics of one traced fit.

    Returns (values, absent, problems): metric name -> number, metric
    name -> reason it has no value, and the failed self-checks.
    `trees` is how many trees the fit must grow.  `candidates` is the
    fit's candidates_evaluated for a single fit; a multiclass fit sums
    it over its stages from the stage spans.
    """
    spans = tracer.spans
    problems = set()
    child_sum = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent < 0:
            continue
        pname, pstart, pend = spans[parent][:3]
        if start < pstart or end > pend:
            problems.add(f"a {name} span lies outside its parent {pname}")
        child_sum[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, child_sum):
        if inner > end - start:
            problems.add(f"the child spans of {name} add up to more than {name}")

    total, calls = {}, {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    values, absent = {}, {}

    def reason(*hooks):
        """Why a metric built on these hooks has no value, or None."""
        for hook in hooks:
            if hook in tracer.missing:
                return tracer.missing[hook]
            if hook.split(".")[0] in ("multiclass", "cli") and not multiclass:
                return f"this workload does not reach mebo.{hook}"
            if not calls.get(hook):
                return f"hook mebo.{hook} never fired"
        return None

    def put(metric, hooks, value):
        why = reason(*hooks)
        if why is None:
            values[metric] = value()
        else:
            absent[metric] = why

    put("meb.calls", [MEB], lambda: calls[MEB])
    put("meb.s", [MEB], lambda: total[MEB])
    put("meb.us_per_call", [MEB], lambda: total[MEB] / calls[MEB] * 1e6)
    put("selection.dist_calls", [DIST], lambda: calls[DIST])
    put("selection.dist_s", [DIST], lambda: total[DIST])
    dist_bytes = sum(sp[4] for sp in spans if sp[0] == DIST)
    put("selection.dist_bytes", [DIST], lambda: dist_bytes)
    put("selection.dist_gbps", [DIST], lambda: dist_bytes / total[DIST] / 1e9)
    put("selection.rescore_s", [TOPK, KTH], lambda: total[TOPK] + total[KTH])
    put("recognition.rng_calls", [RNG], lambda: calls[RNG])
    put("recognition.rng_s", [RNG], lambda: total[RNG])

    depth = Counter(sp[4] for sp in spans if sp[0] == MEB)
    nodes = sum(depth.values())
    put("recognition.trees", [MEB], lambda: depth[1])
    put("recognition.nodes", [MEB], lambda: nodes)
    for j in range(1, h + 1):
        put(f"recognition.nodes.depth{j}", [MEB], lambda j=j: depth[j])
    put("recognition.leaf_share", [MEB], lambda: depth[h] / nodes)

    # recognize spans: the root of a single fit, each stage of a multiclass one
    fit_kind = STAGE if multiclass else ROOT
    stage_idx = [i for i, sp in enumerate(spans) if sp[0] == fit_kind]
    child_hooks = [MEB, DIST, RNG, SCORE, KTH] + ([STAGE] if multiclass else [])
    put("recognition.self_s", child_hooks,
        lambda: sum(spans[i][2] - spans[i][1] - child_sum[i] for i in stage_idx))
    put("recognition.us_per_node", child_hooks,
        lambda: values["recognition.self_s"] / nodes * 1e6)

    stages = len(stage_idx)
    if multiclass:
        for j in range(3):
            if j < stages:
                put(f"multiclass.stage{j + 1}.fit_s", [STAGE],
                    lambda j=j: spans[stage_idx[j]][2] - spans[stage_idx[j]][1])
            else:
                absent[f"multiclass.stage{j + 1}.fit_s"] = f"the fit ran {stages} stages"
        if reason(STAGE) is None:
            candidates = sum(spans[i][4] for i in stage_idx)
    else:
        for j in range(3):
            absent[f"multiclass.stage{j + 1}.fit_s"] = reason(STAGE)
    put("multiclass.subset_s", [SUBSET], lambda: total[SUBSET])

    root = spans[0]
    peel = next((sp for sp in spans if sp[0] == PEEL), None)
    put("cli.load_s", [PEEL], lambda: peel[1] - root[1])
    put("cli.score_s", [CLI_SCORE], lambda: total[CLI_SCORE])
    put("cli.emit_s", [PEEL, CLI_SCORE],
        lambda: root[2] - max(sp[2] for sp in spans if sp[0] in (PEEL, CLI_SCORE)))
    if multiclass and out_bytes is not None:
        values["cli.out_bytes"] = out_bytes
    else:
        absent["cli.out_bytes"] = reason(PEEL) or "the command wrote no output file"

    if reason(MEB) is None:
        for j in sorted(set(depth) | set(range(1, h + 1))):
            want = trees * s ** (j - 1) if 1 <= j <= h else 0
            if depth[j] != want:
                problems.add(f"{depth[j]} nodes at depth {j}, expected {want}")
        if candidates is not None and nodes != candidates:
            problems.add(f"{nodes} traced nodes but candidates_evaluated = {candidates}")
    return values, absent, sorted(problems)

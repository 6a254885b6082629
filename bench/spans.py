"""Spans recorded from outside twistres, around the public functions of each
module, and the per-layer metrics computed from them.

``install()`` replaces each target function (or method) with a wrapper that
opens a span, calls the original and closes the span.  A module-level
function is replaced in its defining module and in every module that
imported the name, so ``from twistres.complex import exactness_report`` in
``twistres.cli`` reaches the wrapper too.  Spans stay in memory; the
benchmark writes them out as JSON lines when its process ends.

The work is single-threaded and nothing waits on a lock, queue or peer, so
a span's time is busy time and no layer has a waiting-time metric.
Element-level arithmetic (``AlgebraElement.__mul__``, ``mono_mul``,
``FreeElement.__add__``) runs millions of times a pass and is not wrapped;
its time lands in the self time of the calling span.
"""

import functools
import importlib
import json
import statistics
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "obj")

    def __init__(self, name, start, end=None, parent=-1, obj=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.obj = obj


class Recorder:
    """In-memory span list of one process.  ``obj`` holds what a span's
    metrics are read from after the pass (the ranked matrix, the check
    report), so no measuring happens inside the timed calls."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, keep=None):
        """``fn`` inside a span; ``keep(args, result)`` picks the object the
        span's metrics are read from."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if keep is not None:
                self.spans[idx].obj = keep(args, result)
            return result
        return traced


def span_cost(calls=20_000, repeats=5):
    """Seconds one span adds to a call: a wrapped no-op against the bare
    no-op, median over ``repeats`` timings of ``calls`` calls each."""
    def noop(x):
        return x
    wrapped = Recorder("span-cost").wrap("cost", noop, _result)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _first_arg(args, result):
    return args[0]


def _result(args, result):
    return result


def _cochain_matrix(args, result):
    return result[0]


# span name -> (module, [attribute path, ...], what the span keeps)
LAYERS = {
    "kernel.rank": ("twistres.kernel", ["SparseMatrix.rank"], _first_arg),
    "kernel.compose": ("twistres.kernel", ["SparseMatrix.compose"], None),
    "kernel.solve": ("twistres.kernel", ["solve_dense", "invert_dense"],
                     None),
    "algebra.basis_up_to": ("twistres.algebra", ["basis_up_to"], None),
    "twist.hexagon": ("twistres.twist", ["check_hexagon"], _result),
    "twist.compat": ("twistres.twist", ["check_bimodule_compat"], _result),
    "complex.compose_check": ("twistres.complex", ["compose_check"],
                              _result),
    "complex.truncate": ("twistres.complex", ["truncate"], _result),
    "complex.exactness": ("twistres.complex", ["exactness_report"], None),
    "resolutions.build": ("twistres.resolutions", [
        "bar", "poly_koszul", "ore_koszul", "one_sided_koszul_kx",
        "cyclic_periodic", "lift_twist"], None),
    "resolutions.lift_check": ("twistres.resolutions", [
        "check_lift_chain_map", "check_lift_compat",
        "crosscheck_koszul_lift"], _result),
    "twistprod.total": ("twistres.twistprod", [
        "bimodule_twisted_product", "one_sided_twisted_product",
        "koszul_pair_product", "triangular_skew_product",
        "ore_module_resolution", "present_over_twisted_algebra",
        "TwistedBicomplex.total"], None),
    "twistprod.kunneth": ("twistres.twistprod", ["kunneth_degree0_check"],
                          None),
    "twistprod.grid_checks": ("twistres.twistprod", [
        "TwistedBicomplex.anticommute_report",
        "TotalComplex.anticommute_report",
        "TotalComplex.action_commutes_report",
        "OreFreeForm.roundtrip_report", "complexes_match"], None),
    "homology.cochain_matrix": ("twistres.homology",
                                ["CochainTruncation.matrix"],
                                _cochain_matrix),
    "homology.window": ("twistres.homology", [
        "CochainTruncation.window_dim",
        "CochainTruncation.degree_slice_dim"], None),
    "homology.collapse": ("twistres.homology", [
        "tor_over_augmented", "ext_over_augmented"], None),
    "cli": ("twistres.cli", ["main"], None),
}


def install(recorder):
    """Wrap every target in LAYERS; returns the undo list for ``restore``."""
    undo = []
    for name, (modname, paths, keep) in LAYERS.items():
        module = importlib.import_module(modname)
        for path in paths:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, recorder.wrap(name, original, keep))
                continue
            original = getattr(module, path)
            wrapper = recorder.wrap(name, original, keep)
            holders = [m for n, m in list(sys.modules.items())
                       if n == "twistres" or n.startswith("twistres.")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            a = max(spans[c].start, s.start)
            b = min(spans[c].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def size_bucket(nrows, ncols):
    size = max(nrows, ncols)
    if size < 64:
        return "lt64"
    if size < 512:
        return "64_511"
    return "ge512"


def _matrix_key(m):
    return (m.nrows, m.ncols, m.field.characteristic,
            frozenset(m.entries.items()))


def layer_metrics(spans):
    """Per-layer counts and self times of one traced process."""
    selfs = self_times(spans)
    total = {}
    calls = {}
    for s, t in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    out = {}
    rank = [(s, t) for s, t in zip(spans, selfs) if s.name == "kernel.rank"]
    out["kernel.rank.calls"] = len(rank)
    distinct = {_matrix_key(s.obj) for s, _ in rank}
    out["kernel.rank.distinct_ratio"] = (len(distinct) / len(rank)
                                         if rank else 1.0)
    out["kernel.rank.self_s"] = total.get("kernel.rank", 0.0)
    out["kernel.rank.max_s"] = max((t for _, t in rank), default=0.0)
    out["kernel.rank.nnz"] = sum(len(s.obj.entries) for s, _ in rank)
    for fld in ("q", "fp"):
        for bucket in ("lt64", "64_511", "ge512"):
            key = "kernel.rank.%s_%s" % (fld, bucket)
            out[key + ".calls"] = 0
            out[key + ".self_s"] = 0.0
    for s, t in rank:
        m = s.obj
        fld = "q" if m.field.characteristic == 0 else "fp"
        key = "kernel.rank.%s_%s" % (fld, size_bucket(m.nrows, m.ncols))
        out[key + ".calls"] += 1
        out[key + ".self_s"] += t

    for name in ("kernel.compose", "kernel.solve", "complex.truncate",
                 "complex.exactness", "complex.compose_check",
                 "homology.cochain_matrix", "homology.window",
                 "homology.collapse", "algebra.basis_up_to",
                 "twist.hexagon", "twist.compat", "resolutions.build",
                 "resolutions.lift_check", "twistprod.total",
                 "twistprod.kunneth", "twistprod.grid_checks", "cli"):
        out[name + ".self_s"] = total.get(name, 0.0)
    for name in ("complex.truncate", "algebra.basis_up_to"):
        out[name + ".calls"] = calls.get(name, 0)

    def kept(name):
        return [s.obj for s in spans if s.name == name and s.obj is not None]

    out["complex.truncate.nnz"] = sum(
        len(m.entries) for tc in kept("complex.truncate")
        for m in tc.matrices[1:] + [tc.aug_matrix] if m is not None)
    # CochainTruncation.matrix memoizes: count each built matrix once
    built = {id(m): m for m in kept("homology.cochain_matrix")}
    out["homology.cochain_matrix.nnz"] = sum(
        len(m.entries) for m in built.values())
    out["complex.compose_check.labels"] = sum(
        r.checked for r in kept("complex.compose_check"))
    out["twist.hexagon.tuples"] = sum(r.checked for r in kept("twist.hexagon"))
    out["twist.compat.checked"] = sum(r.checked for r in kept("twist.compat"))
    out["resolutions.lift_check.checked"] = sum(
        r.checked for r in kept("resolutions.lift_check")
        if hasattr(r, "checked"))
    out["bench.self_s"] = total.get("bench.case", 0.0)
    return out


def span_records(recorder):
    """The spans as JSON-ready dicts, one per line of the span file."""
    keys = {}
    for i, s in enumerate(recorder.spans):
        rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
               "parent": s.parent, "run": recorder.run_id}
        obj = s.obj
        if s.name == "kernel.rank":
            key = _matrix_key(obj)
            rec.update(shape=[obj.nrows, obj.ncols],
                       field=obj.field.characteristic,
                       nnz=len(obj.entries),
                       matrix=keys.setdefault(key, len(keys)))
        elif hasattr(obj, "checked"):
            rec["checked"] = obj.checked
        yield rec


def write_jsonl(recorder, path):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in span_records(recorder):
            handle.write(json.dumps(rec) + "\n")

"""Layer spans and counts for one parbetti process, recorded from outside.

``install()`` wraps the public functions and methods of the parbetti modules
(and the engine's two block-cache lookups) in place, in every module that
holds a reference to them, so nothing under ``src/`` changes.  Each call
records a span (name, start, end, parent span) in flat in-memory arrays;
a few hooks add counts after the span has closed, so their cost is not
charged to the layer.  ``dump(path)`` writes the process's spans and counts
at exit.

Forked pool workers inherit the wrappers.  ``install`` registers a
multiprocessing after-fork hook that makes each worker keep only its own
spans (parents that point before the fork refer to the spans of the process
that forked it) and dump them when the worker leaves through
multiprocessing's exit path.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import sys
import time
from array import array

_clock = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes

names = []  # span name table
_ids = {}
span_name = array("l")
span_parent = array("q")
span_start = array("q")
span_end = array("q")
_stack = [-1]
counts = {}


class _State(dict):
    """Per-process tracer state; a dict subclass so it can be weakly referenced."""


_state = _State(base=0, max_bits=0, out=None)


def _count(key, n=1):
    counts[key] = counts.get(key, 0) + n


def _coeffs(obj):
    c = getattr(obj, "coeffs", None)
    if c is None:
        return ()
    return c.values() if isinstance(c, dict) else c


def _bits(res):
    best = _state["max_bits"]
    for c in _coeffs(res):
        b = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    _state["max_bits"] = best


def _product_hook(prefix):
    def hook(args, res):
        a, b = args[0], args[1]
        _count(prefix + ".term_pairs", len(_coeffs(a)) * len(_coeffs(b)))
        _bits(res)
    return hook


def _returned_hook(prefix):
    def hook(args, res):
        _count(prefix + ".returned", len(res))
    return hook


def _numer_terms_hook(args, res):
    _count("ratfunc.add.numer_terms", len(_coeffs(res.numer)))


def _wrap(fn, name, hook=None, probe=None):
    nid = _ids.get(name)
    if nid is None:
        nid = _ids[name] = len(names)
        names.append(name)

    def traced(*args, **kwargs):
        i = len(span_start)
        span_name.append(nid)
        span_parent.append(_stack[-1])
        span_end.append(0)
        _stack.append(i)
        state = probe() if probe else None
        span_start.append(_clock())
        try:
            res = fn(*args, **kwargs)
        finally:
            span_end[i] = _clock()
            _stack.pop()
        counts[name] = counts.get(name, 0) + 1
        if hook:
            hook(args, res)
        if probe:
            probe(state)
        return res

    return traced


def _cache_probe(engine):
    """Block-cache misses: growth of the engine's cache dicts over a lookup."""
    caches = [getattr(engine, n) for n in ("_BLOCK_FACTOR_CACHE", "_BLOCK_Q_CACHE")
              if isinstance(getattr(engine, n, None), dict)]

    def probe(state=None):
        """Called before a lookup (returns the cache size) and after it."""
        size = sum(len(c) for c in caches)
        if state is None:
            return size
        _count("counting.block_builds.calls", size - state)
        _count("engine.block_cache.lookups")
    return probe


# (module, Class.method, span name, count hook run after the span)
_METHODS = (
    ("laurent", "LaurentPoly.__mul__", "laurent.poly_mul", _product_hook("laurent.poly_mul")),
    ("laurent", "LaurentPoly.__add__", "laurent.poly_add", None),
    ("laurent", "LaurentPoly.__pow__", "laurent.poly_pow", None),
    ("laurent", "LaurentSeries.__mul__", "laurent.series_mul",
     _product_hook("laurent.series_mul")),
    ("laurent", "LaurentSeries.mul_poly", "laurent.series_mul_poly",
     _product_hook("laurent.series_mul_poly")),
    ("laurent", "LaurentSeries.__add__", "laurent.series_add", None),
    ("laurent", "LaurentSeries.inverse", "laurent.inverse", None),
    ("ratfunc", "FactoredRatFunc.__add__", "ratfunc.add", _numer_terms_hook),
    ("ratfunc", "FactoredRatFunc.__mul__", "ratfunc.mul", None),
    ("ratfunc", "FactoredRatFunc.__pow__", "ratfunc.pow", None),
    ("ratfunc", "FactoredRatFunc.expand", "ratfunc.expand", None),
    ("ratfunc", "FactoredRatFunc.to_laurent_poly", "ratfunc.to_laurent_poly", None),
    ("parabolic", "FlagPoint.__post_init__", "parabolic.flagpoint_init", None),
    ("parabolic", "Partition.__post_init__", "parabolic.partition_init", None),
    ("parabolic", "Partition.blocks", "parabolic.blocks", None),
    ("engine", "_Recursor.q_series", "engine.recursor_q_series", None),
    ("engine", "_Recursor._partition_term", "engine.recursor_partition_term", None),
)
_SPAN_NAMES = {"cmd_sweep": "sweep"}
_HOOKS = {
    "parabolic.partitions": _returned_hook("parabolic.partitions"),
    "parabolic.subdata": _returned_hook("parabolic.subdata"),
    "engine.hn_degree_tuples": _returned_hook("engine.hn_degree_tuples"),
}
_MODULES = ("laurent", "ratfunc", "parabolic", "counting", "engine", "cli", "result", "rank2")


def install():
    """Wrap every public function and the listed methods, in place."""
    mods = {m: importlib.import_module(f"parbetti.{m}") for m in _MODULES}
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "parbetti"]
    replaced = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{_SPAN_NAMES.get(attr, attr)}"
            replaced[id(fn)] = (fn, _wrap(fn, name, _HOOKS.get(name)))
    probe = _cache_probe(mods["engine"])
    for attr in ("_block_factor", "_block_q"):
        fn = getattr(mods["engine"], attr, None)
        if fn is not None:
            replaced[id(fn)] = (fn, _wrap(fn, "engine.block_lookup", probe=probe))
    for mod in holders:
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    for short, path, name, hook in _METHODS:
        owner_name, meth = path.split(".")
        owner = getattr(mods[short], owner_name, None)
        fn = owner.__dict__.get(meth) if owner is not None else None
        if fn is not None:
            setattr(owner, meth, _wrap(fn, name, hook))
    # run by multiprocessing when a worker process starts, after it has
    # cleared the finalizers inherited from the parent
    multiprocessing.util.register_after_fork(_state, _after_fork)


def _after_fork(_):
    _state["base"] = len(span_start)
    counts.clear()
    _state["max_bits"] = 0
    out = _state["out"]
    if out is not None:
        path = f"{out}.{os.getpid()}"
        multiprocessing.util.Finalize(None, dump, args=(path,), exitpriority=100)


def set_output(path):
    """Where ``dump`` goes at exit; forked workers append their pid."""
    _state["out"] = path


def dump(path):
    base = _state["base"]
    rec = {
        "pid": os.getpid(),
        "base": base,
        "names": names,
        "name": span_name[base:].tolist(),
        "parent": span_parent[base:].tolist(),
        "start": span_start[base:].tolist(),
        "end": span_end[base:].tolist(),
        "counts": counts,
        "max_bits": _state["max_bits"],
    }
    with open(path, "w") as fh:
        json.dump(rec, fh)


# -- summaries, computed in the benchmark process ----------------------------


def self_times(records):
    """Self time per span name over one invocation's processes, in ns.

    ``records[0]`` is the process the benchmark started; the others are its
    forked workers, whose spans may have parents in it.  A span's self time
    is its duration minus the part of it that its child spans cover: children
    in the same process run one after another, so their durations add; the
    covered part of children in other processes (which overlap one another)
    is their union.
    """
    covered = {}  # (record, absolute span index) -> ns covered by children
    remote = {}  # absolute span index in records[0] -> child intervals
    for r, rec in enumerate(records):
        base = rec["base"]
        for parent, start, end in zip(rec["parent"], rec["start"], rec["end"]):
            if parent >= base:
                covered[(r, parent)] = covered.get((r, parent), 0) + end - start
            elif parent >= 0:
                remote.setdefault(parent, []).append((start, end))
    for parent, spans in remote.items():
        spans.sort()
        total, reach = 0, None
        for start, end in spans:
            if reach is None or start > reach:
                total += end - start
                reach = end
            elif end > reach:
                total += end - reach
                reach = end
        covered[(0, parent)] = covered.get((0, parent), 0) + total
    out = {}
    for r, rec in enumerate(records):
        base, names_ = rec["base"], rec["names"]
        for k, (nid, start, end) in enumerate(zip(rec["name"], rec["start"], rec["end"])):
            name = names_[nid]
            own = end - start - covered.get((r, base + k), 0)
            out[name] = out.get(name, 0) + own
    return out


def accumulate(records, rec):
    """Add one invocation's spans and counts to a round record; returns the
    invocation's merged counts."""
    counts_ = {}
    for one in records:
        for k, v in one["counts"].items():
            counts_[k] = counts_.get(k, 0) + v
        rec["max_bits"] = max(rec["max_bits"], one["max_bits"])
        counts_["trace.spans"] = counts_.get("trace.spans", 0) + len(one["start"])
    for k, v in self_times(records).items():
        rec["self_ns"][k] = rec["self_ns"].get(k, 0) + v
    for k, v in counts_.items():
        rec["counts"][k] = rec["counts"].get(k, 0) + v
    return counts_


# (metric, unit, better): the per-layer metrics a traced run reports
LAYER_METRICS = (
    ("laurent.series_mul.calls", "count", "lower"),
    ("laurent.series_mul.self_s", "s", "lower"),
    ("laurent.series_mul.term_pairs", "count", "lower"),
    ("laurent.series_mul_poly.calls", "count", "lower"),
    ("laurent.series_mul_poly.self_s", "s", "lower"),
    ("laurent.inverse.self_s", "s", "lower"),
    ("laurent.poly_mul.calls", "count", "lower"),
    ("laurent.poly_mul.self_s", "s", "lower"),
    ("laurent.poly_mul.term_pairs", "count", "lower"),
    ("laurent.divide_exact.calls", "count", "lower"),
    ("laurent.divide_exact.self_s", "s", "lower"),
    ("laurent.max_coeff_bits", "bits", "lower"),
    ("laurent.self_s", "s", "lower"),
    ("ratfunc.add.calls", "count", "lower"),
    ("ratfunc.add.self_s", "s", "lower"),
    ("ratfunc.add.numer_terms", "count", "lower"),
    ("ratfunc.mul.self_s", "s", "lower"),
    ("ratfunc.expand.calls", "count", "lower"),
    ("ratfunc.expand.self_s", "s", "lower"),
    ("ratfunc.to_laurent_poly.calls", "count", "lower"),
    ("ratfunc.to_laurent_poly.self_s", "s", "lower"),
    ("ratfunc.self_s", "s", "lower"),
    ("parabolic.partitions.calls", "count", "lower"),
    ("parabolic.partitions.returned", "count", "lower"),
    ("parabolic.partitions.self_s", "s", "lower"),
    ("parabolic.flagpoint_init.calls", "count", "lower"),
    ("parabolic.flagpoint_init.self_s", "s", "lower"),
    ("parabolic.subdata.calls", "count", "lower"),
    ("parabolic.subdata.returned", "count", "lower"),
    ("parabolic.subdata.self_s", "s", "lower"),
    ("parabolic.self_s", "s", "lower"),
    ("counting.block_builds.calls", "count", "lower"),
    ("counting.self_s", "s", "lower"),
    ("engine.block_cache.lookups", "count", "lower"),
    ("engine.block_cache.hit_ratio", "ratio", "higher"),
    ("engine.hn_degree_tuples.calls", "count", "lower"),
    ("engine.hn_degree_tuples.returned", "count", "lower"),
    ("engine.hn_degree_tuples.self_s", "s", "lower"),
    ("engine.poincare_closed.calls", "count", "lower"),
    ("engine.poincare_closed.calls_per_invocation", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("cli.parse_document.self_s", "s", "lower"),
    ("cli.sweep.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("result.result_from_poly.self_s", "s", "lower"),
    ("rank2.poincare_rank2.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
)
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def layer_metrics(rec, invocations, wall):
    """The per-layer metrics of one traced round."""
    ns, c = rec["self_ns"], rec["counts"]
    out = {}
    for name, _, _ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if field == "self_s":
            if head in _MODULES:
                out[name] = sum(v for k, v in ns.items() if k.startswith(head + ".")) / 1e9
            else:
                out[name] = ns.get(head, 0) / 1e9
        elif field == "calls" and head != "counting.block_builds":
            out[name] = c.get(head, 0)
        else:
            out[name] = c.get(name, 0)
    lookups = c.get("engine.block_cache.lookups", 0)
    builds = c.get("counting.block_builds.calls", 0)
    out["engine.block_cache.hit_ratio"] = 1 - builds / lookups if lookups else 0.0
    out["engine.poincare_closed.calls_per_invocation"] = (
        c.get("engine.poincare_closed", 0) / invocations)
    out["laurent.max_coeff_bits"] = rec["max_bits"]
    out["trace.wall_s"] = wall
    return out

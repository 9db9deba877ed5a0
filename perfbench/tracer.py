"""Layer tracing from outside the library.

The tracer wraps public functions and methods of the ``quiverrep`` modules
(the layers) and times the calls into them.  Coarse boundaries become
spans (name, start, end, parent, item id), kept in memory and written out
at the end.  The elimination and row-space leaves run millions of times,
so they only add calls and time into per-name aggregates.  Every wrapped
call charges its duration to the frame that encloses it, so a self time
(duration minus the time its children cover) stays exact for spans and
leaves alike.

A function imported with ``from .x import y`` is bound in several
namespaces; ``patch_function`` replaces it in every loaded module that
holds it.  Methods are patched once, on their class.  ``restore`` puts
every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.child_time = [0.0]  # one accumulator per open frame; [0] is the root
        self.open_spans = [None]  # ids of the open spans; None at the root
        self.spans = []  # (id, name, start, end, parent id, item id, self time)
        self.aggs = {}  # name -> [calls, total seconds, self seconds]
        self.counts = defaultdict(float)  # counters read at the boundaries
        self.leaf_self = [0.0]  # self time of all leaf calls so far
        self.item = None
        self.item_leaf_self = {}  # item id -> self time of the leaf calls inside it
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def leaf(self, name, fn, hook=None):
        """Aggregate-only wrapper for a hot leaf."""
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0])
        child_time, clock, leaf_self = self.child_time, self.clock, self.leaf_self

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - child_time.pop()
                child_time[-1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                leaf_self[0] += own
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def span(self, name, fn, hook=None):
        """Wrapper that records one span per call."""
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open()
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, t0, agg)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def run_item(self, item_id, fn, *args):
        """Call fn(*args) as the root span of one item."""
        agg = self.aggs.setdefault("item", [0, 0.0, 0.0])
        self.item = item_id
        leaf_before = self.leaf_self[0]
        sid = self._open()
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self._close(sid, "item", t0, agg)
            self.item_leaf_self[item_id] = self.leaf_self[0] - leaf_before
            self.item = None

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self.child_time.append(0.0)
        self.open_spans.append(sid)
        return sid

    def _close(self, sid, name, t0, agg):
        t1 = self.clock()
        dur = t1 - t0
        own = dur - self.child_time.pop()
        self.child_time[-1] += dur
        self.open_spans.pop()
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        self.spans.append((sid, name, t0, t1, self.open_spans[-1], self.item, own))

    # -- patching --------------------------------------------------------

    def _wrap(self, kind, name, fn, hook):
        if kind == "span":
            return self.span(name, fn, hook)
        if kind == "leaf":
            return self.leaf(name, fn, hook)

        def hook_only(*args, **kwargs):  # untimed; just reads state after the call
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return hook_only

    def patch_function(self, module, attr, name, kind="span", hook=None):
        """Wrap module.attr in every loaded module that holds the same object."""
        original = getattr(module, attr)
        wrapper = self._wrap(kind, name, original, hook)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, kind="span", hook=None):
        original = cls.__dict__[attr]
        wrapper = self._wrap(kind, name, original, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """A copy of the aggregates and counters as they stand."""
        return {k: list(v) for k, v in self.aggs.items()}, dict(self.counts)

    def since(self, snapshot):
        """The aggregates and counters added after `snapshot` was taken."""
        aggs, counts = snapshot
        zero = [0, 0.0, 0.0]
        delta_aggs = {k: [a - b for a, b in zip(v, aggs.get(k, zero))] for k, v in self.aggs.items()}
        delta_counts = {k: v - counts.get(k, 0) for k, v in self.counts.items()}
        return delta_aggs, delta_counts

    def item_accounts(self):
        """Per item: (wall, sum of the self times of every span and leaf call
        inside it).  Exact charging makes the two equal up to rounding."""
        out = {}
        for sid, name, t0, t1, parent, item, own in self.spans:
            acc = out.setdefault(item, [0.0, 0.0])
            acc[1] += own
            if name == "item":
                acc[0] = t1 - t0
        for item, leaf in self.item_leaf_self.items():
            out[item][1] += leaf
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\tself\n")
            for sid, name, t0, t1, parent, item, own in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{item}\t{own:.9f}\n")


def install(tracer: Tracer):
    """Patch every layer boundary the benchmark measures.

    nc2's socle-rank closure calls the private ``exactlin._rref_mod_p``
    directly; that function is deliberately not patched, so those
    eliminations count as ``criteria.check_nc2`` self time.
    """
    from quiverrep import cli, criteria, dynkin, exactlin, gflin, grassmannian, quiver, rep, stable

    counts = tracer.counts

    def on_rref(args, kwargs, result):
        m = args[0]
        entries = m.nrows * m.ncols
        counts["exactlin.rref.entries"] += entries
        if entries <= 16:
            counts["exactlin.rref.calls_small"] += 1
        if m.field.is_rationals:
            counts["exactlin.rref.calls_q"] += 1
        elif not m.field.is_prime_field:
            counts["exactlin.rref.calls_ext"] += 1

    def on_search_done(args, kwargs, result):
        # _dfs runs right after the oracle resets _visits, so the counter is
        # never stale here; after nonempty() or count() it is when they
        # return early without searching.
        oracle, early_exit = args[0], kwargs.get("early_exit", args[3] if len(args) > 3 else True)
        counts["grassmannian.visits"] += oracle._visits
        if not early_exit:
            counts["grassmannian.exhaustive_visits"] += oracle._visits

    def on_oracle_count(args, kwargs, result):
        counts["grassmannian.count.subreps"] += result

    def on_nc2(args, kwargs, result):
        counts["criteria.nc2.classes"] += result.context.get("checked", 0)

    def on_search(args, kwargs, result):
        counts["stable.search.trials_used"] += result.trials_used
        counts["stable.search.found"] += 1 if result.found else 0

    tracer.patch_method(exactlin.Matrix, "rref", "exactlin.rref", "leaf", on_rref)
    tracer.patch_method(exactlin.Matrix, "__matmul__", "exactlin.matmul", "leaf")
    for attr in ("rref_rows", "matmul_rows", "preimage_rows"):
        tracer.patch_function(gflin, attr, f"gflin.{attr}", "leaf")
    tracer.patch_function(quiver, "euler_form", "quiver.euler_form", "leaf")
    tracer.patch_method(grassmannian.SubrepOracle, "_dfs", "grassmannian.search", "hook", on_search_done)
    tracer.patch_method(grassmannian.SubrepOracle, "nonempty", "grassmannian.nonempty")
    tracer.patch_method(grassmannian.SubrepOracle, "count", "grassmannian.count", hook=on_oracle_count)
    tracer.patch_function(grassmannian, "counting_poly", "grassmannian.counting_poly")
    tracer.patch_function(rep, "hom_dim", "rep.hom_dim")
    tracer.patch_function(rep, "hom_basis", "rep.hom_basis")
    tracer.patch_function(dynkin, "positive_roots", "dynkin.positive_roots")
    tracer.patch_function(dynkin, "build_table", "dynkin.build_table")
    tracer.patch_function(dynkin, "decompose", "dynkin.decompose")
    tracer.patch_method(criteria.GrassmannianChecker, "__init__", "criteria.checker_init")
    tracer.patch_method(criteria.GrassmannianChecker, "nonempty", "criteria.nonempty")
    tracer.patch_method(criteria.GrassmannianChecker, "irreducible", "criteria.irreducible")
    tracer.patch_function(criteria, "check_nc2", "criteria.check_nc2", hook=on_nc2)
    tracer.patch_function(criteria, "an_criterion", "criteria.an_criterion")
    tracer.patch_function(stable, "search_stable_embedding", "stable.search", hook=on_search)
    tracer.patch_function(stable, "generic_hom", "stable.generic_hom")
    tracer.patch_function(cli, "main", "cli.main")

"""Per-layer tracing by wrapping geadim's public functions from outside.

Every name a call can be resolved through is replaced: module attributes,
names bound by ``from ... import`` in other modules (``theorems`` binds
``exocenter`` and ``brute_force_exomaps`` at import), aliases inside
``_kernels`` and the property functions held in ``theorems.REGISTRY``.
Each call records a span (name, start, end, parent) in memory; a layer's
self time is its spans' duration minus the time of their child spans.
Generator functions get one span per resumption, so the consumer's work
between items is not charged to them.
"""

import dataclasses
import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

# module -> public functions timed as spans
TARGETS = {
    "_kernels": ["enumerate_tables", "is_min_relabel", "min_relabel",
                 "sk_witnesses", "brute_exomaps", "axiom_violation"],
    "core": ["is_canonical_table", "canonical_form", "structure_predicates"],
    "exocenter": ["exocenter", "brute_force_exomaps", "center"],
    "hull": ["enumerate_hull_systems"],
    "congruence": ["check_sk", "sigma_sim", "check_der", "induced_hull"],
    "dimension": ["decompose_types"],
    "catalog": ["build_entry", "enumerate_relations", "write_catalog"],
    "theorems": ["run_theorem_suite"],
    "cli": ["run_command"],
}


def span_name(module, fn):
    # metric names may not start with "_"
    return f"{module.lstrip('_')}.{fn}"


# span name -> counter updated from (counts, args, result); for generators
# the result is each yielded item
COUNTERS = {
    "kernels.enumerate_tables":
        lambda c, a, r: c.update({"kernels.enumerate_tables.tables": len(r)}),
    "core.is_canonical_table":
        lambda c, a, r: c.update({"core.is_canonical_table.kept": int(bool(r))}),
    "congruence.check_sk":
        lambda c, a, r: c.update({"congruence.check_sk.pass": int(bool(r.sk))}),
    "catalog.enumerate_relations":
        lambda c, a, r: c.update({"catalog.enumerate_relations.partitions": 1}),
    "catalog.write_catalog":
        lambda c, a, r: c.update({"catalog.write_catalog.bytes": os.path.getsize(a[0])}),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name per span
        self.spans = []  # [name index, start, end, parent span or -1]
        self.calls = Counter()
        self.counts = Counter()
        self.bindings = {}  # span name -> names rebound
        self.excluded = Counter()  # span -> seconds of reference pieces in it
        self._name_ids = {}
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name_id):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def exclude(self, seconds):
        """Charge ``seconds`` of benchmark work to no span.  Called from a
        signal handler, so it only reads the stack."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        count = COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    if count:
                        count(self.counts, args, item)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.calls[name] += 1
                idx = self._enter(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(idx)
                if count:
                    count(self.counts, args, result)
                return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every name that refers to a target function."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "geadim" or k.startswith("geadim."))
        ]
        for module, fns in TARGETS.items():
            mod = sys.modules[f"geadim.{module}"]
            for fn in fns:
                orig = getattr(mod, fn)
                name = span_name(module, fn)
                wrapped = self._wrap(name, orig)
                bound = []
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapped)
                            bound.append(f"{m.__name__}.{attr}")
                self.bindings[name] = sorted(bound)
        registry = sys.modules["geadim.theorems"].REGISTRY
        for prop_name, prop in list(registry.items()):
            name = f"theorems.prop.{prop_name}"
            registry[prop_name] = dataclasses.replace(
                prop, fn=self._wrap(name, prop.fn)
            )
            self._saved.append((registry, prop_name, prop))
            self.bindings[name] = [f"geadim.theorems.REGISTRY[{prop_name!r}]"]

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Span name -> total self seconds."""
        own = [end - start for _, start, end, _ in self.spans]
        for idx, seconds in self.excluded.items():
            own[idx] -= seconds
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = Counter()
        for (name_id, _, _, _), t in zip(self.spans, own):
            out[self.names[name_id]] += t
        return out

    def durations(self, name):
        """Inclusive seconds of every call to ``name`` (not for generators)."""
        name_id = self._name_ids.get(name)
        return [end - start for nid, start, end, _ in self.spans if nid == name_id]

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**extra, "names": self.names, "bindings": self.bindings,
                 "spans": self.spans},
                fh, separators=(",", ":"),
            )

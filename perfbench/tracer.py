"""Per-layer timing of dipl from outside the program.

`Tracer.install()` replaces the public functions and methods listed in
`LAYERS` with timing wrappers and `uninstall()` puts the originals back.
A module-level function is replaced in every dipl module that holds it,
because `agents`, `where_learning`, `harness` and `cli` import functions
such as `evaluate`, `match_or_create`, the featurizers and `run_training`
by name.  Each call becomes one span (layer, start, end, parent span),
kept in flat arrays in memory and written out when the run ends.

Small accessors (`TutorState.value`, `Composition.render`, ...) are not
wrapped: they take well under a microsecond and run millions of times,
so a wrapper would cost more than the work it times.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# layer name -> the functions and methods it covers, as "module:qualname".
# A layer with several targets (env.step: McAdditionEnv.step calls
# TutorEnvironment.step through super()) counts only its outermost calls.
LAYERS = {
    "harness.run_training": ["harness:run_training"],
    "harness.run_ablation": ["harness:run_ablation"],
    "harness.make_env": ["harness:make_env"],
    "harness.make_agent": ["harness:make_agent"],
    "harness.write_csv": ["harness:write_csv"],
    "harness.mastery_intercept": ["harness:mastery_intercept"],
    "agents.act": ["agents:DiplAgent.act", "agents:HowLhsAgent.act", "agents:DtDemosAgent.act"],
    "agents.learn": ["agents:DiplAgent.learn", "agents:HowLhsAgent.learn", "agents:DtDemosAgent.learn"],
    "agents.start_problem": [
        "agents:DiplAgent.start_problem",
        "agents:HowLhsAgent.start_problem",
        "agents:DtDemosAgent.start_problem",
    ],
    "agents.on_slots": ["agents:OneHotSchema.on_slots"],
    "agents.schema": ["agents:fractions_schema", "agents:mc_addition_schema"],
    "how_learning.set_chaining": ["how_learning:set_chaining"],
    "how_learning.select_parsimonious": ["how_learning:select_parsimonious"],
    "how_learning.variablize": ["how_learning:variablize"],
    "how_learning.evaluate": ["how_learning:evaluate"],
    "where_learning.record": ["where_learning:WherePart.record"],
    "where_learning.candidates": ["where_learning:WherePart.candidates"],
    "where_learning.match_or_create": ["where_learning:match_or_create"],
    "when_learning.adjacency_graph": ["when_learning:adjacency_graph"],
    "when_learning.shortest_paths": ["when_learning:shortest_paths"],
    "when_learning.relative_featurize": ["when_learning:relative_featurize"],
    "when_learning.absolute_featurize": ["when_learning:absolute_featurize"],
    "when_learning.add": ["when_learning:WhenPart.add"],
    "when_learning.predict": ["when_learning:WhenPart.predict"],
    "classifiers.encoder_add": ["classifiers:Encoder.add"],
    "classifiers.fit_encoded": ["classifiers:fit_encoded"],
    "classifiers.dt_fit_binary": ["classifiers:dt_fit_binary"],
    "classifiers.predict": ["classifiers:DecisionTree.predict"],
    "env.new_problem": [
        "env_fractions:FractionsEnv.new_problem",
        "env_mc_addition:McAdditionEnv.new_problem",
    ],
    "env.step": ["core:TutorEnvironment.step", "env_mc_addition:McAdditionEnv.step"],
    "env.request_demo": ["core:TutorEnvironment.request_demo"],
    "env.action_space": [
        "env_fractions:fractions_action_space",
        "env_mc_addition:mc_action_space",
    ],
}

PACKAGE = "dipl"
MODULES = (
    "core", "env_fractions", "env_mc_addition", "classifiers", "how_learning",
    "where_learning", "when_learning", "agents", "harness", "cli",
)


class Tracer:
    """Span recorder; also counts a few outcomes where the work happens."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts = {
            "fit_rows": 0, "binary_rows": 0, "bindings": 0, "fired": 0,
            "explained": 0, "rewarded": 0,
        }
        # (tree, encoder or CSR matrix, labels, rows at fit time) per fit
        self.fits: list[tuple] = []
        self._undo: list[tuple] = []
        self._observers = {
            "classifiers.fit_encoded": self._on_fit_encoded,
            "classifiers.dt_fit_binary": self._on_dt_fit_binary,
            "where_learning.candidates": self._on_candidates,
            "when_learning.predict": self._on_predict,
            "where_learning.match_or_create": self._on_match,
            "env.step": self._on_step,
        }

    # -- observers: called once per outermost call of their layer ---------
    def _on_fit_encoded(self, args, result):
        enc = args[0]
        self.counts["fit_rows"] += len(enc.rows)
        self.fits.append((result, enc, enc.labels, len(enc.rows)))

    def _on_dt_fit_binary(self, args, result):
        X, labels, names = args
        self.counts["binary_rows"] += X.shape[0]
        self.fits.append((result, (X, names), labels, X.shape[0]))

    def _on_candidates(self, args, result):
        self.counts["bindings"] += len(result)

    def _on_predict(self, args, result):
        self.counts["fired"] += bool(result[0])

    def _on_match(self, args, result):
        self.counts["explained"] += not result[2]

    def _on_step(self, args, result):
        self.counts["rewarded"] += result[0] > 0

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, layer: str, fn):
        lid = self.layer_id[layer]
        observe = self._observers.get(layer)
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_end)
            parent = stack[-1] if stack else -1
            outermost = parent < 0 or span_layer[parent] != lid
            span_layer.append(lid)
            span_parent.append(parent)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                span_start[i] = start
                stack.pop()
            if observe is not None and outermost:
                observe(args, result)
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, qualname = target.split(":")
                owner = modules[mod_name]
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self._wrapper(layer, original)
                if cls_path:
                    self._replace(owner, attr, wrapped)
                    continue
                # a module function: replace it wherever it was imported
                for mod in modules.values():
                    if mod.__dict__.get(attr) is original:
                        self._replace(mod, attr, wrapped)

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def _arrays(self):
        return (
            np.frombuffer(self.span_layer, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: outermost calls, their total time, and self time
        (span time minus the time of the spans it called)."""
        layer, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        nl = len(self.layers)
        calls = np.bincount(layer[outer], minlength=nl)
        total = np.bincount(layer[outer], weights=dur[outer], minlength=nl)
        selfs = np.bincount(layer, weights=self_time, minlength=nl)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(self.layers)
        }

    @property
    def n_spans(self) -> int:
        return len(self.span_end)

    def save(self, path):
        layer, parent, start, end = self._arrays()
        np.savez(
            path,
            layer=layer,
            parent=parent,
            start=start,
            end=end,
            layer_names=np.array(self.layers),
        )

"""The three ablation agents behind one contract.

* DiplAgent      - how + where + when learning, per-skill classifiers,
                   relative (default) or absolute featurization.
* HowLhsAgent    - how-learning plus a single multiclass decision tree
                   that predicts (skill, selection, args) from absolute
                   state features.
* DtDemosAgent   - one decision tree over a one-hot state encoding that
                   predicts an action id from a fixed enumerated space.

`act(state)` returns a Proposal or DEMO_REQUEST; `learn(event)` consumes
AttemptResult / DemoReceived events from the harness.

The two symbolic agents keep their skills in `self.skills`, which only
`where_learning.match_or_create` appends to; it also records each demo's
binding.  DiplAgent gives every new skill its own WhenPart; HowLhsAgent's
skills have none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifiers, when_learning
from .core import BUTTON, Demo, SAI, TutorState
from .when_learning import (
    NEGATIVE,
    POSITIVE,
    WhenPart,
    absolute_featurize,
    adjacency_graph,
    relative_featurize,
    shortest_paths,
)
from .where_learning import Binding, Skill, match_or_create


class DemoRequest:
    def __repr__(self):
        return "DemoRequest"


DEMO_REQUEST = DemoRequest()


@dataclass
class Proposal:
    sai: SAI
    skill: Skill | None = None
    binding: Binding | None = None
    fv: classifiers.FeatureVector | None = None


@dataclass
class AttemptResult:
    state: TutorState
    sai: SAI
    reward: int
    skill: Skill | None = None
    binding: Binding | None = None
    fv: classifiers.FeatureVector | None = None


@dataclass
class DemoReceived:
    state: TutorState
    demo: Demo


class DiplAgent:
    """3-mechanism learner: how / where / when."""

    def __init__(
        self,
        funcs,
        feature_funcs,
        relative: bool = True,
        implicit_negatives: bool = True,
    ):
        self.funcs = funcs
        self.feature_funcs = feature_funcs
        self.relative = relative
        self.implicit_negatives = implicit_negatives
        self.skills: list[Skill] = []
        self._rejected: set[tuple[int, Binding]] = set()
        self._nav = None
        self._path_cache: dict[tuple, dict] = {}
        self._abs_fv = None

    # -- featurization with path caching (layouts are static per domain) --
    def _featurize(self, state: TutorState, binding: Binding):
        if not self.relative:
            if self._abs_fv is None:
                self._abs_fv = absolute_featurize(state, self.feature_funcs)
            return self._abs_fv
        if self._nav is None:
            self._nav = adjacency_graph(state)
        key = (binding.selection, binding.args)
        paths = self._path_cache.get(key)
        if paths is None:
            sources = [("Sel", binding.selection)] + [
                (f"Arg{i}", eid) for i, eid in enumerate(binding.args)
            ]
            paths = shortest_paths(self._nav, sources, when_learning.MAX_PATH_STEPS)
            self._path_cache[key] = paths
        return relative_featurize(
            state, binding.selection, binding.args, self.feature_funcs, paths=paths
        )

    def start_problem(self):
        self._rejected.clear()

    def _candidates(self, state: TutorState, skip_rejected: bool):
        """All firing, evaluable (skill, binding) pairs with their SAIs."""
        self._abs_fv = None
        out = []
        for skill in self.skills:
            for idx, binding in enumerate(skill.where.candidates(state)):
                if skip_rejected and (skill.sid, binding) in self._rejected:
                    continue
                fv = self._featurize(state, binding)
                fire, conf = skill.when.predict(fv)
                if not fire:
                    continue
                sai = skill.sai(binding, state, self.funcs)
                if sai is None:
                    continue
                out.append((conf, skill, idx, binding, sai, fv))
        return out

    def act(self, state: TutorState):
        cands = self._candidates(state, skip_rejected=True)
        if not cands:
            return DEMO_REQUEST
        conf, skill, _, binding, sai, fv = min(
            cands, key=lambda t: (-t[0], t[1].sid, t[2])
        )
        return Proposal(sai, skill, binding, fv)

    def learn(self, event):
        if isinstance(event, AttemptResult):
            label = POSITIVE if event.reward > 0 else NEGATIVE
            event.skill.when.add(event.fv, label)
            if event.reward > 0:
                self._rejected.clear()
            else:
                self._rejected.add((event.skill.sid, event.binding))
            return

        # DemoReceived
        state, demo = event.state, event.demo
        self._abs_fv = None
        if self.implicit_negatives:
            for _, skill, _, binding, sai, fv in self._candidates(
                state, skip_rejected=False
            ):
                if sai != demo.sai:
                    skill.when.add(fv, NEGATIVE)
        skill, binding, created = match_or_create(demo, state, self.skills, self.funcs)
        if created:
            skill.when = WhenPart()
        skill.when.add(self._featurize(state, binding), POSITIVE)
        self._rejected.clear()


def _class_label(skill: Skill, binding: Binding) -> str:
    return f"{skill.sid}|{binding.selection}|{','.join(binding.args)}"


class HowLhsAgent:
    """2-mechanism learner: how-learning plus one global LHS classifier.

    The multiclass tree maps absolute state features to the (skill,
    selection, args) tuple of the correct next action.  It has no negative
    channel; incorrect predictions only trigger a demo on the next act.
    """

    def __init__(self, funcs, feature_funcs, retrain_every: int = 1):
        self.funcs = funcs
        self.feature_funcs = feature_funcs
        if retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        self.retrain_every = retrain_every
        self.skills: list[Skill] = []
        self._by_label: dict[str, tuple[Skill, Binding]] = {}
        self.encoder = classifiers.Encoder()
        self.tree: classifiers.DecisionTree | None = None
        self._need_demo = False

    def start_problem(self):
        self._need_demo = False

    def _refit(self):
        # fit on the first example, then on every retrain_every-th
        if (len(self.encoder.rows) - 1) % self.retrain_every == 0:
            self.tree = classifiers.fit_encoded(self.encoder)

    def act(self, state: TutorState):
        if self._need_demo or self.tree is None:
            self._need_demo = False
            return DEMO_REQUEST
        fv = absolute_featurize(state, self.feature_funcs)
        label, _ = self.tree.predict(fv)
        skill, binding = self._by_label[label]
        sai = skill.sai(binding, state, self.funcs)
        if sai is None:
            return DEMO_REQUEST
        return Proposal(sai, skill, binding, fv)

    def learn(self, event):
        if isinstance(event, AttemptResult):
            if event.reward > 0:
                label = _class_label(event.skill, event.binding)
                self.encoder.add(event.fv, label)
                self._refit()
            else:
                self._need_demo = True
            return
        state, demo = event.state, event.demo
        skill, binding, _ = match_or_create(demo, state, self.skills, self.funcs)
        label = _class_label(skill, binding)
        self._by_label[label] = (skill, binding)
        self.encoder.add(absolute_featurize(state, self.feature_funcs), label)
        self._refit()


@dataclass
class OneHotSchema:
    """Bijection between (element id, attribute, value) triples and slots."""

    triples: list[tuple[str, str, str]]
    size: int

    def __post_init__(self):
        if len(self.triples) > self.size:
            raise ValueError("schema larger than declared size")
        self.index = {t: i for i, t in enumerate(self.triples)}
        if len(self.index) != len(self.triples):
            raise ValueError("duplicate schema triple")
        self.feature_names = [f"slot{i:04d}|{'|'.join(t)}" for i, t in enumerate(self.triples)]
        self.feature_names += [
            f"slot{i:04d}|pad" for i in range(len(self.triples), self.size)
        ]

    def on_slots(self, state: TutorState) -> list[int]:
        slots = []
        for e in state.elements:
            if e.elem_type != BUTTON:
                if not (e.id, "filled", "1") in self.index:
                    raise KeyError(f"element not in schema: {e.id}")
                if e.value != "":
                    slots.append(self.index[(e.id, "value", e.value)])
                    slots.append(self.index[(e.id, "filled", "1")])
        if state.done_pressed:
            slots.append(self.index[("done", "pressed", "1")])
        return sorted(slots)


def one_hot_encode(state: TutorState, schema: OneHotSchema) -> list[int]:
    vec = [0] * schema.size
    for i in schema.on_slots(state):
        vec[i] = 1
    return vec


def fractions_schema() -> OneHotSchema:
    triples = []
    for eid in ("n1", "d1", "n2", "d2"):
        triples += [(eid, "value", str(v)) for v in range(2, 11)]
        triples.append((eid, "filled", "1"))
    triples += [("op", "value", "+"), ("op", "value", "*"), ("op", "filled", "1")]
    triples += [("check_convert", "value", "x"), ("check_convert", "filled", "1")]
    for eid in (
        "conv_num1",
        "conv_den1",
        "conv_num2",
        "conv_den2",
        "answer_num",
        "answer_den",
    ):
        # operands are capped at 10: products stay within 1..100, and the
        # numerator sum of converted fractions can reach 200
        hi = 201 if eid == "answer_num" else 101
        triples += [(eid, "value", str(v)) for v in range(1, hi)]
        triples.append((eid, "filled", "1"))
    triples.append(("done", "pressed", "1"))
    return OneHotSchema(triples, 2000)


def mc_addition_schema() -> OneHotSchema:
    triples = []
    for eid in ("a_hund", "a_tens", "a_ones", "b_hund", "b_tens", "b_ones"):
        triples += [(eid, "value", str(v)) for v in range(10)]
        triples.append((eid, "filled", "1"))
    for eid in (
        "carry_tens",
        "carry_hund",
        "carry_thou",
        "answer_ones",
        "answer_tens",
        "answer_hund",
        "answer_thou",
    ):
        triples += [(eid, "value", str(v)) for v in range(10)]
        triples.append((eid, "filled", "1"))
    triples.append(("done", "pressed", "1"))
    return OneHotSchema(triples, 240)


class DtDemosAgent:
    """1-mechanism baseline: one tree from one-hot states to action ids.

    Trains only on demos, which the tutor supplies after each incorrect
    attempt ("+Demos" modality).
    """

    def __init__(self, action_space: list[SAI], schema: OneHotSchema, retrain_every: int = 1):
        self.actions = action_space
        self.action_index = {sai: i for i, sai in enumerate(action_space)}
        self.schema = schema
        if retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        self.retrain_every = retrain_every
        self.rows: list[list[int]] = []
        self.labels: list[str] = []
        self.tree: classifiers.DecisionTree | None = None
        self._need_demo = False
        self._slot_of = {name: i for i, name in enumerate(schema.feature_names)}

    def start_problem(self):
        self._need_demo = False

    def act(self, state: TutorState):
        if self._need_demo:
            self._need_demo = False
            return DEMO_REQUEST
        on = self.schema.on_slots(state)
        if self.tree is None:
            return Proposal(self.actions[0])  # cold start: arbitrary but fixed
        on_set = set(on)
        node = self.tree.root
        while not node.is_leaf:
            value = "1" if self._slot_of[node.feature] in on_set else "0"
            child = node.children.get(value)
            if child is None:
                break
            node = child
        return Proposal(self.actions[int(node.label)])

    def _refit(self):
        # fit on the first example, then on every retrain_every-th
        if (len(self.rows) - 1) % self.retrain_every:
            return
        import scipy.sparse as sp

        indptr = [0]
        indices = []
        for row in self.rows:
            indices.extend(row)
            indptr.append(len(indices))
        X = sp.csr_matrix(
            (np.ones(len(indices), dtype=np.int8), indices, indptr),
            shape=(len(self.rows), self.schema.size),
        )
        self.tree = classifiers.dt_fit_binary(X, self.labels, self.schema.feature_names)

    def learn(self, event):
        if isinstance(event, AttemptResult):
            if event.reward < 0:
                self._need_demo = True
            return
        state, demo = event.state, event.demo
        self.rows.append(self.schema.on_slots(state))
        self.labels.append(str(self.action_index[demo.sai]))
        self._refit()

"""Where-learning, binding memory and the skill registry.

A skill is one how-part, one where-part and one when-part.  This module
is the only place skills are created: `match_or_create` explains a demo
with an existing skill (some binding of its how-part reproduces the
demonstrated input) or founds a new one via set chaining, appends it to
the agent's skill list, and records the demo's binding in the skill's
where-part.  The caller attaches a when-part if it uses one.

The evaluated where-part is deliberately simple: it only recalls
(selection, args) tuples seen in past worked examples.  Spatial
generalization is carried by when-learning's relative features, not here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import BUTTON, Demo, PRESS_BUTTON, SAI, TutorState, UPDATE_FIELD
from .how_learning import (
    Composition,
    constant_howpart,
    evaluate,
    select_parsimonious,
    set_chaining,
    variablize,
)

if TYPE_CHECKING:
    from .when_learning import WhenPart


@dataclass(frozen=True)
class Binding:
    selection: str
    args: tuple[str, ...] = ()

    def render(self) -> str:
        return f"({self.selection} | {', '.join(self.args)})"


class WherePart:
    def __init__(self, arity: int):
        self.arity = arity
        self.bindings: list[Binding] = []
        self._seen: set[Binding] = set()

    def record(self, binding: Binding):
        if len(binding.args) != self.arity:
            raise ValueError("binding arity mismatch")
        if binding not in self._seen:
            self._seen.add(binding)
            self.bindings.append(binding)

    def candidates(self, state: TutorState) -> list[Binding]:
        """Recorded bindings still applicable: selection editable, args present."""
        out = []
        for b in self.bindings:
            if not state.has_element(b.selection):
                continue
            sel = state.element(b.selection)
            if sel.locked and sel.elem_type != BUTTON:
                continue
            if all(state.has_element(a) for a in b.args):
                out.append(b)
        return out


@dataclass
class Skill:
    sid: int
    action: str  # UpdateField or PressButton
    how: Composition | None  # None for button skills
    arity: int
    where: WherePart
    when: WhenPart | None = None  # None for HowLhsAgent, whose one tree decides

    def sai(self, binding: Binding, state: TutorState, funcs) -> SAI | None:
        """The action at `binding`, or None when the how-part is inapplicable."""
        if self.action == PRESS_BUTTON:
            return SAI(binding.selection, PRESS_BUTTON, "")
        value = evaluate(self.how, binding.args, state, funcs)
        if value is None:
            return None
        return SAI(binding.selection, self.action, value)


def _offset_pattern(state: TutorState, binding: Binding):
    """Multiset of arg (type, row/col offset from selection); used for the
    structure-similarity score.  None when the state lacks one of the
    binding's elements, so such a binding matches no pattern."""
    try:
        sel = state.element(binding.selection)
        items = []
        for a in binding.args:
            e = state.element(a)
            items.append((e.elem_type, e.row - sel.row, e.col - sel.col))
    except KeyError:
        return None
    return Counter(items)


def match_or_create(demo: Demo, state: TutorState, skills: list[Skill], funcs):
    """Explain a demo with an existing skill, else induce and append a new
    one; record the demo's binding in the skill's where-part.

    Returns (skill, binding, created).
    """
    skill, binding, created = _explain(demo, state, skills, funcs)
    skill.where.record(binding)
    return skill, binding, created


def _new_skill(skills: list[Skill], action: str, how, arity: int) -> Skill:
    skill = Skill(len(skills), action, how, arity, WherePart(arity))
    skills.append(skill)
    return skill


def _explain(demo: Demo, state: TutorState, skills: list[Skill], funcs):
    sai = demo.sai

    if sai.action == PRESS_BUTTON:
        binding = Binding(sai.selection)
        for skill in skills:
            if skill.action == PRESS_BUTTON:
                return skill, binding, False
        return _new_skill(skills, PRESS_BUTTON, None, 0), binding, True

    if demo.arg_annotations:
        pool = list(demo.arg_annotations)
    else:
        pool = [
            e.id
            for e in state.elements
            if e.value != "" and e.elem_type != BUTTON and e.id != sai.selection
        ]

    # Annotations list the arguments of the true composition, so a match
    # must account for all of them; unannotated demos allow any subset.
    annotated = bool(demo.arg_annotations)

    scored = []
    seq = 0
    for skill in skills:
        if skill.action != UPDATE_FIELD or skill.how is None:
            continue
        if annotated and skill.arity != len(pool):
            continue
        for args in itertools.permutations(pool, skill.arity):
            if evaluate(skill.how, args, state, funcs) != sai.input:
                continue
            binding = Binding(sai.selection, tuple(args))
            score = 0
            if binding in skill.where._seen:
                score += 2
            else:
                pattern = _offset_pattern(state, binding)
                if any(
                    _offset_pattern(state, b) == pattern for b in skill.where.bindings
                ):
                    score += 1
            scored.append((-score, skill.sid, seq, skill, binding))
            seq += 1
    if scored:
        _, _, _, skill, binding = min(scored, key=lambda t: t[:3])
        return skill, binding, False

    leaves = [(eid, state.value(eid)) for eid in pool]
    comps = set_chaining(sai.input, leaves, funcs) if leaves else None
    if comps and annotated:
        # the annotation is the true composition's argument list, so
        # explanations that ignore an annotated argument are spurious
        full = [c for c in comps if set(c.leaf_refs()) == set(pool)]
        if full:
            comps = full
    if comps:
        howpart, arg_order = variablize(select_parsimonious(comps))
    else:
        howpart, arg_order = constant_howpart(sai.input), []
    rendered = howpart.render()
    for skill in skills:
        if (
            skill.action == UPDATE_FIELD
            and skill.how is not None
            and skill.arity == len(arg_order)
            and skill.how.render() == rendered
        ):
            return skill, Binding(sai.selection, tuple(arg_order)), False
    skill = _new_skill(skills, UPDATE_FIELD, howpart, len(arg_order))
    return skill, Binding(sai.selection, tuple(arg_order)), True

"""Where-learning: binding memory, candidate filtering, demo explanation."""

import pytest

from dipl.core import (
    BUTTON,
    Demo,
    InterfaceElement,
    PRESS_BUTTON,
    SAI,
    TEXT_FIELD,
    TutorState,
    UPDATE_FIELD,
)
from dipl.how_learning import FRACTIONS_FUNCS, MC_ADDITION_FUNCS
from dipl.where_learning import Binding, WherePart, match_or_create


def _state(values, locked=(), rows=None):
    elems = []
    for i, (eid, v) in enumerate(values.items()):
        row, col = (rows or {}).get(eid, (0, i))
        elems.append(InterfaceElement(eid, TEXT_FIELD, v, eid in locked, row, col))
    elems.append(InterfaceElement("done", BUTTON, "", False, 9, 9))
    return TutorState(elems, [])


class _Skill:
    def __init__(self, sid, action, how, arity):
        self.sid = sid
        self.action = action
        self.how = how
        self.arity = arity
        self.where = WherePart(arity)


def _factory(skills):
    def make(action, how, arity):
        s = _Skill(len(skills), action, how, arity)
        skills.append(s)
        return s

    return make


# ---------------------------------------------------------------------------
# WherePart
# ---------------------------------------------------------------------------


def test_record_dedupes_and_preserves_order():
    wp = WherePart(2)
    b1 = Binding("ans", ("a", "b"))
    b2 = Binding("ans", ("b", "a"))
    wp.record(b1)
    wp.record(b2)
    wp.record(b1)
    assert wp.bindings == [b1, b2]


def test_record_arity_mismatch_raises():
    wp = WherePart(2)
    with pytest.raises(ValueError):
        wp.record(Binding("ans", ("a",)))


def test_candidates_filter_locked_selection():
    wp = WherePart(1)
    wp.record(Binding("ans", ("a",)))
    open_state = _state({"a": "3", "ans": ""})
    locked_state = _state({"a": "3", "ans": "7"}, locked={"ans"})
    assert wp.candidates(open_state) == [Binding("ans", ("a",))]
    assert wp.candidates(locked_state) == []


def test_candidates_require_arg_elements_present():
    wp = WherePart(1)
    wp.record(Binding("ans", ("ghost",)))
    assert wp.candidates(_state({"a": "3", "ans": ""})) == []


# ---------------------------------------------------------------------------
# match_or_create
# ---------------------------------------------------------------------------


def _demo(selection, value, annotations=None):
    return Demo(SAI(selection, UPDATE_FIELD, value), annotations)


def test_button_demo_reuses_single_button_skill():
    skills = []
    state = _state({"a": "1"})
    demo = Demo(SAI("done", PRESS_BUTTON, ""), None)
    s1, b1, created1 = match_or_create(
        demo, state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    s2, b2, created2 = match_or_create(
        demo, state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    assert created1 and not created2
    assert s1 is s2
    assert b1 == Binding("done")


def test_creation_induces_composition_from_visible_values():
    skills = []
    state = _state({"n1": "3", "n2": "4", "ans": ""})
    skill, binding, created = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    assert created
    assert skill.how.render() == "Multiply(Arg0,Arg1)"
    assert binding == Binding("ans", ("n1", "n2"))


def test_existing_skill_matched_before_creation():
    skills = []
    state1 = _state({"n1": "3", "n2": "4", "ans": ""})
    match_or_create(_demo("ans", "12"), state1, skills, FRACTIONS_FUNCS, 2, _factory(skills))
    state2 = _state({"n1": "5", "n2": "6", "ans": ""})
    skill, binding, created = match_or_create(
        _demo("ans", "30"), state2, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    assert not created and skill is skills[0]
    assert set(binding.args) == {"n1", "n2"}


def test_recorded_binding_outscores_pattern_and_fresh():
    skills = []
    rows = {"n1": (0, 0), "n2": (0, 2), "m1": (1, 0), "m2": (1, 2), "ans": (0, 4)}
    state = _state({"n1": "3", "n2": "4", "m1": "2", "m2": "6", "ans": ""}, rows=rows)
    skill, binding, _ = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    skill.where.record(binding)
    # both (n1,n2) and (m1,m2) produce 12; the recorded binding wins
    skill2, binding2, created = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    assert not created and skill2 is skill
    assert binding2 == binding


def test_annotated_demo_requires_full_annotation_arity():
    skills = []
    # a one-argument skill exists that could coincidentally explain the
    # demo (Add(c,c) = 2 when c = 1), but the annotation lists three args
    state1 = _state({"c": "1", "x": ""})
    match_or_create(
        _demo("x", "2", ["c"]), state1, skills, MC_ADDITION_FUNCS, 2, _factory(skills)
    )
    assert skills[0].arity == 1

    state2 = _state({"c": "1", "a": "8", "b": "5", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "4", ["c", "a", "b"]),
        state2,
        skills,
        MC_ADDITION_FUNCS,
        2,
        _factory(skills),
    )
    assert created
    assert skill.arity == 3
    assert skill.how.render() == "OnesDigit(Add3(Arg0,Arg1,Arg2))"


def test_unannotated_demo_allows_any_subset():
    skills = []
    state1 = _state({"c": "1", "x": ""})
    match_or_create(_demo("x", "2"), state1, skills, MC_ADDITION_FUNCS, 2, _factory(skills))
    state2 = _state({"c": "1", "a": "0", "b": "1", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "2"), state2, skills, MC_ADDITION_FUNCS, 2, _factory(skills)
    )
    # the arity-1 skill explains the new demo even though more values exist
    assert not created and skill is skills[0]


def test_annotated_demo_reuses_matching_skill():
    skills = []
    state1 = _state({"c": "1", "a": "8", "b": "5", "x": ""})
    match_or_create(
        _demo("x", "4", ["c", "a", "b"]),
        state1,
        skills,
        MC_ADDITION_FUNCS,
        2,
        _factory(skills),
    )
    n_before = len(skills)
    state2 = _state({"c": "1", "a": "9", "b": "7", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "7", ["c", "a", "b"]),
        state2,
        skills,
        MC_ADDITION_FUNCS,
        2,
        _factory(skills),
    )
    assert len(skills) == n_before
    assert not created and skill is skills[0]


def test_constant_howpart_when_unreachable():
    skills = []
    state = _state({"a": "2", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "x"), state, skills, FRACTIONS_FUNCS, 2, _factory(skills)
    )
    assert created
    assert skill.how.render() == '"x"'
    assert skill.arity == 0
    assert binding == Binding("x", ())

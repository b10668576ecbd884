"""Where-learning: binding memory, candidate filtering, demo explanation,
skill creation and a skill's action."""

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
from dipl.how_learning import FRACTIONS_FUNCS, MC_ADDITION_FUNCS, Composition
from dipl.where_learning import Binding, Skill, WherePart, match_or_create


def _state(values, locked=(), rows=None):
    elems = []
    for i, (eid, v) in enumerate(values.items()):
        row, col = (rows or {}).get(eid, (0, i))
        elems.append(InterfaceElement(eid, TEXT_FIELD, v, eid in locked, row, col))
    elems.append(InterfaceElement("done", BUTTON, "", False, 9, 9))
    return TutorState(elems, [])


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
    s1, b1, created1 = match_or_create(demo, state, skills, FRACTIONS_FUNCS)
    s2, b2, created2 = match_or_create(demo, state, skills, FRACTIONS_FUNCS)
    assert created1 and not created2
    assert s1 is s2
    assert b1 == Binding("done")


def test_creation_induces_composition_from_visible_values():
    skills = []
    state = _state({"n1": "3", "n2": "4", "ans": ""})
    skill, binding, created = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS
    )
    assert created
    assert skill.how.render() == "Multiply(Arg0,Arg1)"
    assert binding == Binding("ans", ("n1", "n2"))


def test_created_skill_is_appended_with_its_binding_recorded():
    skills = []
    state = _state({"n1": "3", "n2": "4", "ans": ""})
    for i, demo in enumerate(
        [_demo("ans", "12"), Demo(SAI("done", PRESS_BUTTON, ""), None)]
    ):
        skill, binding, created = match_or_create(demo, state, skills, FRACTIONS_FUNCS)
        assert created
        assert skills[i] is skill and skill.sid == i == len(skills) - 1
        assert skill.when is None
        assert skill.where.bindings == [binding]


def test_matched_demo_records_its_binding():
    skills = []
    rows = {"n1": (0, 0), "n2": (0, 2), "m1": (1, 0), "m2": (1, 2), "ans": (0, 4)}
    state1 = _state({"n1": "3", "n2": "4", "m1": "1", "m2": "1", "ans": ""}, rows=rows)
    match_or_create(_demo("ans", "12"), state1, skills, FRACTIONS_FUNCS)
    state2 = _state({"n1": "2", "n2": "2", "m1": "5", "m2": "6", "ans": ""}, rows=rows)
    skill, binding, created = match_or_create(
        _demo("ans", "30"), state2, skills, FRACTIONS_FUNCS
    )
    assert not created and len(skills) == 1
    assert skill.where.bindings[-1] == binding
    assert set(binding.args) == {"m1", "m2"}


def test_existing_skill_matched_before_creation():
    skills = []
    state1 = _state({"n1": "3", "n2": "4", "ans": ""})
    match_or_create(_demo("ans", "12"), state1, skills, FRACTIONS_FUNCS)
    state2 = _state({"n1": "5", "n2": "6", "ans": ""})
    skill, binding, created = match_or_create(
        _demo("ans", "30"), state2, skills, FRACTIONS_FUNCS
    )
    assert not created and skill is skills[0]
    assert set(binding.args) == {"n1", "n2"}


def test_recorded_binding_outscores_pattern_and_fresh():
    skills = []
    rows = {"n1": (0, 0), "n2": (0, 2), "m1": (1, 0), "m2": (1, 2), "ans": (0, 4)}
    state = _state({"n1": "3", "n2": "4", "m1": "2", "m2": "6", "ans": ""}, rows=rows)
    skill, binding, _ = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS
    )
    assert skill.where.bindings == [binding]
    # both (n1,n2) and (m1,m2) produce 12; the recorded binding wins
    skill2, binding2, created = match_or_create(
        _demo("ans", "12"), state, skills, FRACTIONS_FUNCS
    )
    assert not created and skill2 is skill
    assert binding2 == binding


def test_annotated_demo_requires_full_annotation_arity():
    skills = []
    # a one-argument skill exists that could coincidentally explain the
    # demo (Add(c,c) = 2 when c = 1), but the annotation lists three args
    state1 = _state({"c": "1", "x": ""})
    match_or_create(_demo("x", "2", ["c"]), state1, skills, MC_ADDITION_FUNCS)
    assert skills[0].arity == 1

    state2 = _state({"c": "1", "a": "8", "b": "5", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "4", ["c", "a", "b"]), state2, skills, MC_ADDITION_FUNCS
    )
    assert created
    assert skill.arity == 3
    assert skill.how.render() == "OnesDigit(Add3(Arg0,Arg1,Arg2))"


def test_unannotated_demo_allows_any_subset():
    skills = []
    state1 = _state({"c": "1", "x": ""})
    match_or_create(_demo("x", "2"), state1, skills, MC_ADDITION_FUNCS)
    state2 = _state({"c": "1", "a": "0", "b": "1", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "2"), state2, skills, MC_ADDITION_FUNCS
    )
    # the arity-1 skill explains the new demo even though more values exist
    assert not created and skill is skills[0]


def test_annotated_demo_reuses_matching_skill():
    skills = []
    state1 = _state({"c": "1", "a": "8", "b": "5", "x": ""})
    match_or_create(_demo("x", "4", ["c", "a", "b"]), state1, skills, MC_ADDITION_FUNCS)
    n_before = len(skills)
    state2 = _state({"c": "1", "a": "9", "b": "7", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "7", ["c", "a", "b"]), state2, skills, MC_ADDITION_FUNCS
    )
    assert len(skills) == n_before
    assert not created and skill is skills[0]


def test_constant_howpart_when_unreachable():
    skills = []
    state = _state({"a": "2", "x": ""})
    skill, binding, created = match_or_create(
        _demo("x", "x"), state, skills, FRACTIONS_FUNCS
    )
    assert created
    assert skill.how.render() == '"x"'
    assert skill.arity == 0
    assert binding == Binding("x", ())


# ---------------------------------------------------------------------------
# Skill.sai
# ---------------------------------------------------------------------------


def _skill(action, how, arity):
    return Skill(0, action, how, arity, WherePart(arity))


def test_button_skill_sai_presses_with_empty_input():
    skill = _skill(PRESS_BUTTON, None, 0)
    state = _state({"a": "1"})
    assert skill.sai(Binding("done"), state, FRACTIONS_FUNCS) == SAI(
        "done", PRESS_BUTTON, ""
    )


def test_skill_sai_is_none_when_how_part_inapplicable():
    how = Composition.call("Add", [Composition.leaf("Arg0"), Composition.leaf("Arg1")])
    skill = _skill(UPDATE_FIELD, how, 2)
    # an empty bound value, then a non-numeric one
    for a in ("", "x"):
        state = _state({"a": a, "b": "4", "ans": ""})
        assert skill.sai(Binding("ans", ("a", "b")), state, FRACTIONS_FUNCS) is None


def test_skill_sai_evaluates_how_part_at_binding():
    how = Composition.call("Add", [Composition.leaf("Arg0"), Composition.leaf("Arg1")])
    skill = _skill(UPDATE_FIELD, how, 2)
    state = _state({"a": "3", "b": "4", "ans": ""})
    assert skill.sai(Binding("ans", ("a", "b")), state, FRACTIONS_FUNCS) == SAI(
        "ans", UPDATE_FIELD, "7"
    )

"""How-learning: set chaining vs. an independent iterative-deepening
oracle, parsimony selection, variablization, evaluation."""

import itertools
import random

import numpy as np
import pytest

from dipl.core import InterfaceElement, TEXT_FIELD, TutorState
from dipl.how_learning import (
    FRACTIONS_FUNCS,
    MC_ADDITION_FUNCS,
    Composition,
    constant_howpart,
    evaluate,
    select_parsimonious,
    set_chaining,
    variablize,
)


# ---------------------------------------------------------------------------
# independent oracle: value-level iterative deepening + top-down enumeration
# ---------------------------------------------------------------------------


def _vec_outputs(name, v):
    """All outputs of the named primitive over every argument tuple from
    the 1-D int array v, as an arity-dimensional array (independent
    numeric re-implementation of the primitives)."""
    if name == "Add":
        return v[:, None] + v[None, :]
    if name == "Multiply":
        return v[:, None] * v[None, :]
    if name == "Add3":
        return v[:, None, None] + v[None, :, None] + v[None, None, :]
    if name == "OnesDigit":
        return np.abs(v) % 10
    if name == "TensDigit":
        return (np.abs(v) // 10) % 10
    raise KeyError(name)


def oracle_chain(goal, leaves, funcs, max_depth=2):
    """Enumerate the compositions set_chaining must return, independently.

    A composition qualifies iff it evaluates to the goal, its depth equals
    the goal value's minimal derivation depth, and every subterm is itself
    a minimal-depth derivation of its own value.  Minimal depths come from
    value-level iterative deepening over int arrays.
    """
    dmin = {}
    for _, value in leaves:
        dmin.setdefault(int(value), 0)
    for k in range(1, max_depth + 1):
        known = np.array(sorted(dmin), dtype=np.int64)
        fresh = set()
        for f in funcs:
            fresh.update(np.unique(_vec_outputs(f.name, known)).tolist())
        for v in fresh:
            if v not in dmin:
                dmin[v] = k
    goal_i = int(goal)
    if goal_i not in dmin:
        return None

    by_value = {}
    for eid, value in leaves:
        by_value.setdefault(int(value), []).append(eid)

    def terms(value):
        """All minimal-subterm compositions producing `value` at dmin[value]."""
        out = [Composition.leaf(eid) for eid in by_value.get(value, [])]
        d = dmin[value]
        if d == 0:
            return out
        pool = np.array(sorted(v for v in dmin if dmin[v] < d), dtype=np.int64)
        for f in funcs:
            hits = np.nonzero(_vec_outputs(f.name, pool) == value)
            for idx in zip(*hits):
                argvals = tuple(int(pool[i]) for i in idx)
                for sub in itertools.product(*(terms(a) for a in argvals)):
                    out.append(Composition.call(f.name, sub))
        return out

    return terms(goal_i)


def _rendered(comps):
    return sorted(c.render() for c in comps)


def test_set_chaining_matches_oracle_on_random_instances():
    rnd = random.Random(20240817)
    for trial in range(200):
        funcs = FRACTIONS_FUNCS if trial % 2 == 0 else MC_ADDITION_FUNCS
        n = rnd.randint(1, 6)
        leaves = [(f"e{i}", str(rnd.randint(0, 20))) for i in range(n)]
        goal = str(rnd.randint(0, 40))
        got = set_chaining(goal, leaves, funcs, max_depth=2)
        want = oracle_chain(goal, leaves, funcs, max_depth=2)
        if want is None:
            assert got is None, (trial, leaves, goal)
        else:
            assert got is not None, (trial, leaves, goal)
            assert _rendered(got) == _rendered(want), (trial, leaves, goal)


def test_earliest_wave_property():
    # every returned composition has depth equal to the goal's first wave,
    # and every subterm value is derived at its own minimal depth
    rnd = random.Random(7)
    for trial in range(50):
        funcs = MC_ADDITION_FUNCS if trial % 2 else FRACTIONS_FUNCS
        leaves = [(f"e{i}", str(rnd.randint(0, 12))) for i in range(rnd.randint(2, 5))]
        goal = str(rnd.randint(0, 24))
        got = set_chaining(goal, leaves, funcs, max_depth=2)
        if got is None:
            continue
        depths = {c.depth() for c in got}
        assert len(depths) == 1


def test_pinned_ones_digit_of_sum():
    # goal "2" from f1=7, f2=5 includes OnesDigit(Add(f1,f2))
    got = set_chaining("2", [("f1", "7"), ("f2", "5")], MC_ADDITION_FUNCS)
    assert got is not None
    assert "OnesDigit(Add(f1,f2))" in _rendered(got)


def test_goal_present_in_leaves_zero_ops():
    got = set_chaining("7", [("f1", "7"), ("f2", "5")], FRACTIONS_FUNCS)
    assert _rendered(got) == ["f1"]


def test_add_and_multiply_both_found():
    got = set_chaining("4", [("x", "2"), ("y", "2")], FRACTIONS_FUNCS)
    names = _rendered(got)
    assert "Add(x,y)" in names and "Multiply(x,y)" in names
    # self-pairs derive 4 just as well
    assert "Add(x,x)" in names and "Multiply(y,y)" in names


def test_unreachable_goal_returns_none():
    assert set_chaining("997", [("x", "2"), ("y", "3")], FRACTIONS_FUNCS) is None


def test_parsimony_prefers_fewer_ops_then_fewer_distinct_leaves():
    leaf = Composition.leaf
    call = Composition.call
    two_ops = call("Add", [call("Add", [leaf("a"), leaf("b")]), leaf("c")])
    one_op = call("Multiply", [leaf("d1"), leaf("d2")])
    degenerate = call("Multiply", [leaf("d1"), leaf("d1")])
    assert select_parsimonious([two_ops, one_op]) is one_op
    # Multiply(d1,d1) uses one distinct leaf and wins over Multiply(d1,d2)
    assert select_parsimonious([one_op, degenerate]) is degenerate


def test_parsimony_lexicographic_tie_break():
    leaf = Composition.leaf
    call = Composition.call
    add = call("Add", [leaf("x"), leaf("y")])
    mul = call("Multiply", [leaf("x"), leaf("y")])
    # equal ops and distinct-leaf counts: "Add(..." < "Multiply(..."
    assert select_parsimonious([mul, add]) is add


def test_parsimony_empty_raises():
    with pytest.raises(ValueError):
        select_parsimonious([])


def test_variablize_first_occurrence_order():
    comp = Composition.call(
        "Add",
        [
            Composition.call("Multiply", [Composition.leaf("n2"), Composition.leaf("d1")]),
            Composition.leaf("n2"),
        ],
    )
    var, order = variablize(comp)
    assert var.render() == "Add(Multiply(Arg0,Arg1),Arg0)"
    assert order == ["n2", "d1"]


def _state(values: dict[str, str]) -> TutorState:
    elems = [
        InterfaceElement(eid, TEXT_FIELD, v, False, 0, i)
        for i, (eid, v) in enumerate(values.items())
    ]
    return TutorState(elems, [])


def test_evaluate_variablized():
    var, _ = variablize(
        Composition.call("Multiply", [Composition.leaf("d1"), Composition.leaf("d2")])
    )
    state = _state({"d1": "3", "d2": "4"})
    assert evaluate(var, ["d1", "d2"], state, FRACTIONS_FUNCS) == "12"


def test_evaluate_none_on_empty_value():
    var, _ = variablize(
        Composition.call("Add", [Composition.leaf("a"), Composition.leaf("b")])
    )
    state = _state({"a": "3", "b": ""})
    assert evaluate(var, ["a", "b"], state, FRACTIONS_FUNCS) is None


def test_evaluate_none_on_non_numeric():
    var, _ = variablize(
        Composition.call("Add", [Composition.leaf("a"), Composition.leaf("b")])
    )
    state = _state({"a": "3", "b": "x"})
    assert evaluate(var, ["a", "b"], state, FRACTIONS_FUNCS) is None


def test_evaluate_arity_mismatch_raises():
    var, _ = variablize(
        Composition.call("Add", [Composition.leaf("a"), Composition.leaf("b")])
    )
    state = _state({"a": "3", "b": "4", "c": "5"})
    with pytest.raises(ValueError):
        evaluate(var, ["a"], state, FRACTIONS_FUNCS)


def test_constant_howpart():
    how = constant_howpart("42")
    assert how.render() == '"42"'
    assert evaluate(how, [], _state({}), FRACTIONS_FUNCS) == "42"


def test_mc_three_arg_column():
    # carry=1, a=8, b=5 -> answer digit 4; no depth-1 derivation of 4
    # exists from {1, 8, 5}, so the two-level composition must appear
    leaves = [("carry_tens", "1"), ("a_tens", "8"), ("b_tens", "5")]
    got = set_chaining("4", leaves, MC_ADDITION_FUNCS)
    assert got is not None
    assert any(
        c.render() == "OnesDigit(Add3(carry_tens,a_tens,b_tens))" for c in got
    )

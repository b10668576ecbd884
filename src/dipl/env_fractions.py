"""Fraction arithmetic tutor.

Three problem types: add with equal denominators, add with unequal
denominators (which must be converted first), and multiply.  Unequal-
denominator problems require an "x" in the check_convert field, then the
four conversion fields, then the answer.  Demos are not
argument-annotated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BUTTON,
    PRESS_BUTTON,
    SAI,
    TEXT_FIELD,
    TutorEnvironment,
    TutorState,
    InterfaceElement,
    UPDATE_FIELD,
    symmetric_relations,
)

ADD_SAME = "AddSame"
ADD_DIFF = "AddDiff"
MULTIPLY = "Multiply"
PTYPES = (ADD_SAME, ADD_DIFF, MULTIPLY)

MIN_OPERAND = 2
MAX_OPERAND = 10

NUMBER_FIELDS = (
    "conv_num1",
    "conv_den1",
    "conv_num2",
    "conv_den2",
    "answer_num",
    "answer_den",
)


@dataclass
class FractionProblem:
    n1: int
    d1: int
    n2: int
    d2: int
    op: str  # "+" or "*"
    ptype: str


def _build_state(problem: FractionProblem) -> TutorState:
    p = problem
    # numerator row (row 0) and denominator row (row 1); done sits at far right
    elements = [
        InterfaceElement("n1", TEXT_FIELD, str(p.n1), True, 0, 0),
        InterfaceElement("d1", TEXT_FIELD, str(p.d1), True, 1, 0),
        InterfaceElement("op", TEXT_FIELD, p.op, True, 0, 1),
        InterfaceElement("n2", TEXT_FIELD, str(p.n2), True, 0, 2),
        InterfaceElement("d2", TEXT_FIELD, str(p.d2), True, 1, 2),
        # check_convert accepts only "x"; modelled as a text field
        InterfaceElement("check_convert", TEXT_FIELD, "", False, 0, 3),
        InterfaceElement("conv_num1", TEXT_FIELD, "", False, 0, 4),
        InterfaceElement("conv_den1", TEXT_FIELD, "", False, 1, 4),
        InterfaceElement("conv_num2", TEXT_FIELD, "", False, 0, 5),
        InterfaceElement("conv_den2", TEXT_FIELD, "", False, 1, 5),
        InterfaceElement("answer_num", TEXT_FIELD, "", False, 0, 6),
        InterfaceElement("answer_den", TEXT_FIELD, "", False, 1, 6),
        InterfaceElement("done", BUTTON, "", False, 1, 7),
    ]
    relations = symmetric_relations(
        [
            # numerators above their denominators
            ("n1", "above", "d1"),
            ("n2", "above", "d2"),
            ("conv_num1", "above", "conv_den1"),
            ("conv_num2", "above", "conv_den2"),
            ("answer_num", "above", "answer_den"),
            # numerator row, left to right
            ("n1", "left", "op"),
            ("op", "left", "n2"),
            ("n2", "left", "check_convert"),
            ("check_convert", "left", "conv_num1"),
            ("conv_num1", "left", "conv_num2"),
            ("conv_num2", "left", "answer_num"),
            # denominator row, left to right
            ("d1", "left", "d2"),
            ("d2", "left", "conv_den1"),
            ("conv_den1", "left", "conv_den2"),
            ("conv_den2", "left", "answer_den"),
            ("answer_den", "left", "done"),
        ]
    )
    return TutorState(elements, relations)


def correct_values(problem: FractionProblem) -> dict[str, str]:
    """Field -> correct value, for every field the problem type uses."""
    p = problem
    if p.ptype == MULTIPLY:
        return {"answer_num": str(p.n1 * p.n2), "answer_den": str(p.d1 * p.d2)}
    if p.ptype == ADD_SAME:
        return {"answer_num": str(p.n1 + p.n2), "answer_den": str(p.d1)}
    return {
        "check_convert": "x",
        "conv_num1": str(p.n1 * p.d2),
        "conv_den1": str(p.d1 * p.d2),
        "conv_num2": str(p.n2 * p.d1),
        "conv_den2": str(p.d2 * p.d1),
        "answer_num": str(p.n1 * p.d2 + p.n2 * p.d1),
        "answer_den": str(p.d1 * p.d2),
    }


class FractionsEnv(TutorEnvironment):
    def new_problem(self):
        ptype = PTYPES[self.rng.randrange(3)]
        n1 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
        d1 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
        n2 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
        if ptype == ADD_SAME:
            d2 = d1
        elif ptype == ADD_DIFF:
            d2 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
            while d2 == d1:
                d2 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
        else:
            d2 = self.rng.randint(MIN_OPERAND, MAX_OPERAND)
        op = "+" if ptype != MULTIPLY else "*"
        self.problem = FractionProblem(n1, d1, n2, d2, op, ptype)
        self.state = _build_state(self.problem)
        return self.problem, self.state

    def load_problem(self, problem: FractionProblem):
        """Install a specific problem (fixtures/tests)."""
        self.problem = problem
        self.state = _build_state(problem)
        return self.problem, self.state

    def _admissible(self) -> list[SAI]:
        values = correct_values(self.problem)
        filled = lambda f: self.state.element(f).locked

        if self.problem.ptype == ADD_DIFF:
            if not filled("check_convert"):
                open_fields = ["check_convert"]
            elif not all(filled(f) for f in ("conv_num1", "conv_den1", "conv_num2", "conv_den2")):
                open_fields = [
                    f
                    for f in ("conv_num1", "conv_den1", "conv_num2", "conv_den2")
                    if not filled(f)
                ]
            else:
                open_fields = [f for f in ("answer_num", "answer_den") if not filled(f)]
        else:
            open_fields = [f for f in ("answer_num", "answer_den") if not filled(f)]

        if open_fields:
            # canonical order = element declaration order
            order = [e.id for e in self.state.elements]
            open_fields.sort(key=order.index)
            return [SAI(f, UPDATE_FIELD, values[f]) for f in open_fields]
        return [SAI("done", PRESS_BUTTON, "")]


def fractions_action_space() -> list[SAI]:
    """Fixed enumerated action space: 6 fields x 1-450, check_convert, done."""
    actions = [
        SAI(f, UPDATE_FIELD, str(v)) for f in NUMBER_FIELDS for v in range(1, 451)
    ]
    actions.append(SAI("check_convert", UPDATE_FIELD, "x"))
    actions.append(SAI("done", PRESS_BUTTON, ""))
    return actions

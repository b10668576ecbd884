"""Multi-column addition tutor: 3-digit + 3-digit with explicit carry fields.

Columns are worked strictly right to left.  Within a column the answer
digit and (when the partial sum reaches 10) the carry into the next column
may be entered in either order.  A final carry out of the hundreds column
goes into carry_thou and is then copied into answer_thou.

Only the open column's still-required fields are unlocked; everything else
(future columns, and carry fields whose column sum never reaches 10) stays
locked.  A locked-and-empty field is a disabled control.
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

# per-column (a digit, b digit, carry-in, answer, carry-out), right to left
COLUMNS = [
    ("a_ones", "b_ones", None, "answer_ones", "carry_tens"),
    ("a_tens", "b_tens", "carry_tens", "answer_tens", "carry_hund"),
    ("a_hund", "b_hund", "carry_hund", "answer_hund", "carry_thou"),
]

EDITABLE_FIELDS = (
    "carry_tens",
    "carry_hund",
    "carry_thou",
    "answer_ones",
    "answer_tens",
    "answer_hund",
    "answer_thou",
)


@dataclass
class AdditionProblem:
    a: int
    b: int


def _digits(n: int) -> tuple[int, int, int]:
    return n // 100, (n // 10) % 10, n % 10


def _build_state(problem: AdditionProblem) -> TutorState:
    ah, at, ao = _digits(problem.a)
    bh, bt, bo = _digits(problem.b)
    # grid columns: 0=thousands .. 3=ones; rows: 0=carries, 1=a, 2=b, 3=answers
    elements = [
        InterfaceElement("a_hund", TEXT_FIELD, str(ah), True, 1, 1),
        InterfaceElement("a_tens", TEXT_FIELD, str(at), True, 1, 2),
        InterfaceElement("a_ones", TEXT_FIELD, str(ao), True, 1, 3),
        InterfaceElement("b_hund", TEXT_FIELD, str(bh), True, 2, 1),
        InterfaceElement("b_tens", TEXT_FIELD, str(bt), True, 2, 2),
        InterfaceElement("b_ones", TEXT_FIELD, str(bo), True, 2, 3),
        InterfaceElement("answer_ones", TEXT_FIELD, "", False, 3, 3),
        InterfaceElement("answer_tens", TEXT_FIELD, "", False, 3, 2),
        InterfaceElement("answer_hund", TEXT_FIELD, "", False, 3, 1),
        InterfaceElement("answer_thou", TEXT_FIELD, "", False, 3, 0),
        InterfaceElement("carry_tens", TEXT_FIELD, "", False, 0, 2),
        InterfaceElement("carry_hund", TEXT_FIELD, "", False, 0, 1),
        InterfaceElement("carry_thou", TEXT_FIELD, "", False, 0, 0),
        InterfaceElement("done", BUTTON, "", False, 3, -1),
    ]
    relations = symmetric_relations(
        [
            # column chains, top to bottom
            ("carry_tens", "above", "a_tens"),
            ("carry_hund", "above", "a_hund"),
            ("carry_thou", "above", "answer_thou"),
            ("a_hund", "above", "b_hund"),
            ("a_tens", "above", "b_tens"),
            ("a_ones", "above", "b_ones"),
            ("b_hund", "above", "answer_hund"),
            ("b_tens", "above", "answer_tens"),
            ("b_ones", "above", "answer_ones"),
            # row chains, left to right
            ("carry_thou", "left", "carry_hund"),
            ("carry_hund", "left", "carry_tens"),
            ("a_hund", "left", "a_tens"),
            ("a_tens", "left", "a_ones"),
            ("b_hund", "left", "b_tens"),
            ("b_tens", "left", "b_ones"),
            ("done", "left", "answer_thou"),
            ("answer_thou", "left", "answer_hund"),
            ("answer_hund", "left", "answer_tens"),
            ("answer_tens", "left", "answer_ones"),
        ]
    )
    return TutorState(elements, relations)


class McAdditionEnv(TutorEnvironment):
    def new_problem(self):
        # digits drawn 0-8 (hundreds 1-8): roughly three quarters of the
        # problems involve at least one carry
        a = self._rand_operand()
        b = self._rand_operand()
        self.problem = AdditionProblem(a, b)
        self.state = _build_state(self.problem)
        self._refresh_locks()
        return self.problem, self.state

    def _rand_operand(self) -> int:
        return (
            self.rng.randint(1, 8) * 100
            + self.rng.randint(0, 8) * 10
            + self.rng.randint(0, 8)
        )

    def load_problem(self, a: int, b: int):
        """Install a specific problem (fixtures/tests)."""
        self.problem = AdditionProblem(a, b)
        self.state = _build_state(self.problem)
        self._refresh_locks()
        return self.problem, self.state

    def _column_sum(self, a_id, b_id, carry_id) -> int:
        s = int(self.state.value(a_id)) + int(self.state.value(b_id))
        if carry_id is not None and self.state.value(carry_id) != "":
            s += int(self.state.value(carry_id))
        return s

    def _open_fields(self) -> dict[str, str]:
        """Unfilled required fields of the first incomplete column."""
        filled = lambda f: self.state.value(f) != ""
        for a_id, b_id, carry_in, answer, carry_out in COLUMNS:
            s = self._column_sum(a_id, b_id, carry_in)
            open_fields = {}
            if not filled(answer):
                open_fields[answer] = str(s % 10)
            if s >= 10 and not filled(carry_out):
                open_fields[carry_out] = str(s // 10)
            if open_fields:
                return open_fields
        if filled("carry_thou") and not filled("answer_thou"):
            return {"answer_thou": self.state.value("carry_thou")}
        return {}

    def _refresh_locks(self):
        open_fields = self._open_fields()
        for fid in EDITABLE_FIELDS:
            elem = self.state.element(fid)
            elem.locked = fid not in open_fields

    def step(self, sai: SAI):
        reward, state = super().step(sai)
        if reward > 0:
            self._refresh_locks()
        return reward, state

    def _admissible(self) -> list[SAI]:
        open_fields = self._open_fields()
        if not open_fields:
            return [SAI("done", PRESS_BUTTON, "")]
        order = [e.id for e in self.state.elements]
        return [
            SAI(f, UPDATE_FIELD, open_fields[f])
            for f in sorted(open_fields, key=order.index)
        ]

    def _demo_args(self, sai: SAI) -> list[str] | None:
        if sai.selection == "done":
            return []
        if sai.selection == "answer_thou":
            return ["carry_thou"]
        for a_id, b_id, carry_in, answer, carry_out in COLUMNS:
            if sai.selection in (answer, carry_out):
                args = []
                if carry_in is not None and self.state.value(carry_in) != "":
                    args.append(carry_in)
                return args + [a_id, b_id]
        raise KeyError(sai.selection)

    def answer_value(self) -> int:
        """Concatenated answer digits as an integer (for oracle checks)."""
        digits = [
            self.state.value(f)
            for f in ("answer_thou", "answer_hund", "answer_tens", "answer_ones")
        ]
        return int("".join(d if d else "0" for d in digits))


def mc_action_space() -> list[SAI]:
    """Fixed enumerated action space: 7 fields x digits 0-9, plus done."""
    actions = [
        SAI(f, UPDATE_FIELD, str(d)) for f in EDITABLE_FIELDS for d in range(10)
    ]
    actions.append(SAI("done", PRESS_BUTTON, ""))
    return actions

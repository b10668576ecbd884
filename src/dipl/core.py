"""Domain-neutral tutor types and the environment interaction contract.

A tutor state is a flat collection of typed interface elements plus declared
adjacency relations.  Agents act on it with SAI triples (selection, action,
input) and receive +1/-1 reward; they may also request a worked example
(demo) for the current step.
"""

from __future__ import annotations

from dataclasses import dataclass, field


TEXT_FIELD = "TextField"
BUTTON = "Button"

UPDATE_FIELD = "UpdateField"
PRESS_BUTTON = "PressButton"

# relation name -> its symmetric inverse
INVERSE_RELATION = {"above": "below", "below": "above", "left": "right", "right": "left"}


@dataclass
class InterfaceElement:
    id: str
    elem_type: str
    value: str = ""
    locked: bool = False
    row: int = 0
    col: int = 0


@dataclass(frozen=True)
class AdjacencyRelation:
    """(from_id, relation, to_id) reads "from_id is <relation> of to_id"."""

    from_id: str
    relation: str
    to_id: str


@dataclass(frozen=True)
class SAI:
    selection: str
    action: str
    input: str = ""


@dataclass
class Demo:
    sai: SAI
    arg_annotations: list[str] | None = None


@dataclass
class TutorState:
    elements: list[InterfaceElement] = field(default_factory=list)
    relations: list[AdjacencyRelation] = field(default_factory=list)
    done_pressed: bool = False

    def __post_init__(self):
        self._by_id = {e.id: e for e in self.elements}

    def element(self, eid: str) -> InterfaceElement:
        return self._by_id[eid]

    def has_element(self, eid: str) -> bool:
        return eid in self._by_id

    def value(self, eid: str) -> str:
        return self._by_id[eid].value

    def to_text(self) -> str:
        """One element per line, then relations; stable across runs."""
        lines = [
            f"{e.id}|{e.elem_type}|{e.value}|{int(e.locked)}|{e.row}|{e.col}"
            for e in self.elements
        ]
        lines += [f"rel|{r.from_id}|{r.relation}|{r.to_id}" for r in self.relations]
        lines.append(f"done|{int(self.done_pressed)}")
        return "\n".join(lines)


def validate_state(state: TutorState) -> list[str]:
    """Check structural invariants; violations are returned, never raised."""
    violations = []
    seen = set()
    for e in state.elements:
        if e.id in seen:
            violations.append(f"duplicate element id: {e.id}")
        seen.add(e.id)
        if e.elem_type == BUTTON and (e.locked or e.value != ""):
            violations.append(f"button must stay unlocked and empty: {e.id}")
    rel_set = {(r.from_id, r.relation, r.to_id) for r in state.relations}
    for r in state.relations:
        if r.from_id not in seen:
            violations.append(f"dangling relation endpoint: {r.from_id}")
        if r.to_id not in seen:
            violations.append(f"dangling relation endpoint: {r.to_id}")
        inv = (r.to_id, INVERSE_RELATION[r.relation], r.from_id)
        if inv not in rel_set:
            violations.append(
                f"missing inverse of ({r.from_id}, {r.relation}, {r.to_id})"
            )
    return violations


def symmetric_relations(pairs: list[tuple[str, str, str]]) -> list[AdjacencyRelation]:
    """Expand one-directional (from, relation, to) declarations to their closure."""
    rels = []
    for from_id, relation, to_id in pairs:
        rels.append(AdjacencyRelation(from_id, relation, to_id))
        rels.append(AdjacencyRelation(to_id, INVERSE_RELATION[relation], from_id))
    return rels


class TutorEnvironment:
    """Base tutor: admissible-set oracle, step feedback, and demos.

    Subclasses implement problem generation and `_admissible`.  Instances are
    single-threaded and own their RNG stream; identical seeds reproduce
    identical problem/reward/demo sequences.
    """

    def __init__(self, seed: int = 0):
        import random

        self.rng = random.Random(seed)
        self.state: TutorState | None = None
        self.problem = None

    # -- subclass hooks -------------------------------------------------
    def new_problem(self):
        raise NotImplementedError

    def _admissible(self) -> list[SAI]:
        """Admissible actions for the current state, in canonical order."""
        raise NotImplementedError

    def _demo_args(self, sai: SAI) -> list[str] | None:
        return None

    # -- contract --------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state is None or self.state.done_pressed

    def admissible(self) -> list[SAI]:
        return self._admissible()

    def step(self, sai: SAI) -> tuple[int, TutorState]:
        if not self.state.has_element(sai.selection):
            raise KeyError(f"unknown selection: {sai.selection}")
        elem = self.state.element(sai.selection)
        if elem.locked:
            return -1, self.state
        if sai not in self._admissible():
            return -1, self.state
        if sai.action == PRESS_BUTTON:
            self.state.done_pressed = True
        else:
            elem.value = sai.input
            elem.locked = True
        return 1, self.state

    def request_demo(self) -> Demo:
        if self.done:
            raise RuntimeError("demo requested on completed problem")
        sai = self._admissible()[0]
        return Demo(sai, self._demo_args(sai))

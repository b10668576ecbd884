"""When-learning: relative featurization and per-skill fire/don't-fire
classifiers.

State features are relabeled by the shortest relation path from the
selection (Sel) or an argument (Arg0..ArgN), so that evidence gathered at
one screen location transfers to spatially shifted instances of the same
skill.  The classifier itself is the categorical decision tree from
`classifiers`; it never sees raw element ids in relative mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classifiers
from .core import TutorState

POSITIVE = "pos"
NEGATIVE = "neg"

# paths longer than this are dropped during featurization
MAX_PATH_STEPS = 4


@dataclass(frozen=True)
class RelPath:
    root: str  # "Sel" or "ArgN"
    steps: tuple[str, ...]

    def render(self) -> str:
        return ".".join((self.root,) + self.steps)


@dataclass(frozen=True)
class FeatureFunction:
    name: str
    pred: callable  # (str, str) -> bool, symmetric


EQUALS = FeatureFunction("Equals", lambda a, b: a == b)


def adjacency_graph(state: TutorState) -> dict[str, dict[str, str]]:
    """nav[x][r] = y means the element reached from x by step r is y.

    A relation (a, below, b) reads "a is below b", so navigating "below"
    from b lands on a.
    """
    nav: dict[str, dict[str, str]] = {e.id: {} for e in state.elements}
    for rel in state.relations:
        nav[rel.to_id][rel.relation] = rel.from_id
    return nav


def shortest_paths(
    nav: dict[str, dict[str, str]],
    sources: list[tuple[str, str]],
    max_len: int | None = None,
) -> dict[str, RelPath]:
    """Bellman-Ford over unit-weight relation edges from Sel/Arg roots.

    Ties break by source priority (Sel, Arg0, Arg1, ...) and then by the
    lexicographically smallest relation sequence.
    """
    # best[eid] = (length, source priority, step tuple)
    best: dict[str, tuple[int, int, tuple[str, ...]]] = {}
    roots: dict[str, str] = {}
    for priority, (name, eid) in enumerate(sources):
        key = (0, priority, ())
        if eid not in best or key < best[eid]:
            best[eid] = key
            roots[eid] = name

    limit = max_len if max_len is not None else len(nav)
    for _ in range(len(nav) + 1):
        changed = False
        for x, (length, priority, steps) in sorted(best.items()):
            if length >= limit:
                continue
            for r in sorted(nav.get(x, ())):
                y = nav[x][r]
                cand = (length + 1, priority, steps + (r,))
                if y not in best or cand < best[y]:
                    best[y] = cand
                    roots[y] = roots[x]
                    changed = True
        if not changed:
            break

    return {
        eid: RelPath(roots[eid], steps) for eid, (_, _, steps) in best.items()
    }


def _value_features(named: list[tuple[str, str]], state, feature_funcs):
    """Shared by relative and absolute featurization.

    `named` pairs a rendered name prefix with an element id.
    """
    fv: dict[str, str] = {}
    valued = []
    for prefix, eid in named:
        value = state.value(eid)
        fv[f"{prefix}.value"] = value
        fv[f"{prefix}.filled"] = "T" if value != "" else "F"
        if value != "":
            valued.append((prefix, value))
    valued.sort()
    for fn in feature_funcs:
        for i in range(len(valued)):
            for j in range(i + 1, len(valued)):
                (pa, va), (pb, vb) = valued[i], valued[j]
                name = f"{fn.name}({pa}.value, {pb}.value)"
                fv[name] = "T" if fn.pred(va, vb) else "F"
    return fv


def relative_featurize(
    state: TutorState,
    selection: str,
    args: tuple[str, ...],
    feature_funcs: list[FeatureFunction],
    paths=None,
) -> classifiers.FeatureVector:
    if paths is None:
        sources = [("Sel", selection)] + [
            (f"Arg{i}", eid) for i, eid in enumerate(args)
        ]
        paths = shortest_paths(adjacency_graph(state), sources, MAX_PATH_STEPS)
    named = sorted((p.render(), eid) for eid, p in paths.items())
    return _value_features(named, state, feature_funcs)


def absolute_featurize(
    state: TutorState, feature_funcs: list[FeatureFunction]
) -> classifiers.FeatureVector:
    named = sorted((e.id, e.id) for e in state.elements)
    return _value_features(named, state, feature_funcs)


class WhenPart:
    """Per-skill precondition classifier; refit on every new example."""

    def __init__(self):
        self.encoder = classifiers.Encoder()
        self.tree: classifiers.DecisionTree | None = None

    def add(self, fv: classifiers.FeatureVector, label: str):
        self.encoder.add(fv, label)
        self.tree = classifiers.fit_encoded(self.encoder)

    def predict(self, fv: classifiers.FeatureVector) -> tuple[bool, float]:
        if self.tree is None:
            return True, 0.5  # untrained skills fire optimistically
        label, conf = self.tree.predict(fv)
        return label == POSITIVE, conf


def serialize_features(fv: classifiers.FeatureVector) -> str:
    """Sorted name=value lines, for golden tests."""
    return "\n".join(f"{k}={fv[k]}" for k in sorted(fv))

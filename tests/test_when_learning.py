"""When-learning: shortest relation paths vs. a brute-force oracle,
relative/absolute featurization, per-skill classifiers."""

from hypothesis import given, settings, strategies as st

from dipl.core import SAI, UPDATE_FIELD
from dipl.env_fractions import FractionProblem, FractionsEnv
from dipl.env_mc_addition import McAdditionEnv
from dipl.when_learning import (
    EQUALS,
    MAX_PATH_STEPS,
    WhenPart,
    absolute_featurize,
    adjacency_graph,
    relative_featurize,
    serialize_features,
    shortest_paths,
)


# ---------------------------------------------------------------------------
# oracle: exhaustive path enumeration up to the length cap
# ---------------------------------------------------------------------------


def oracle_paths(nav, sources, limit):
    """Best (length, source priority, lexicographic steps) per element,
    found by enumerating every step sequence up to `limit` from every
    source.  Shares no code with shortest_paths."""
    best = {}

    def walk(x, steps, priority, name):
        key = (len(steps), priority, steps)
        if x not in best or key < best[x][0]:
            best[x] = (key, name)
        if len(steps) == limit:
            return
        for r in sorted(nav.get(x, ())):
            walk(nav[x][r], steps + (r,), priority, name)

    for priority, (name, root) in enumerate(sources):
        walk(root, (), priority, name)
    return {
        eid: (name,) + key[2:] for eid, (key, name) in best.items()
    }


def _got(nav, sources, limit):
    return {
        eid: (p.root, p.steps)
        for eid, p in shortest_paths(nav, sources, limit).items()
    }


def _want(nav, sources, limit):
    return {eid: (name, steps) for eid, (name, steps) in oracle_paths(nav, sources, limit).items()}


def _grid_nav():
    """3x3 grid with left/right/above/below steps in both directions."""
    nav = {f"g{r}{c}": {} for r in range(3) for c in range(3)}
    for r in range(3):
        for c in range(3):
            if c > 0:
                nav[f"g{r}{c}"]["left"] = f"g{r}{c-1}"
                nav[f"g{r}{c-1}"]["right"] = f"g{r}{c}"
            if r > 0:
                nav[f"g{r}{c}"]["above"] = f"g{r-1}{c}"
                nav[f"g{r-1}{c}"]["below"] = f"g{r}{c}"
    return nav


def test_grid_matches_oracle():
    nav = _grid_nav()
    sources = [("Sel", "g11"), ("Arg0", "g00"), ("Arg1", "g22")]
    assert _got(nav, sources, 4) == _want(nav, sources, 4)


def test_grid_single_source_corner():
    nav = _grid_nav()
    sources = [("Sel", "g02")]
    got = _got(nav, sources, 4)
    assert got == _want(nav, sources, 4)
    # lexicographic tie-break: below+left beats left+below renders equal...
    # ("below","left") < ("left","below")
    assert got["g11"] == ("Sel", ("below", "left"))


def test_length_cap_excludes_distant_elements():
    nav = _grid_nav()
    sources = [("Sel", "g00")]
    got = _got(nav, sources, 2)
    assert got == _want(nav, sources, 2)
    assert "g22" not in got  # distance 4 > cap 2
    assert "g21" not in got  # distance 3


def test_source_priority_beats_later_sources():
    nav = _grid_nav()
    # both sources are adjacent to g01; Sel (priority 0) wins the tie
    sources = [("Sel", "g00"), ("Arg0", "g02")]
    got = _got(nav, sources, 4)
    assert got == _want(nav, sources, 4)
    assert got["g01"] == ("Sel", ("right",))


def test_fractions_layout_matches_oracle():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 3, 3, "+", "AddSame"))
    nav = adjacency_graph(env.state)
    sources = [("Sel", "answer_num"), ("Arg0", "n1"), ("Arg1", "n2")]
    assert _got(nav, sources, MAX_PATH_STEPS) == _want(nav, sources, MAX_PATH_STEPS)


def test_mc_addition_layout_matches_oracle():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    nav = adjacency_graph(env.state)
    sources = [
        ("Sel", "answer_tens"),
        ("Arg0", "carry_tens"),
        ("Arg1", "a_tens"),
        ("Arg2", "b_tens"),
    ]
    assert _got(nav, sources, MAX_PATH_STEPS) == _want(nav, sources, MAX_PATH_STEPS)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_subgraphs_match_oracle(rnd):
    nav = _grid_nav()
    # drop a random subset of edges; keep the structure a plain dict
    for x in nav:
        for r in list(nav[x]):
            if rnd.random() < 0.4:
                del nav[x][r]
    sources = [("Sel", "g11"), ("Arg0", "g20")]
    limit = rnd.choice([1, 2, 3, 4])
    assert _got(nav, sources, limit) == _want(nav, sources, limit)


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def test_fractions_add_num_equals_feature_verbatim():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    fv = relative_featurize(env.state, "answer_num", ("n1", "n2"), [EQUALS])
    # the denominators under both numerator arguments are equal
    assert fv["Equals(Arg0.below.value, Arg1.below.value)"] == "T"


def test_adjacency_inverts_relation_direction():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    nav = adjacency_graph(env.state)
    # (n1, above, d1) reads "n1 is above d1": stepping "above" from d1 -> n1
    assert nav["d1"]["above"] == "n1"
    assert nav["n1"]["below"] == "d1"


def test_filled_flags_and_values():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    fv = relative_featurize(env.state, "answer_num", ("n1", "n2"), [EQUALS])
    assert fv["Arg0.value"] == "2"
    assert fv["Arg1.value"] == "4"
    assert fv["Sel.filled"] == "F"
    assert fv["Sel.value"] == ""
    assert fv["Arg0.filled"] == "T"


def test_absolute_featurize_keys_by_element_id():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    fv = absolute_featurize(env.state, [EQUALS])
    assert fv["n1.value"] == "2"
    assert fv["d1.filled"] == "T"
    assert fv["answer_num.filled"] == "F"
    assert fv["Equals(d1.value, d2.value)"] == "T"
    assert not any(k.startswith(("Sel", "Arg")) for k in fv)


def test_cross_column_name_sets_share_column_axis_core():
    # tens- and hundreds-column candidates relabel to the same names along
    # the column axis (above/below chains); only row-boundary left/right
    # chains differ, so transfer flows through the shared core
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    env.step(SAI("answer_ones", UPDATE_FIELD, "6"))
    env.step(SAI("carry_tens", UPDATE_FIELD, "1"))
    fv_tens = relative_featurize(
        env.state, "answer_tens", ("carry_tens", "a_tens", "b_tens"), [EQUALS]
    )
    env.step(SAI("answer_tens", UPDATE_FIELD, "2"))
    env.step(SAI("carry_hund", UPDATE_FIELD, "1"))
    fv_hund = relative_featurize(
        env.state, "answer_hund", ("carry_hund", "a_hund", "b_hund"), [EQUALS]
    )

    def core(fv):
        return {n for n in fv if "left" not in n and "right" not in n}

    assert core(fv_tens) == core(fv_hund)
    assert set(fv_tens) != set(fv_hund)  # row boundaries differ
    # column-shifted values: same name, different digits
    assert fv_tens["Arg1.value"] == "7" and fv_hund["Arg1.value"] == "3"


def test_serialize_features_sorted_lines():
    s = serialize_features({"b.value": "2", "a.value": "1"})
    assert s == "a.value=1\nb.value=2"


# ---------------------------------------------------------------------------
# when-part classifier
# ---------------------------------------------------------------------------


def test_untrained_when_part_fires_optimistically():
    wp = WhenPart()
    assert wp.predict({"Sel.filled": "F"}) == (True, 0.5)


def test_when_part_learns_fire_dont_fire():
    wp = WhenPart()
    wp.add({"Sel.filled": "F"}, "pos")
    wp.add({"Sel.filled": "T"}, "neg")
    assert wp.predict({"Sel.filled": "F"}) == (True, 1.0)
    assert wp.predict({"Sel.filled": "T"}) == (False, 1.0)

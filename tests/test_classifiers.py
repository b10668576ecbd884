"""Decision trees: pinned examples, determinism, and agreement with the
slow reference builders in `reference_trees` on both entry points."""

import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dipl.classifiers import CsrRows, Encoder, dt_fit, dt_fit_binary, fit_encoded
from reference_trees import ref_dt_fit_binary, ref_fit_encoded


def test_pure_root_single_leaf():
    tree = dt_fit([({"f": "a"}, "pos"), ({"f": "b"}, "pos")])
    assert tree.root.is_leaf
    assert tree.predict({"f": "zzz"}) == ("pos", 1.0)


def test_single_separating_feature():
    tree = dt_fit([({"f": "a"}, "pos"), ({"f": "b"}, "neg")])
    assert tree.root.feature == "f"
    assert tree.predict({"f": "a"}) == ("pos", 1.0)
    assert tree.predict({"f": "b"}) == ("neg", 1.0)


def test_xor_needs_depth_two():
    data = [
        ({"a": "0", "b": "0"}, "neg"),
        ({"a": "0", "b": "1"}, "pos"),
        ({"a": "1", "b": "0"}, "pos"),
        ({"a": "1", "b": "1"}, "neg"),
    ]
    tree = dt_fit(data)
    for fv, label in data:
        assert tree.predict(fv)[0] == label
    # root split has zero gain on either feature alone, so the split must
    # recurse one more level
    assert not tree.root.is_leaf
    child = next(iter(tree.root.children.values()))
    assert not child.is_leaf


def test_unseen_value_falls_back_to_node_majority():
    data = [
        ({"f": "a"}, "pos"),
        ({"f": "a"}, "pos"),
        ({"f": "b"}, "neg"),
    ]
    tree = dt_fit(data)
    label, conf = tree.predict({"f": "never-seen"})
    assert label == "pos"
    assert conf == pytest.approx(2 / 3)


def test_missing_feature_is_its_own_category():
    data = [
        ({"f": "a"}, "pos"),
        ({}, "neg"),
        ({}, "neg"),
    ]
    tree = dt_fit(data)
    assert tree.predict({})[0] == "neg"
    assert tree.predict({"f": "a"})[0] == "pos"


def test_majority_tie_breaks_by_label_string():
    tree = dt_fit([({"f": "a"}, "x"), ({"f": "a"}, "y")])
    assert tree.predict({"f": "a"}) == ("x", 0.5)


def test_empty_dataset_raises():
    with pytest.raises(ValueError):
        dt_fit([])


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_order_invariance(rnd):
    data = [
        ({"a": str(rnd.randrange(3)), "b": str(rnd.randrange(2))}, rnd.choice("xy"))
        for _ in range(24)
    ]
    shuffled = list(data)
    rnd.shuffle(shuffled)
    t1, t2 = dt_fit(data), dt_fit(shuffled)
    probes = [{"a": str(i), "b": str(j)} for i in range(4) for j in range(3)]
    for fv in probes:
        assert t1.predict(fv) == t2.predict(fv)


def _render(node, depth=0):
    if node.is_leaf:
        return f"{'  ' * depth}leaf {node.label} {sorted(node.counts.items())}\n"
    out = f"{'  ' * depth}split {node.feature}\n"
    if node.missing_child is not None:
        out += _render(node.missing_child, depth + 1)
    for value in sorted(node.children):
        out += f"{'  ' * depth}={value}\n" + _render(node.children[value], depth + 1)
    return out


def test_binary_and_dense_paths_agree():
    rnd = random.Random(7)
    names = [f"f{i}" for i in range(6)]
    rows, labels = [], []
    for _ in range(60):
        bits = [rnd.randrange(2) for _ in names]
        rows.append(bits)
        labels.append("pos" if (bits[0] ^ bits[3]) or bits[5] else "neg")
    dense_data = [
        ({n: str(b) for n, b in zip(names, bits)}, label)
        for bits, label in zip(rows, labels)
    ]
    enc = _encode(dense_data)
    t_dense = fit_encoded(enc)
    assert _render(t_dense.root) == _render(ref_fit_encoded(enc).root)
    X = sp.csr_matrix(np.array(rows, dtype=np.int8))
    t_sparse = dt_fit_binary(X, labels, names)
    assert _render(t_sparse.root) == _render(ref_dt_fit_binary(X, labels, names).root)
    assert _render(t_dense.root) == _render(t_sparse.root)
    t_rows = dt_fit_binary(CsrRows(X.indptr, X.indices, X.shape), labels, names)
    assert _render(t_rows.root) == _render(t_sparse.root)


# ---------------------------------------------------------------------------
# differential: the builder against the reference builders
# ---------------------------------------------------------------------------


def _encode(dataset):
    """Encoder fed in dataset order, so value codes follow first sight."""
    enc = Encoder()
    for fv, label in dataset:
        enc.add(fv, label)
    return enc


XOR = [
    ({"a": "0", "b": "0"}, "neg"),
    ({"a": "0", "b": "1"}, "pos"),
    ({"a": "1", "b": "0"}, "pos"),
    ({"a": "1", "b": "1"}, "neg"),
]


@st.composite
def categorical_data(draw, labels=st.integers(1, 4), xor=True):
    """Rows over up to five features whose values may be missing, labelled
    at random or by XOR of the first two features, optionally with a copy
    of the first feature under another name (an exact gain tie)."""
    n_feats = draw(st.integers(1, 5))
    k = draw(labels)
    n_rows = draw(st.integers(k, 2 * k + 30))
    cell = st.sampled_from([None, "a", "b", "c"])
    rows = draw(st.lists(st.lists(cell, min_size=n_feats, max_size=n_feats),
                         min_size=n_rows, max_size=n_rows))
    if xor and n_feats >= 2 and draw(st.booleans()):
        ys = ["pos" if (r[0] == "a") != (r[1] == "a") else "neg" for r in rows]
    else:
        # every label occurs at least once
        ys = draw(st.permutations([f"L{i % k:02d}" for i in range(n_rows)]))
    copy = draw(st.sampled_from([None, "a_copy", "z_copy"]))
    dataset = []
    for r, y in zip(rows, ys):
        fv = {f"f{j}": v for j, v in enumerate(r) if v is not None}
        if copy and r[0] is not None:
            fv[copy] = r[0]
        dataset.append((fv, y))
    return dataset


@settings(max_examples=150, deadline=None)
@given(categorical_data())
@example(XOR)
@example([({}, "x"), ({}, "y")])
def test_fit_encoded_matches_reference(dataset):
    enc = _encode(dataset)
    assert _render(fit_encoded(enc).root) == _render(ref_fit_encoded(enc).root)


@settings(max_examples=25, deadline=None)
@given(categorical_data(labels=st.integers(50, 60), xor=False))
def test_many_labels_match_reference(dataset):
    enc = _encode(dataset)
    assert len(set(enc.labels)) >= 50
    assert _render(fit_encoded(enc).root) == _render(ref_fit_encoded(enc).root)


@st.composite
def binary_data(draw):
    """A random 0/1 CSR matrix with shuffled feature names (so column order
    is not name order), random or XOR labels, and maybe a duplicate column."""
    n_feats = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 40))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_feats, max_size=n_feats),
                         min_size=n_rows, max_size=n_rows))
    names = [f"s{p:02d}" for p in draw(st.permutations(range(n_feats)))]
    if draw(st.booleans()):
        names.append("s_dup")
        bits = [b + [b[0]] for b in bits]
    if n_feats >= 2 and draw(st.booleans()):
        labels = [str(b[0] ^ b[1]) for b in bits]
    else:
        labels = draw(st.lists(st.sampled_from("xyz"), min_size=n_rows, max_size=n_rows))
    X = sp.csr_matrix(np.array(bits, dtype=np.int8).reshape(n_rows, len(names)))
    return X, labels, names


@settings(max_examples=150, deadline=None)
@given(binary_data())
def test_dt_fit_binary_matches_reference(data):
    X, labels, names = data
    new, ref = dt_fit_binary(X, labels, names), ref_dt_fit_binary(X, labels, names)
    assert _render(new.root) == _render(ref.root)
    rows = dt_fit_binary(CsrRows(X.indptr, X.indices, X.shape), labels, names)
    assert _render(rows.root) == _render(new.root)


def test_dense_determinism_bitwise():
    data = [
        ({"a": str(i % 3), "b": str(i % 2), "c": str(i % 5)}, "xyz"[i % 3])
        for i in range(30)
    ]
    assert _render(dt_fit(data).root) == _render(dt_fit(data).root)

"""Deterministic decision trees over categorical feature vectors.

A feature vector is a plain dict of feature name -> categorical value
(string); absent keys mean "missing", which is treated as an ordinary
category during fitting.  Splits maximize the Gini impurity reduction
normalized by split information (a gain-ratio variant, with the usual
mean-gain eligibility guard), with ties broken by lexicographically
smallest feature name, so the fitted tree is a pure function of the
dataset (example order never matters).

One builder, `_grow`, fits every tree.  It scores all candidate splits of
a node from one count table of (feature, value) columns by labels, and
gets each feature's missing branch as the parent count minus its valued
branches.  Two entry points feed it:
  * fit_encoded   - categorical rows from an `Encoder` (`dt_fit` wraps it)
  * dt_fit_binary - all-binary CSR rows (`CsrRows` or a CSR matrix), children
                    keyed "0"/"1" ("0" is the missing branch); CSR because a
                    one-hot state is a few "on" slots out of thousands
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FeatureVector = dict[str, str]

_EPS = 1e-12


@dataclass
class Node:
    counts: dict[str, int]
    label: str  # majority label, deterministic tie-break by label string
    confidence: float
    feature: str | None = None
    children: dict[str, "Node"] | None = None  # value -> child
    missing_child: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: Node

    def predict(self, fv: FeatureVector) -> tuple[str, float]:
        node = self.root
        while not node.is_leaf:
            value = fv.get(node.feature)
            if value is None:
                child = node.missing_child
            else:
                child = node.children.get(value)
            if child is None:
                break  # unseen value or missing feature: node majority
            node = child
        return node.label, node.confidence


def _majority(counts: dict[str, int]) -> tuple[str, float]:
    total = sum(counts.values())
    label = min(counts, key=lambda c: (-counts[c], c))
    return label, counts[label] / total


class Encoder:
    """Incremental feature/value integer coder.

    Code 0 is reserved for "missing" in every feature.  Rows are stored as
    code lists aligned with the feature order at append time; rows shorter
    than the current feature count are implicitly missing-padded.
    """

    def __init__(self):
        self.feature_names: list[str] = []
        self.feature_index: dict[str, int] = {}
        self.value_codes: list[dict[str, int]] = []
        self.value_names: list[list[str]] = []
        self.rows: list[list[int]] = []
        self.labels: list[str] = []

    def _feature(self, name: str) -> int:
        j = self.feature_index.get(name)
        if j is None:
            j = len(self.feature_names)
            self.feature_index[name] = j
            self.feature_names.append(name)
            self.value_codes.append({})
            self.value_names.append([None])  # slot 0 = missing
        return j

    def _code(self, j: int, value: str) -> int:
        code = self.value_codes[j].get(value)
        if code is None:
            code = len(self.value_names[j])
            self.value_codes[j][value] = code
            self.value_names[j].append(value)
        return code

    def add(self, fv: FeatureVector, label: str):
        row = [0] * len(self.feature_names)
        for name, value in fv.items():
            j = self._feature(name)
            if j >= len(row):
                row.extend([0] * (j + 1 - len(row)))
            row[j] = self._code(j, value)
        self.rows.append(row)
        self.labels.append(label)

    def matrix(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        n, f = len(self.rows), len(self.feature_names)
        X = np.zeros((n, f), dtype=np.int32)
        for i, row in enumerate(self.rows):
            X[i, : len(row)] = row
        y, label_names = _label_codes(self.labels)
        return X, y, label_names


def _label_codes(labels: list[str]) -> tuple[np.ndarray, list[str]]:
    names = sorted(set(labels))
    code = {name: c for c, name in enumerate(names)}
    return np.array([code[l] for l in labels], dtype=np.int32), names


def _select_split(gains: dict, split_infos: dict, order) -> int | None:
    """Gain-ratio split choice with the usual mean-gain guard.

    Raw impurity reduction favors high-cardinality features that shatter
    the node into singletons; normalizing by split information restores
    generalization.  Only features whose gain reaches the mean positive
    gain compete, which blocks the near-constant-feature pathology.
    Ties break on the lexicographically smallest feature name (callers
    pass `order` sorted that way).
    """
    if not gains:
        return None
    mean_gain = sum(gains.values()) / len(gains)
    best_j, best_ratio = None, 0.0
    for j in order:
        gain = gains.get(j)
        if gain is None or gain + _EPS < mean_gain:
            continue
        ratio = gain / max(split_infos[j], _EPS)
        if ratio > best_ratio + _EPS:
            best_ratio, best_j = ratio, j
    return best_j


@dataclass
class _Columns:
    """One fit's data: rows hold (feature, value) columns, at most one per
    feature, and row erow[i] holds column ecol[i].  Features are numbered
    in name order (a lower number wins a tie) and columns feature by
    feature.  A split reorders the node's slice of `rows` and of the
    entries in place, so each child's slice is contiguous.
    """

    y: np.ndarray  # label code of each row
    label_names: list[str]
    feature_names: list[str]  # by feature number
    col_feature: np.ndarray  # feature number of each column, ascending
    col_value: list[str]  # child key of each column
    missing: str | None  # child key of the no-column branch; None: missing_child
    erow: np.ndarray
    ecol: np.ndarray

    def __post_init__(self):
        self.rows = np.arange(len(self.y), dtype=np.int32)
        self.branch = np.empty(len(self.y), dtype=np.int32)  # scratch, per row


def _grow(t: _Columns, r0: int, r1: int, e0: int, e1: int) -> Node:
    """Subtree over rows t.rows[r0:r1], whose entries are [e0:e1]."""
    node, best = _best_split(t, t.rows[r0:r1], t.erow[e0:e1], t.ecol[e0:e1])
    if best is None:
        return node
    node.feature, node.children = t.feature_names[best], {}
    for b, rs, es in _partition(t, best, r0, r1, e0, e1):
        child = _grow(t, *rs, *es)
        key = t.missing if b < 0 else t.col_value[b]
        if key is None:
            node.missing_child = child
        else:
            node.children[key] = child
    return node


def _best_split(t: _Columns, rows, erow, ecol) -> tuple[Node, int | None]:
    """The node's leaf form and the feature to split it on, if any."""
    bc = np.bincount(t.y[rows], minlength=len(t.label_names))
    present = np.flatnonzero(bc)
    counts = {t.label_names[c]: int(bc[c]) for c in present}
    node = Node(counts, *_majority(counts))
    m = len(rows)
    parent = bc[present].astype(np.float64)
    parent_term = m - (parent ** 2).sum() / m
    if parent_term <= _EPS or len(ecol) == 0:
        return node, None

    # one count table, columns x (labels present here); the missing branch
    # of a feature is the parent count minus the counts of its columns
    n_labels = len(present)
    entry_label = (np.cumsum(bc > 0, dtype=np.int32) - 1)[t.y[erow]]
    table = np.bincount(ecol * n_labels + entry_label, minlength=len(t.col_value) * n_labels)
    table = table.reshape(-1, n_labels)
    cols = np.flatnonzero(table.any(axis=1))
    table = table[cols].astype(np.float64)
    feats, starts = np.unique(t.col_feature[cols], return_index=True)
    missing = parent - np.add.reduceat(table, starts, axis=0)
    sizes, m_sizes = table.sum(axis=1), missing.sum(axis=1)
    child_term = np.add.reduceat(sizes - (table ** 2).sum(axis=1) / sizes, starts)
    child_term += m_sizes - (missing ** 2).sum(axis=1) / np.maximum(m_sizes, 1)
    gain = (parent_term - child_term) / m
    frac = sizes / m
    m_frac = np.where(m_sizes > 0, m_sizes, m) / m  # empty branch: 1 * log2(1) = 0
    split_info = -(np.add.reduceat(frac * np.log2(frac), starts) + m_frac * np.log2(m_frac))
    splittable = np.diff(starts, append=len(cols)) + (m_sizes > 0) > 1
    keep = splittable & (gain > _EPS)
    feats_kept = feats[keep].tolist()
    gains = dict(zip(feats_kept, gain[keep].tolist()))
    split_infos = dict(zip(feats_kept, split_info[keep].tolist()))
    best = _select_split(gains, split_infos, feats_kept)
    if best is None and splittable.any():
        # zero gain everywhere but the node is impure: split anyway on the
        # first splittable feature so consistent data is always separated
        # (XOR needs this); recursion still terminates because children
        # are strictly smaller
        best = int(feats[splittable][0])
    return node, best


def _partition(t: _Columns, best: int, r0: int, r1: int, e0: int, e1: int):
    """Group a node's rows and entries by their branch on feature `best`;
    returns (column or -1 for missing, row bounds, entry bounds) per branch."""
    rows, erow, ecol = t.rows[r0:r1], t.erow[e0:e1], t.ecol[e0:e1]
    lo, hi = np.searchsorted(t.col_feature, [best, best + 1])
    on = (ecol >= lo) & (ecol < hi)
    t.branch[rows] = -1
    t.branch[erow[on]] = ecol[on]
    row_branch, entry_branch = t.branch[rows], t.branch[erow]
    rows[:] = rows[np.argsort(row_branch, kind="stable")]
    by_entry = np.argsort(entry_branch, kind="stable")
    erow[:] = erow[by_entry]
    ecol[:] = ecol[by_entry]
    row_branch.sort()
    entry_branch.sort()
    branches = np.unique(row_branch)  # the missing branch first, then by value
    r = (r0 + np.searchsorted(row_branch, branches)).tolist() + [r1]
    e = (e0 + np.searchsorted(entry_branch, branches)).tolist() + [e1]
    return [(b, r[i : i + 2], e[i : i + 2]) for i, b in enumerate(branches.tolist())]


def fit_encoded(enc: Encoder) -> DecisionTree:
    if not enc.rows:
        raise ValueError("cannot fit on an empty dataset")
    X, y, label_names = enc.matrix()
    order = sorted(range(len(enc.feature_names)), key=lambda j: enc.feature_names[j])
    X = X[:, order]
    # one column per (feature, value code >= 1); code 0 is the missing branch
    n_values = np.array([len(enc.value_names[j]) - 1 for j in order], dtype=np.int32)
    valued = X != 0
    t = _Columns(
        y,
        label_names,
        [enc.feature_names[j] for j in order],
        np.repeat(np.arange(len(order), dtype=np.int32), n_values),
        [value for j in order for value in enc.value_names[j][1:]],
        None,
        np.repeat(np.arange(len(y), dtype=np.int32), valued.sum(axis=1)),
        (X + (np.cumsum(n_values) - n_values - 1))[valued],
    )
    del X, valued  # the dense codes are not needed while growing
    return DecisionTree(_grow(t, 0, len(y), 0, len(t.ecol)))


def dt_fit(dataset: list[tuple[FeatureVector, str]]) -> DecisionTree:
    """Fit from scratch; order-independent by construction."""
    if not dataset:
        raise ValueError("cannot fit on an empty dataset")
    names = sorted({k for fv, _ in dataset for k in fv})
    enc = Encoder()
    for name in names:
        j = enc._feature(name)
        for value in sorted({fv[name] for fv, _ in dataset if name in fv}):
            enc._code(j, value)
    for fv, label in dataset:
        enc.add(fv, label)
    return fit_encoded(enc)


class CsrRows(NamedTuple):
    """Binary rows in CSR form: row i is "1" at columns
    indices[indptr[i]:indptr[i + 1]] and "0" elsewhere."""

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple[int, int]


def dt_fit_binary(X_csr, y_labels: list[str], feature_names: list[str]) -> DecisionTree:
    """Fit on CSR rows (`CsrRows` or a sparse CSR matrix) whose every
    stored entry is a 1; children are keyed "0"/"1"."""
    n = X_csr.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    y, label_names = _label_codes(y_labels)
    order = sorted(range(len(feature_names)), key=feature_names.__getitem__)
    rank = np.argsort(order)
    # a column for each feature that is ever "1"; "0" is the missing branch
    used, ecol = np.unique(rank[X_csr.indices], return_inverse=True)
    t = _Columns(
        y,
        label_names,
        [feature_names[j] for j in order],
        used,
        ["1"] * len(used),
        "0",
        np.repeat(np.arange(n, dtype=np.int32), np.diff(X_csr.indptr)),
        ecol.astype(np.int32),
    )
    return DecisionTree(_grow(t, 0, n, 0, len(t.ecol)))

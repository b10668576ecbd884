"""Slow reference tree builders, kept as oracles for `dipl.classifiers`.

These are the two split searches the package used before it had a single
builder: a per-feature `bincount` scan over dense integer codes, and a
per-label column-sum scan over a scipy CSR matrix.  They share the node
type, majority rule and split choice with the package, and nothing else,
so a differential test against them checks the count table, the
missing/"0" branch arithmetic and the zero-gain fallback of the package's
builder.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from dipl.classifiers import (
    _EPS,
    DecisionTree,
    Encoder,
    Node,
    _majority,
    _select_split,
)


def _counts_dict(y: np.ndarray, label_names: list[str]) -> dict[str, int]:
    bc = np.bincount(y, minlength=len(label_names))
    return {label_names[c]: int(bc[c]) for c in range(len(label_names)) if bc[c]}


def _build_dense(X, y, feature_names, value_names, label_names, order) -> Node:
    counts = _counts_dict(y, label_names)
    label, conf = _majority(counts)
    n = len(y)
    parent_bc = np.bincount(y, minlength=len(label_names)).astype(np.float64)
    parent_term = n - (parent_bc ** 2).sum() / n
    if parent_term <= _EPS:
        return Node(counts, label, conf)

    n_labels = len(label_names)
    gains = {}
    split_infos = {}
    fallback_j = None  # lexicographically first splittable feature
    for j in order:  # lexicographic feature order: first strict max wins ties
        col = X[:, j]
        nv = len(value_names[j])
        cm = np.bincount(col * n_labels + y, minlength=nv * n_labels)
        cm = cm.reshape(nv, n_labels).astype(np.float64)
        sizes = cm.sum(axis=1)
        nz = sizes > 0
        if nz.sum() < 2:
            continue
        if fallback_j is None:
            fallback_j = j
        child_term = (sizes[nz] - (cm[nz] ** 2).sum(axis=1) / sizes[nz]).sum()
        gain = (parent_term - child_term) / n
        if gain > _EPS:
            frac = sizes[nz] / n
            gains[j] = gain
            split_infos[j] = -(frac * np.log2(frac)).sum()
    best_j = _select_split(gains, split_infos, order)
    if best_j is None:
        best_j = fallback_j
    if best_j is None:
        return Node(counts, label, conf)

    node = Node(counts, label, conf, feature=feature_names[best_j], children={})
    col = X[:, best_j]
    for code in np.unique(col):
        mask = col == code
        child = _build_dense(
            X[mask], y[mask], feature_names, value_names, label_names, order
        )
        if code == 0:
            node.missing_child = child
        else:
            node.children[value_names[best_j][code]] = child
    return node


def ref_fit_encoded(enc: Encoder) -> DecisionTree:
    if not enc.rows:
        raise ValueError("cannot fit on an empty dataset")
    X, y, label_names = enc.matrix()
    order = sorted(range(len(enc.feature_names)), key=lambda j: enc.feature_names[j])
    root = _build_dense(X, y, enc.feature_names, enc.value_names, label_names, order)
    return DecisionTree(root)


def ref_dt_fit_binary(X_csr, y_labels: list[str], feature_names: list[str]) -> DecisionTree:
    n = X_csr.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    label_names = sorted(set(y_labels))
    label_code = {name: c for c, name in enumerate(label_names)}
    y = np.array([label_code[l] for l in y_labels], dtype=np.int32)
    Xc = sp.csc_matrix(X_csr)
    order = np.argsort(np.array(feature_names))

    def build(rows: np.ndarray) -> Node:
        yr = y[rows]
        counts = _counts_dict(yr, label_names)
        label, conf = _majority(counts)
        m = len(rows)
        bc = np.bincount(yr, minlength=len(label_names)).astype(np.float64)
        parent_term = m - (bc ** 2).sum() / m
        if parent_term <= _EPS:
            return Node(counts, label, conf)

        Xr = X_csr[rows]
        n1 = np.asarray(Xr.sum(axis=0)).ravel().astype(np.float64)
        sq1 = np.zeros_like(n1)
        sq0 = np.zeros_like(n1)
        for c in np.nonzero(bc)[0]:
            ones_c = np.asarray(Xr[yr == c].sum(axis=0)).ravel().astype(np.float64)
            sq1 += ones_c ** 2
            sq0 += (bc[c] - ones_c) ** 2
        n0 = m - n1
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(n1 > 0, n1 - sq1 / np.where(n1 > 0, n1, 1), 0.0)
            t0 = np.where(n0 > 0, n0 - sq0 / np.where(n0 > 0, n0, 1), 0.0)
        gain_arr = (parent_term - (t1 + t0)) / m
        gain_arr[(n1 == 0) | (n0 == 0)] = 0.0

        gains = {}
        split_infos = {}
        for j in np.nonzero(gain_arr > _EPS)[0]:
            f1 = n1[j] / m
            gains[int(j)] = float(gain_arr[j])
            split_infos[int(j)] = float(
                -(f1 * np.log2(f1) + (1 - f1) * np.log2(1 - f1))
            )
        best_j = _select_split(gains, split_infos, order)
        if best_j is None:
            splittable = (n1 > 0) & (n0 > 0)
            for j in order:
                if splittable[j]:
                    best_j = j
                    break
        if best_j is None:
            return Node(counts, label, conf)

        col = Xc.getcol(int(best_j))
        on = np.zeros(n, dtype=bool)
        on[col.indices] = True
        mask = on[rows]
        node = Node(counts, label, conf, feature=feature_names[best_j], children={})
        node.children["1"] = build(rows[mask])
        node.children["0"] = build(rows[~mask])
        return node

    root = build(np.arange(n))
    return DecisionTree(root)

"""Nested JSON import and export of released private spatial decompositions.

A PSD is something a data owner computes once and then *publishes*; the
published file is FLATPSD2 (:mod:`repro.engine.io`), which ``repro build``
writes.  This module keeps the human-readable form for inspection and for
the golden files: it converts a
:class:`~repro.core.tree.PrivateSpatialDecomposition` to and from a plain
JSON-compatible dictionary containing only released information: the node
rectangles, the released (noisy / post-processed) counts, the per-level
count parameters and the build metadata, with every node nested inside its
parent.  A Hilbert R-tree keeps its one-dimensional index intervals and adds
a ``curve`` block (order and planar domain), so an imported release compiles
to the same planar engine as the one exported; the planar boxes themselves
are never written (a child box may exceed its parent's by rounding).  True
counts and the accountant's internal ledger are intentionally *not*
serialised.  ``repro query``, ``repro serve`` and ``repro compile`` import
such a file as well as FLATPSD2.

The nested JSON is converted straight to and from the breadth-first arrays of
:class:`~repro.core.flatbuild.FlatTree`.  The loader fails closed: structural
invariants (level consistency, children nested inside parents, matching
fanout) and released values (finite counts, ``null`` only for unreleased
counts, post counts on all nodes or none, finite non-negative count
parameters) are validated, so a corrupted or hand-edited file raises
:class:`ValueError` instead of silently producing wrong query answers.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Union

import numpy as np

from ..geometry.domain import Domain
from ..geometry.hilbert import HilbertCurve
from ..geometry.rect import Rect
from .flatbuild import FlatTree
from .tree import PrivateSpatialDecomposition

__all__ = ["psd_to_dict", "psd_from_dict", "save_psd", "load_psd"]

_FORMAT_VERSION = 1


def psd_to_dict(psd: PrivateSpatialDecomposition) -> Dict:
    """Convert a released PSD into a JSON-compatible dictionary.

    Only released information is included; the private true counts and the
    accountant are dropped.
    """
    tree = psd.flat_tree
    n = tree.n_nodes
    lo, hi, level = tree.lo.tolist(), tree.hi.tolist(), tree.level.tolist()
    noisy = [None if v != v else v for v in tree.noisy_count.tolist()]
    post = [None] * n if tree.post_count is None else tree.post_count.tolist()
    nodes = [
        {"lo": lo[i], "hi": hi[i], "level": level[i], "noisy_count": noisy[i],
         "post_count": post[i]}
        for i in range(n)
    ]
    for node, start, stop in zip(nodes, tree.child_start.tolist(), tree.child_end.tolist()):
        if stop > start:
            node["children"] = nodes[start:stop]
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": psd.name,
        "height": psd.height,
        "fanout": psd.fanout,
        "count_epsilons": list(psd.count_epsilons),
        "domain": _domain_to_dict(psd.domain),
        "metadata": dict(psd.metadata),
        "root": nodes[0],
    }
    if psd.curve is not None:
        payload["curve"] = {"order": psd.curve.order,
                            "domain": _domain_to_dict(psd.planar_domain)}
    return payload


def psd_from_dict(payload: Dict) -> PrivateSpatialDecomposition:
    """Rebuild a :class:`PrivateSpatialDecomposition` from :func:`psd_to_dict` output.

    Raises :class:`ValueError` when the payload is malformed, violates the
    structural invariants of a PSD or carries unusable released values.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported PSD format version {version!r}")
    domain = _domain_from_dict(payload["domain"])
    curve = planar_domain = None
    if "curve" in payload:
        planar_domain = _domain_from_dict(payload["curve"]["domain"])
        curve = HilbertCurve(order=int(payload["curve"]["order"]), domain=planar_domain.rect)
        if domain.rect != Rect((0.0,), (curve.max_index + 1.0,)):
            raise ValueError("a Hilbert release's domain must be its curve's index range")
    height = int(payload["height"])
    fanout = int(payload["fanout"])
    count_epsilons = np.asarray([float(e) for e in payload["count_epsilons"]])
    if not np.all(np.isfinite(count_epsilons)) or np.any(count_epsilons < 0):
        raise ValueError("count_epsilons entries must be finite and non-negative")

    # Breadth-first walk of the nested nodes: row i of every array is order[i].
    order: List[Dict] = [payload["root"]]
    parent: List[int] = [-1]
    n_children: List[int] = []
    for i, node in enumerate(order):  # grows while iterating
        children = node.get("children", [])
        order.extend(children)
        parent.extend([i] * len(children))
        n_children.append(len(children))
    n = len(order)
    parent_arr = np.asarray(parent, dtype=np.int64)
    child_count = np.asarray(n_children, dtype=np.int64)

    level = np.asarray([int(node["level"]) for node in order], dtype=np.int64)
    expected = np.empty(n, dtype=np.int64)
    expected[0] = height
    expected[1:] = level[parent_arr[1:]] - 1
    mismatch = np.flatnonzero(level != expected)
    if mismatch.size:
        bad = int(mismatch[0])
        raise ValueError(f"node level {level[bad]} does not match its depth "
                         f"(expected {expected[bad]})")

    lo = _bounds(order, "lo", domain.dims)
    hi = _bounds(order, "hi", domain.dims)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("node bounds must be finite")
    if np.any(lo > hi):
        raise ValueError("node lower bounds must not exceed upper bounds")
    par = parent_arr[1:]
    if np.any(lo[1:] < lo[par]) or np.any(hi[1:] > hi[par]):
        raise ValueError("child rectangle is not contained in its parent")
    if tuple(lo[0]) != domain.rect.lo or tuple(hi[0]) != domain.rect.hi:
        raise ValueError("root rectangle does not match the declared domain")

    noisy = np.asarray([np.nan if node.get("noisy_count") is None else float(node["noisy_count"])
                        for node in order])
    if np.any(np.isinf(noisy)) or np.any(np.isnan(noisy) & _present(order, "noisy_count")):
        raise ValueError("noisy_count must be a finite number or null (unreleased)")
    has_post = _present(order, "post_count")
    post = None
    if has_post.any():
        if not has_post.all():
            raise ValueError("post_count must be present on every node or on none")
        post = np.asarray([float(node["post_count"]) for node in order])
        if not np.all(np.isfinite(post)):
            raise ValueError("post_count must be finite")

    if np.any(level < 0) or np.any(level > height):
        raise ValueError("node level outside [0, height]")
    if np.any((child_count != 0) & (child_count != fanout)):
        raise ValueError("internal node does not have exactly `fanout` children")

    child_start = 1 + np.concatenate(([0], np.cumsum(child_count)[:-1]))
    tree = FlatTree(
        lo=lo,
        hi=hi,
        level=level.astype(np.int32),
        parent=parent_arr,
        child_start=child_start,
        child_end=child_start + child_count,
        true_count=np.zeros(n, dtype=np.int64),
        noisy_count=noisy,
        post_count=post,
        height=height,
        fanout=fanout,
    )
    psd = PrivateSpatialDecomposition(
        flat=tree,
        domain=domain,
        count_epsilons=tuple(count_epsilons.tolist()),
        accountant=None,
        name=str(payload.get("name", "psd")),
        metadata=dict(payload.get("metadata", {})),
    )
    psd.curve, psd.planar_domain = curve, planar_domain
    return psd


def _domain_to_dict(domain: Domain) -> Dict:
    return {"lo": list(domain.rect.lo), "hi": list(domain.rect.hi), "name": domain.name}


def _domain_from_dict(payload: Dict) -> Domain:
    return Domain.from_bounds(payload["lo"], payload["hi"], name=payload.get("name", "domain"))


def _bounds(order: List[Dict], key: str, dims: int) -> np.ndarray:
    rows = [node[key] for node in order]
    if any(len(row) != dims for row in rows):
        raise ValueError(f"every node's {key!r} must have {dims} coordinates (the domain's)")
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dims)


def _present(order: List[Dict], key: str) -> np.ndarray:
    """Which nodes carry a non-null ``key``."""
    return np.asarray([node.get(key) is not None for node in order], dtype=bool)


def save_psd(psd: PrivateSpatialDecomposition, destination: Union[str, IO[str]]) -> None:
    """Serialise ``psd`` as JSON to a path or open text file."""
    payload = psd_to_dict(psd)
    if hasattr(destination, "write"):
        json.dump(payload, destination)
        return
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_psd(source: Union[str, IO[str]]) -> PrivateSpatialDecomposition:
    """Load a PSD previously written by :func:`save_psd`."""
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    return psd_from_dict(payload)

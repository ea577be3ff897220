"""Scoring and result gates, on the JSON the program writes.

Graphs are read as edge lists ``[[i, j, mark], ...]`` with mark ``--`` or
``->``, the format of ``skeleton.json`` and ``cpdag.json``.
"""

from __future__ import annotations

import hashlib
import json


def payload_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON form of a result payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def mismatches(digests: dict[str, str], reference: str) -> list[str]:
    """Names whose digest differs from the reference name's digest."""
    want = digests[reference]
    return sorted(name for name, d in digests.items() if d != want)


def _pairs(edges: list) -> set[tuple[int, int]]:
    return {(min(i, j), max(i, j)) for i, j, _ in edges}


def skeleton_f1(learned: list, truth: list) -> float:
    """F1 of the learned adjacencies against the true ones."""
    got, want = _pairs(learned), _pairs(truth)
    hits = len(got & want)
    if hits == 0:
        return 0.0
    precision = hits / len(got)
    recall = hits / len(want)
    return 2.0 * precision * recall / (precision + recall)


def _edge_types(edges: list) -> dict[tuple[int, int], str]:
    out = {}
    for i, j, mark in edges:
        key = (min(i, j), max(i, j))
        if mark == "--":
            out[key] = "--"
        elif mark == "->":
            out[key] = "->" if i < j else "<-"
        else:
            raise ValueError(f"unknown edge mark {mark!r}")
    return out


def structural_hamming(learned: list, truth: list) -> int:
    """Pairs whose edge differs: missing, extra or oriented differently."""
    got, want = _edge_types(learned), _edge_types(truth)
    return sum(1 for pair in got.keys() | want.keys()
               if got.get(pair) != want.get(pair))

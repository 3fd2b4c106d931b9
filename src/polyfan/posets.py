"""Graded face posets: refinement certificates and isomorphism testing.

Recursive invariants of cones depend only on the isomorphism type of the
face poset, so computed values are memoized under a canonical certificate.
The certificate is produced by iterated partition refinement over the
cover relations; certificate collisions between non-isomorphic posets are
possible in principle and are resolved by an explicit backtracking
isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FacePoset:
    """A graded poset given by ranks and lower covers per element."""

    dims: tuple  # tuple[int, ...], rank of each element
    lower: tuple  # tuple[tuple[int, ...], ...], sorted ids covered by element i
    upper: tuple = field(default=(), compare=False)

    @staticmethod
    def from_relations(dims, lower) -> "FacePoset":
        n = len(dims)
        upper = [[] for _ in range(n)]
        for i, lows in enumerate(lower):
            for j in lows:
                upper[j].append(i)
        return FacePoset(
            tuple(dims),
            tuple(tuple(sorted(l)) for l in lower),
            tuple(tuple(sorted(u)) for u in upper),
        )

    def size(self) -> int:
        return len(self.dims)


def refine_labels(p: FacePoset) -> tuple:
    """Stable labels per element, canonical under isomorphism.

    Starts from ranks and repeatedly appends the multisets of neighbor
    labels below and above, renumbering by sorted order each round so the
    final labels are comparable across posets.
    """
    labels = list(p.dims)
    for _ in range(p.size()):
        signatures = [
            (
                labels[i],
                tuple(sorted(labels[j] for j in p.lower[i])),
                tuple(sorted(labels[j] for j in p.upper[i])),
            )
            for i in range(p.size())
        ]
        order = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        new_labels = [order[sig] for sig in signatures]
        if _partition_of(new_labels) == _partition_of(labels):
            return tuple(new_labels)
        labels = new_labels
    return tuple(labels)


def _partition_of(labels) -> tuple:
    groups: dict = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, []).append(i)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def certificate(p: FacePoset) -> tuple:
    """Isomorphism-invariant key for memo tables."""
    labels = refine_labels(p)
    return tuple(sorted(zip(p.dims, labels)))


def are_isomorphic(p: FacePoset, q: FacePoset) -> bool:
    """Exact graded-poset isomorphism via backtracking on refined labels."""
    if p.size() != q.size() or sorted(p.dims) != sorted(q.dims):
        return False
    lp, lq = refine_labels(p), refine_labels(q)
    if sorted(lp) != sorted(lq):
        return False
    candidates = {}
    by_label_q: dict = {}
    for j, l in enumerate(lq):
        by_label_q.setdefault(l, []).append(j)
    for i, l in enumerate(lp):
        candidates[i] = by_label_q[l]
    # Match elements in increasing rank so cover constraints are checkable
    # as soon as an element is assigned.
    order = sorted(range(p.size()), key=lambda i: (p.dims[i], lp[i]))
    assignment: dict = {}
    used: set = set()

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        wanted_lower = tuple(sorted(assignment[j] for j in p.lower[i]))
        for j in candidates[i]:
            if j in used:
                continue
            if tuple(sorted(q.lower[j])) != wanted_lower:
                continue
            assignment[i] = j
            used.add(j)
            if backtrack(k + 1):
                return True
            del assignment[i]
            used.remove(j)
        return False

    return backtrack(0)


class IsomorphismMemo:
    """Memo table keyed by poset certificate, verified by isomorphism."""

    def __init__(self):
        self._table: dict = {}

    def get(self, p: FacePoset):
        for stored, value in self._table.get(certificate(p), ()):
            if are_isomorphic(stored, p):
                return value
        return None

    def put(self, p: FacePoset, value) -> None:
        self._table.setdefault(certificate(p), []).append((p, value))

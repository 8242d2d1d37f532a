"""Brute-force ground truth: definitional nonevasiveness, backtracking
collapsibility, the Möbius function, and complementation scans.

These are deliberately independent of the certifier so the two sides can
cross-check each other.  Everything is deterministic; memo tables are
per-call unless the caller passes one in to share across a batch.
"""

from __future__ import annotations

from .certify import Leaf, Split, _iterative
from .errors import CapExceeded, EmptyLink
from .complexes import CollapsePair, CollapseSequence

NONEVASIVE_CAP = 12
COLLAPSE_FACE_CAP = 1 << 14


def memo_key(complex_):
    """Canonical serialisation of a complex: equal complexes, equal keys."""
    return (
        tuple(sorted(complex_.vertices)),
        tuple(sorted(tuple(sorted(f)) for f in complex_.facets)),
    )


def brute_nonevasive(complex_, cap=NONEVASIVE_CAP, memo=None):
    """Literal recursion: one vertex, or some vertex whose deletion and
    link are both nonevasive.  An isolated vertex fails its link branch.
    Nonevasive means exactly that a certificate exists."""
    return brute_certificate(complex_, cap, memo) is not None


def brute_certificate(complex_, cap=NONEVASIVE_CAP, memo=None):
    """Search for a certificate that verify_certificate would accept.

    The definitional recursion behind brute_nonevasive, returning a
    witness tree (or None).  The Split nodes carry a synthetic
    mode/link-element, since no lattice is involved; verification ignores
    both.
    """
    if len(complex_.vertices) > cap:
        raise CapExceeded(
            f"{len(complex_.vertices)} vertices exceeds the cap of {cap}"
        )
    if memo is None:
        memo = {}
    return _brute_cert(complex_, memo)


def _brute_cert(c, memo):
    if len(c.vertices) == 1:
        return Leaf(c.vertices[0])
    key = memo_key(c)
    if key in memo:
        return memo[key]
    found = None
    for v in c.vertices:
        try:
            lk = c.link(v)
        except EmptyLink:
            continue
        dl_cert = _brute_cert(c.deletion(v), memo)
        if dl_cert is None:
            continue
        lk_cert = _brute_cert(lk, memo)
        if lk_cert is None:
            continue
        found = Split(v, "case2_atom", v, dl_cert, lk_cert)
        break
    memo[key] = found
    return found


def brute_collapsible(complex_, face_cap=COLLAPSE_FACE_CAP):
    """Backtracking search for a full collapse; returns a witness or None.

    Greedy collapsing is not safe in general, so failed states are
    memoised and the search backtracks over every free pair in canonical
    order.  The witness feeds replay_collapses directly.
    """
    faces = complex_.all_faces()
    if len(faces) > face_cap:
        raise CapExceeded(f"{len(faces)} faces exceeds the cap of {face_cap}")
    if len(faces) % 2 == 0:
        return None  # each collapse removes two faces, one must remain
    vertices = complex_.vertices
    dead_ends = set()

    @_iterative
    def search(current):
        if len(current) == 1:
            (only,) = current
            return [] if len(only) == 1 else None
        state = frozenset(current)
        if state in dead_ends:
            return None
        order = sorted(current, key=lambda f: (len(f), sorted(f)))
        for free in order:
            cofaces = [
                free | {u}
                for u in vertices
                if u not in free and free | {u} in current
            ]
            if len(cofaces) != 1:
                continue
            coface = cofaces[0]
            current.remove(free)
            current.remove(coface)
            tail = yield current
            current.add(free)
            current.add(coface)
            if tail is not None:
                return [(free, coface)] + tail
        dead_ends.add(state)
        return None

    # the search keeps its own stack: each collapse step is one level
    result = search(set(faces))
    if result is None:
        return None
    # the final vertex is whatever single face survives the replay
    remaining = set(faces)
    for free, coface in result:
        remaining.remove(free)
        remaining.remove(coface)
    (last,) = remaining
    (final_vertex,) = last
    return CollapseSequence(
        tuple(CollapsePair(a, b) for a, b in result), final_vertex
    )


def mobius(lattice):
    """Möbius value between bottom and top, by the standard recursion."""
    values = {}
    below = lattice.poset.below
    for e in lattice.poset.linear_extension():
        if e == lattice.bottom:
            values[e] = 1
        else:
            values[e] = -sum(values[u] for u in below(e, strict=True))
    return values[lattice.top]


def find_noncomplemented_element(lattice):
    """First interior element with no complement, or None when all have one."""
    for x in lattice.interior():
        if not lattice.complements(x):
            return x
    return None

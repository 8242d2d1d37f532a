"""Nonevasiveness certification for interiors of complement-deleted lattices.

``certify`` runs the constructive elimination recursion on a lattice and
a chosen interior element, producing a certificate tree whose nodes are
Leaf, Prune and Split; a repeated subproblem is one shared node, so in
memory the tree is a DAG.  ``verify_certificate`` checks a certificate
against a complex using nothing but link/deletion: an order complex on
member masks of its root, where a deletion or a link is one mask
operation and the memo key is the member mask, and any other complex on
its facets.  ``extract_collapses`` compiles a verified certificate into
an explicit elementary-collapse sequence.  Every walker does its work
once per distinct node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial, wraps
from operator import attrgetter

from .complexes import CollapsePair, CollapseSequence, order_complex, replay_collapses
from .errors import (
    ElementOnBoundary,
    EmptyLink,
    InternalAssertion,
    LastVertex,
    NonevadeError,
    ParseError,
    VerificationFailed,
)
from .lattice import _bits

MODES = ("case1_atom", "case1_coatom", "case2_atom", "case2_coatom")

# a field's wire kind by its annotation; a tuple is a list of strings
_KINDS = {"str": str, "bool": bool, "tuple": list, "object": None}


class _Node:
    """A node of a certificate or of a query strategy.  A node type declares
    its wire form once: ``wire=`` names its type and ``field="key"`` each
    field whose document key is not its name.  ``_wire`` lists (key, field,
    kind) in constructor order, which is document order, with the kind of
    each annotation in ``_KINDS``: None for a child.  ``_own`` (an
    attrgetter), ``_kids``, ``_to_obj`` and ``_parser`` all read it.

    ``==`` and ``hash`` walk on an explicit stack and look at each distinct
    node (for ``==``, each pair of nodes) once, so a deep tree needs no
    recursion and a shared one costs time linear in its DAG."""

    def __init_subclass__(cls, wire, **keys):
        cls._type = wire
        cls._wire = [(keys.get(f, f), f, _KINDS[kind])
                     for f, kind in cls.__annotations__.items()]
        cls._own = attrgetter(*[f for _, f, kind in cls._wire if kind])
        cls._kids = tuple(f for _, f, kind in cls._wire if kind is None)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        seen, stack = set(), [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            t = type(a)
            if t is not type(b):
                return False
            if not issubclass(t, _Node):
                if a != b:
                    return False
                continue
            if t._own(a) != t._own(b):
                return False
            if t._kids and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                for k in t._kids:
                    stack.append((getattr(a, k), getattr(b, k)))
        return True

    def __hash__(self):
        return _fold(self, lambda node, *kids: hash(
            (type(node), node._own(node), *kids)
            if isinstance(node, _Node) else node))


def _fold(root, visit):
    """Call ``visit(node, *child_results)`` once per distinct node of a
    certificate or strategy DAG, children first, and return the root's
    result.  Children are the ``_kids`` fields; any other value is a
    childless node.  The stack is explicit and a shared node is visited
    once, so any depth is folded in time linear in the DAG."""
    # (node, None) is to expand, (node, children) to visit; a childless
    # child is visited on sight.  Loops, as a comprehension costs more.
    results, stack = {}, [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            args = []
            for kid in kids:
                args.append(results[id(kid)])
            results[id(node)] = visit(node, *args)
        elif id(node) not in results:
            kids = []
            for name in node._kids:
                kids.append(getattr(node, name))
            stack.append((node, kids))
            for kid in kids:
                if getattr(kid, "_kids", ()):
                    stack.append((kid, None))
                elif id(kid) not in results:
                    results[id(kid)] = visit(kid)
    return results[id(root)]


@dataclass(frozen=True, eq=False)
class Leaf(_Node, wire="leaf"):
    """Single remaining vertex: the recursion's base case."""

    vertex: str


@dataclass(frozen=True, eq=False)
class Prune(_Node, wire="prune"):
    """Interior elements discarded wholesale; the child covers the same complex."""

    removed: tuple
    child: object

    def __post_init__(self):
        object.__setattr__(self, "removed", tuple(self.removed))


@dataclass(frozen=True, eq=False)
class Split(_Node, wire="split", link_element="z"):
    """Recursion on the deletion and the link of ``vertex``.  ``mode``
    records which elimination case chose the vertex; ``link_element`` is the
    element the link child certifies."""

    vertex: str
    mode: str
    link_element: str
    dl: object
    lk: object

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"bad split mode {self.mode!r}")


class CertifyTrace:
    """The decisions a certification run took, stored once per distinct node
    of the certificate DAG.  ``entries`` and ``to_obj`` write them out as the
    tree's preorder log, each entry with its tree depth; ``len`` and
    ``summary`` count the tree's decisions and depth on the DAG without
    writing it out.

    A split's rejected candidates are stored as masks, one (order, witness,
    accepted) triple per scan over the atoms of the lattice or its dual,
    and become ``[label, reason]`` pairs only in ``entries``, labelled by
    the certified lattice, whose root every sublattice of the run shares.
    A scan looks at its atoms in canonical order and stops at the one it
    accepts, so an entry lists the scan's rejections in canonical order up
    to that atom; the order mask holds every atom that fails the order
    test, the later ones included, since it is one whole-mask test."""

    def __init__(self, root, records, lattice):
        self._root, self._records, self._lattice = root, records, lattice

    @property
    def entries(self):
        out, stack = [], [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            entry = {"depth": depth, **self._records[id(node)]}
            if "rejected" in entry:
                entry["rejected"] = _rejections(self._lattice, entry["rejected"])
            out.append(entry)
            stack += [(getattr(node, k), depth + 1) for k in reversed(node._kids)]
        return out

    def __len__(self):
        return certificate_size(self._root)

    def to_obj(self):
        return self.entries

    def summary(self):
        def visit(node, *kids):
            # (decisions per case, height) of the subtree under node
            cases = Counter((self._records[id(node)]["case"],))
            for kid_cases, _ in kids:
                cases.update(kid_cases)
            return cases, max((height + 1 for _, height in kids), default=0)

        cases, max_depth = _fold(self._root, visit)
        parts = [f"{sum(cases.values())} decisions", f"max depth {max_depth}"]
        parts += [f"{k}: {cases[k]}" for k in sorted(cases)]
        return ", ".join(parts)


def _certified(lattice, element):
    """The certified vertex set as a mask over the lattice's root: the
    interior minus the complements of ``element``."""
    if element == lattice.bottom or element == lattice.top:
        raise ElementOnBoundary(f"{element!r} is a bound of the lattice")
    return lattice._interior_mask() & ~lattice._complement_mask(lattice._at(element))


def interior_members(lattice, element):
    """The certified vertex set: interior elements that do not complement ``element``."""
    return lattice._labels(_certified(lattice, element))


def certificate_complex(lattice, element):
    """Order complex of the vertex set certify(lattice, element) works on."""
    return order_complex(lattice._view(_certified(lattice, element)))


def certify(lattice, element):
    """Certify that the order complex for (lattice, element) is nonevasive.

    Returns (certificate, trace).  The recursion eliminates one vertex or
    one discardable set per step, taking the canonically first candidate
    that passes its soundness checks:

    * case1_atom: an atom y with y not below the element and join(element, y)
      below top.  Recurse on the lattice minus y (deletion side) and on the
      interval [y, top] at join(element, y) (link side).
    * case1_coatom: the order dual of the above.
    * prune: when some atom or coatom complements the element, the
      comparability components touching those complements are discarded;
      the complex is unchanged, the ambient lattice shrinks.  When that
      discard set is unusable, single complements whose removal keeps a
      lattice and preserves the remaining complements are pruned instead.
    * case2_atom / case2_coatom: split on an atom below the element (else
      a coatom above it); covers the no-complements endgame and doubles
      as the fallback when no other step applies.
    * Leaf: the element is the only interior element left.

    A split on a vertex y is only sound when the deletion keeps the
    complement set intact and the link-side complement identity holds
    (complements of the link element inside the interval are exactly the
    surviving complements of the certified element).  When the element is
    noncomplemented both conditions always hold and the first case-1
    candidate passes; when it has complements they can genuinely
    fail for individual candidates, so every candidate is screened
    against them and rejected candidates are recorded in the trace.  The
    screen runs on the very child lattices the recursion then certifies.

    Conditions the theory does promise (discard sets avoid the element
    and leave a lattice, a split vertex is a vertex and its link element
    is interior) are still re-checked; a violation raises
    InternalAssertion because it indicates a bug, never bad input.

    Different paths through the recursion often reach sublattices with
    the same interior and the same element.  A step reads only the
    interior, since the bounds lie below and above all of it, so
    sublattices that differ only in their bounds are one subproblem.  One
    call solves each subproblem once and returns the same node object
    wherever it recurs, so the certificate is a DAG whose size in memory
    is the number of distinct subproblems; it still reads as a tree (its
    JSON is the tree written out).  The recursion runs on an explicit
    stack, so any depth is certified.  The trace stores each distinct
    node's decision once and is written out as the tree's preorder log
    only by its ``entries`` and ``to_obj``.
    """
    # complements are interior, so the certified set fixes them
    co = lattice._interior_mask() & ~_certified(lattice, element)
    records = {}
    cert = _certify((lattice, element, co, records))
    return cert, CertifyTrace(cert, records, lattice)


_UNSEEN = object()


def _iterative(step, key=None):
    """Run the recursion ``step`` on an explicit stack, at any depth.  It is
    a generator function that yields the argument of each recursive call,
    in order, is sent back that call's result and returns its own.

    With ``key``, one run keeps each call's result under ``key(arg)`` and
    answers a later call with an equal key from it instead of stepping
    again.  This serves the recursions whose key carries context besides
    a node (a lattice view, a complex), the brute-force searches of
    ``oracles`` and the parsers, whose input is a tree; a walk keyed on
    the node alone is a ``_fold``."""
    @wraps(step)
    def run(arg):
        # keys runs parallel to stack; the first call is never looked up
        memo, keys, stack, result = {}, [None], [step(arg)], None
        while stack:
            try:
                arg = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
                if key is not None:
                    memo[keys.pop()] = result
            else:
                if key is not None:
                    k = key(arg)
                    result = memo.get(k, _UNSEEN)
                    if result is not _UNSEEN:
                        continue
                    keys.append(k)
                stack.append(step(arg))
                result = None
        return result
    return run


def _split_sound(S, px, y, co):
    """The deletion and link children of a split on the atom of S at
    position y, or None when the split is unsound: the deletion must keep
    the complement set of the element at px (the mask co), and the
    complements of join(x, y) in [y, top] must be exactly the members of co
    above y.  A coatom split is screened on the dual."""
    dl = S._remove_atom(y)
    if dl._complement_mask(px) != co:
        return None
    lk = S._interval(y, S._bounds[1])
    if lk._complement_mask(S._join(px, y)) != co & lk._mask:
        return None
    return dl, lk


def _first_sound(S, px, candidates, co):
    """The canonically first atom of S among the positions ``candidates``
    whose split passes the screen, as (position, children, mask of the
    candidates before it that failed the screen); the position and the
    children are None when none passes."""
    witness = 0
    while candidates:
        y = S._first(candidates)
        children = _split_sound(S, px, y, co)
        if children is not None:
            return y, children, witness
        witness |= 1 << y
        candidates ^= 1 << y
    return None, None, witness


def _rejections(L, scans):
    """A split's rejected candidates as [label, reason] pairs: per scan, the
    atoms that failed the order test or the screen, in canonical order up
    to the atom the scan accepted, if it accepted one, labelled by L."""
    out, rank = [], L._rank
    for order, witness, accepted in scans:
        for p in L._sorted(order | witness):
            if accepted is not None and rank[p] > rank[accepted]:
                break
            out.append([L._label[p], "order" if order >> p & 1 else "witness"])
    return out


def _record(records, node, **entry):
    """Store the decision that made ``node`` under its id, and return it."""
    records[id(node)] = entry
    return node


# a step reads only the interior and x: the bounds lie below and above
# all of it, and a lattice's size is its interior's plus 2.  So
# sublattices that differ only in their bounds share one node.  Every
# view a run reaches has the root call's orientation, since coatom
# children are dualled back, so the key leaves the orientation out
@partial(_iterative, key=lambda args: (args[0]._interior_mask(), args[1]))
def _certify(args):
    """The certificate for (L, x), where co is the complement mask of x;
    a recursive call yields (view, element, complement mask, records).  The
    caller has checked that x is interior and computed co: the root call by
    ``_certified``, a child's by the screen it passed.  A prune or split
    that fails its checks returns before any node is built, so every node
    recorded is in the certificate.

    The step runs on positions and masks.  The case-1 order test is one
    mask test per side and one AND per atom: the atoms below x are
    ``atom_mask & down[x]``, and join(x, y) is the least member above both,
    so it is the top exactly when the members above x and y are the top
    alone.  Candidates are taken in canonical order, the first found
    without a sort, and the children come from ``_remove_atom`` and
    ``_interval``, which derive their atoms and coatoms incrementally."""
    L, x, co, records = args
    px = L._pos[x]
    if L._interior_mask().bit_count() == 1:
        return _record(records, Leaf(x), case="leaf", lattice_size=len(L),
                       interior_size=1, vertex=x)

    # a coatom step on L is an atom step on its dual, so every scan runs
    # over both sides; remember whether the plain order-theoretic case-1
    # conditions ever matched, since the prune step is only guaranteed when
    # they never do
    sides = ((L, "atom"), (L.dual(), "coatom"))
    had_case1_candidate = False
    scans = []  # (order, witness, accepted) per scan, for the trace
    for S, side in sides:
        up, top = S._up, 1 << S._bounds[1]
        above_x = up[px] & S._mask
        order = S._atom_mask & S._down[px]
        for y in _bits(S._atom_mask & ~order):
            if up[y] & above_x == top:
                order |= 1 << y
        had_case1_candidate |= order != S._atom_mask
        y, children, witness = _first_sound(S, px, S._atom_mask & ~order, co)
        scans.append((order, witness, y))
        if y is not None:
            return (yield from _emit_split(args, S, side, y, children, "case1", scans))

    # prune: complements sitting among atoms/coatoms drag their whole
    # comparability components out of the lattice
    seeds = (L._atom_mask | L._coatom_mask) & co
    if seeds:
        removed = 0
        for comp in L._components():
            if comp & seeds:
                removed |= comp
        node = yield from _try_prune(args, removed, hard=not had_case1_candidate)
        if node is not None:
            return node

    # fallback prune: discard complements one at a time where sound
    for s in L._sorted(co):
        node = yield from _try_prune(args, 1 << s, hard=False)
        if node is not None:
            return node

    # comparable splits: an atom below x, else a coatom above x; with no
    # complements anywhere this is the classic endgame and always succeeds
    for S, side in sides:
        below_x = S._atom_mask & S._down[px] & ~(1 << px)
        y, children, witness = _first_sound(S, px, below_x, co)
        scans.append((0, witness, y))
        if y is not None:
            return (yield from _emit_split(args, S, side, y, children, "case2", scans))

    raise InternalAssertion(
        "no-sound-step",
        f"no vertex or discard passes the soundness screen "
        f"(element {x!r}, interior {sorted(L.interior())}, "
        f"complements {sorted(L._labels(co))})",
    )


def _try_prune(args, removed, hard):
    """Validate and emit a Prune of the members in the mask ``removed``, or
    report why it is unusable.

    With hard=True (the scans produced no case-1 candidate at all, so the
    discard is theory-guaranteed) failures raise InternalAssertion; with
    hard=False the caller falls through to the next stage.
    """
    L, x, co, records = args

    def fail(tag, detail):
        if hard:
            raise InternalAssertion(tag, detail)
        return None

    if removed >> L._pos[x] & 1:
        return fail("prune-contains-element",
                    f"{x!r} in discard set {sorted(L._labels(removed))}")
    if removed & ~co:
        return fail("prune-not-complements",
                    f"{sorted(L._labels(removed & ~co))} are not complements of {x!r}")
    try:
        child_lattice = L._restrict(L._mask & ~removed)
    except NonevadeError as exc:
        return fail("prune-sublattice", str(exc))
    if child_lattice._complement_mask(L._pos[x]) != co & ~removed:
        return fail("prune-invariance",
                    "complement set changed after discarding")
    removed_ordered = L._labels(removed)
    child = yield child_lattice, x, co & ~removed, records
    return _record(records, Prune(removed_ordered, child), case="prune",
                   lattice_size=len(L),
                   interior_size=(L._interior_mask() & ~co).bit_count(),
                   removed=list(removed_ordered))


def _emit_split(args, S, side, y, children, case, scans):
    """Split on the atom of S at position y, where S is the lattice or its
    dual, recursing on the children that passed the soundness screen.

    Children built on the dual are dualled back, so the recursion always
    sees the lattice in its original orientation.
    """
    L, x, co, records = args
    members = L._interior_mask() & ~co
    vertex = S._label[y]
    if not members >> y & 1:
        raise InternalAssertion("split-vertex-outside",
                                f"{vertex!r} not in {S._labels(members)}")
    pz = S._join(S._pos[x], y)
    z = S._label[pz]
    if pz in S._bounds:
        raise InternalAssertion("split-degenerate-z", f"z={z!r} for vertex {vertex!r}")
    dl_lattice, lk_lattice = children
    if side == "coatom":
        dl_lattice, lk_lattice = dl_lattice.dual(), lk_lattice.dual()
    mode = f"{case}_{side}"
    dl = yield dl_lattice, x, co, records
    lk = yield lk_lattice, z, co & lk_lattice._mask, records
    return _record(records, Split(vertex, mode, z, dl, lk), case=mode,
                   lattice_size=len(S), interior_size=members.bit_count(),
                   vertex=vertex, link_element=z, rejected=scans)


# --- complex-level verification ------------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verify_certificate: ok flag plus first-failure location."""

    ok: bool
    path: tuple = ()
    reason: str = ""

    def __bool__(self):
        return self.ok


def verify_certificate(complex_, certificate):
    """Check a certificate against a complex, using only link and deletion.

    No lattice reasoning is involved: a Leaf must sit on a one-vertex
    complex, a Prune must remove nothing that is present and its child
    must verify against the same complex, and a Split's children must
    verify against the deletion and link of its vertex.  Returns a
    VerifyResult carrying the path to the first failing node.

    The walk takes the complex's own link and deletion steps: one mask
    step each on an order complex, whose member mask fixes it, and a pass
    over the facets on any other; both give the same result.  A node
    reached again with an equal complex is not checked again: the memo
    key is the node with the vertex mask and the facets (None on an order
    complex).  All complexes of one call share the input's vertex ground,
    and a failure ends the walk, so only ok results are ever reused.
    """
    return _verify((complex_, certificate, ()))


def _verify_key(args):
    c, node, _ = args
    return id(node), c._vmask, c._facets


@partial(_iterative, key=_verify_key)
def _verify(args):
    c, node, path = args
    vmask = c._vmask
    if isinstance(node, Leaf):
        vertex = c._label[vmask.bit_length() - 1]
        if vmask & (vmask - 1):
            reason = f"leaf against {vmask.bit_count()}-vertex complex"
        elif vertex != node.vertex:
            reason = f"leaf names {node.vertex!r} but the vertex is {vertex!r}"
        else:
            return VerifyResult(True)
        return VerifyResult(False, path, reason)
    if isinstance(node, Prune):
        overlap = {v for v in node.removed if c._mask((v,))}
        if overlap:
            return VerifyResult(
                False, path, f"pruned vertices {sorted(overlap)} are present"
            )
        return (yield c, node.child, path + ("child",))
    if isinstance(node, Split):
        b = c._mask((node.vertex,))
        if not b:
            return VerifyResult(False, path, f"split vertex {node.vertex!r} missing")
        try:
            dl = c._deletion(b)
        except LastVertex as exc:
            return VerifyResult(False, path, f"deletion failed: {exc}")
        result = yield dl, node.dl, path + ("dl",)
        if not result.ok:
            return result
        try:
            lk = c._link(b)
        except EmptyLink as exc:
            return VerifyResult(False, path + ("lk",), f"link failed: {exc}")
        return (yield lk, node.lk, path + ("lk",))
    return VerifyResult(False, path, f"unknown node {type(node).__name__}")


# --- collapse extraction ----------------------------------------------------------


def extract_collapses(certificate, complex_):
    """Compile a verified certificate into an elementary collapse sequence.

    The link child's sequence is lifted by the split vertex (collapsing
    the vertex's star onto the cone over the link's final vertex), then
    the pair ({vertex}, {vertex, final}) removes the cone, and the
    deletion child finishes.  The result is replay-checked before being
    returned.
    """
    result = verify_certificate(complex_, certificate)
    if not result.ok:
        raise VerificationFailed(
            f"certificate fails at {'/'.join(result.path) or 'root'}: {result.reason}"
        )
    raw, final = _fold(certificate, _extract)
    sequence = CollapseSequence(
        tuple(CollapsePair(a, b) for a, b in raw), final
    )
    replay_collapses(complex_, sequence)
    return sequence


def _extract(node, *kids):
    if isinstance(node, Leaf):
        return [], node.vertex
    if isinstance(node, Prune):
        return kids[0]
    y = node.vertex
    (dl_pairs, final), (lk_pairs, w) = kids
    lifted = [(a | {y}, b | {y}) for a, b in lk_pairs]
    lifted.append((frozenset({y}), frozenset({y, w})))
    return lifted + dl_pairs, final


# --- structural helpers -----------------------------------------------------------


def certificate_ground(certificate):
    """The vertex set a certificate claims to certify."""
    ground, node = set(), certificate
    while not isinstance(node, Leaf):
        if isinstance(node, Prune):
            node = node.child
        else:
            ground.add(node.vertex)
            node = node.dl
    ground.add(node.vertex)
    return frozenset(ground)


def certificate_size(certificate):
    """Number of nodes of the certificate as a tree, counted on its DAG."""
    return _fold(certificate, lambda node, *kids: 1 + sum(kids))


def certificate_to_obj(certificate):
    """The certificate as JSON-ready dicts, built once per distinct node: a
    node shared in the DAG is one shared sub-object of the result."""
    return _fold(certificate, _to_obj)


def _to_obj(node, *kids):
    """The wire form of one node, given its children's; a ``_fold`` visit."""
    obj, kids = {"type": node._type}, iter(kids)
    for key, name, kind in node._wire:
        value = next(kids) if kind is None else getattr(node, name)
        obj[key] = list(value) if kind is list else value
    return obj


def _parser(what, *types):
    """The parser of the documents whose nodes are ``types``: it refuses a
    node of an unknown type, a missing field and a field of the wrong kind
    with ParseError.  It runs on ``_iterative`` because its input is a tree."""
    by_type = {t._type: t for t in types}

    @_iterative
    def parse(obj):
        try:
            t, args = by_type[obj["type"]], []
        except (KeyError, TypeError):
            raise ParseError(f"{what} node must be an object whose type is "
                             f"one of {', '.join(by_type)}") from None
        for key, _, kind in t._wire:
            if key not in obj:
                raise ParseError(f"bad {what} node: {key!r} is missing")
            value = obj[key]
            if kind is None:
                value = yield value
            elif not isinstance(value, kind) or kind is list and not all(
                    isinstance(v, str) for v in value):
                want = "list of strings" if kind is list else kind.__name__
                raise ParseError(f"bad {what} node: {key!r} is missing or not a {want}")
            args.append(value)
        try:
            return t(*args)
        except ValueError as exc:
            raise ParseError(f"bad {what} node: {exc}") from None
    return parse


certificate_from_obj = _parser("certificate", Leaf, Prune, Split)


# --- lattice-level audit ------------------------------------------------------------


@dataclass
class AuditReport:
    """Per-node re-derivation of a certificate against its source lattice."""

    splits: int = 0
    prunes: int = 0
    leaves: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def audit_certificate(lattice, element, certificate):
    """Re-derive every node of a certificate and check the proof identities.

    At each Split the child lattices are reconstructed from the recorded
    mode, and the audit checks (a) that the child complexes equal the
    deletion and link of the parent complex, and (b) the complement-set
    identities behind the case-1 reductions (or emptiness for case 2).
    Prunes must leave the complex unchanged.  Returns an AuditReport
    listing every discrepancy, at every path where it occurs.  A node
    reached again on a sublattice with the same interior and the same
    element is not audited again, since the bounds lie below and above
    all of the interior: its tally, failures included, is reused under
    the new path.

    A node of another type fails as "unknown node", as in verify.

    Every complex here is the order complex of a set of members of one
    root, and the order complex of a poset is fixed by its member set,
    whatever the view's orientation.  So (a) compares vertex masks and
    builds no complex: deleting y from Δ(P) gives Δ(P − y), and the link
    of y is Δ(P<y ⊕ P>y), the order complex of the members comparable to
    y (Björner, *Topological methods*, Handbook of Combinatorics, 1995).
    With c the certified mask of the parent, the deletion child's mask
    must be c & ~y and the link child's c ∩ (up[y] ∪ down[y]) ∖ y.
    ``verify_certificate`` walks an order complex on the same masks, and
    any other complex on its facets.
    """
    splits, prunes, leaves, failures = _audit(
        (lattice, element, certificate, _certified(lattice, element))
    )
    return AuditReport(splits, prunes, leaves, [
        f"{'/'.join(path) or 'root'}: {what}" for path, what in failures
    ])


def _below(step, failures):
    """Failures of a child, with their paths made relative to the parent."""
    return [((step,) + path, what) for path, what in failures]


# the complex a node is audited against is the certified complex of its
# (interior, element), so that pair and the node identify the audit; as
# in ``_certify``, every view has the root call's orientation
@partial(_iterative, key=lambda args: (
    id(args[2]), args[0]._interior_mask(), args[1]))
def _audit(args):
    """Tally (splits, prunes, leaves, failures) of one subtree, audited
    against c, the certified mask of (L, x); a failure is a (path below
    this node, message) pair."""
    L, x, node, c = args
    co = L._interior_mask() & ~c  # complements are interior
    if isinstance(node, Leaf):
        if c.bit_count() != 1 or L._label[c.bit_length() - 1] != node.vertex:
            return 0, 0, 1, [((), "leaf does not match the complex")]
        return 0, 0, 1, []
    if isinstance(node, Prune):
        if x in node.removed:
            return 0, 1, 0, [((), "prune removed the certified element")]
        removed = 0
        for e in node.removed:
            p = L._pos.get(e)
            if p is None or not co >> p & 1:
                return 0, 1, 0, [((), "prune removed non-complements")]
            removed |= 1 << p
        try:
            child_L = L._restrict(L._mask & ~removed)
        except NonevadeError as exc:
            return 0, 1, 0, [((), f"prune leaves no lattice: {exc}")]
        if _certified(child_L, x) != c:
            return 0, 1, 0, [((), "complex changed across a prune")]
        splits, prunes, leaves, failures = yield child_L, x, node.child, c
        return splits, prunes + 1, leaves, _below("child", failures)
    if not isinstance(node, Split):
        return 0, 0, 0, [((), f"unknown node {type(node).__name__}")]
    # a coatom step is audited as an atom step of the dual
    y = node.vertex
    case, side = node.mode.split("_")
    S = L.dual() if side == "coatom" else L
    p = L._pos.get(y) if isinstance(y, str) else None
    if y == x or p is None or not S._atom_mask >> p & 1 or not c >> p & 1:
        return 1, 0, 0, [((), (
            f"{node.mode} split vertex {y!r} is not one of the "
            f"{side}s in the complex other than {x!r}"
        ))]
    failures = []
    px = L._pos[x]
    dl_L, lk_L = S._remove_atom(p), S._interval(p, S._bounds[1])
    if side == "coatom":
        dl_L, lk_L = dl_L.dual(), lk_L.dual()
    z = L._label[S._join(px, p)]
    if (case == "case2") != bool(S._down[px] >> p & 1):
        failures.append(f"mode {node.mode} disagrees with how {y!r} compares to {x!r}")
    if node.link_element != z:
        failures.append(f"recorded link element {node.link_element!r}, derived {z!r}")
    dl_c, lk_c = _certified(dl_L, x), _certified(lk_L, z)
    if dl_L._interior_mask() & ~dl_c != co:
        failures.append("deletion-side complement set changed")
    if lk_L._interior_mask() & ~lk_c != co & lk_L._mask:
        failures.append("link-side complement set mismatch")
    if dl_c != c & ~(1 << p):
        failures.append(f"deletion identity fails at {y!r}")
    if lk_c != c & (L._up[p] | L._down[p]) & ~(1 << p):
        failures.append(f"link identity fails at {y!r}")
    dl_splits, dl_prunes, dl_leaves, dl_failures = yield dl_L, x, node.dl, dl_c
    lk_splits, lk_prunes, lk_leaves, lk_failures = yield lk_L, z, node.lk, lk_c
    return (
        1 + dl_splits + lk_splits, dl_prunes + lk_prunes, dl_leaves + lk_leaves,
        [((), what) for what in failures]
        + _below("dl", dl_failures) + _below("lk", lk_failures),
    )

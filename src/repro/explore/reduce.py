"""State-space reduction for the on-the-fly layer: confluence, symmetry, fingerprints.

The lazy products of :mod:`repro.explore.products` keep Section 6's "direct
product of states" *implicit*, but :func:`~repro.explore.onthefly.check_implicit`
still enumerates every interleaving the bisimulation game touches.  For the
protocol workloads of :mod:`repro.protocols` that is the binding constraint:
a quorum-voting instance at ``n = 25`` has on the order of :math:`4^{25}`
product states, almost all of them permutations and reorderings of each
other.  This module supplies the three standard reductions, each as a wrapper
that *is itself* an :class:`~repro.explore.implicit.ImplicitLTS`, so they
compose with the products, the checker and the protocol verbs unchanged:

* **Partial-order reduction** (:class:`ConfluenceReducer`) -- tau-confluence
  prioritisation in the Groote/van de Pol style.  When a state has a
  *strongly confluent* tau move (every other move can be mimicked after it,
  closing the diamond with at most one tau), all other moves are provably
  redundant for weak/branching equivalence and for deadlock/livelock
  reachability, and the reducer keeps only the confluent tau.  Soundness
  conditions enforced here:

  - the prioritised tau must preserve the extension set (the game compares
    ``E(q)`` at every pair);
  - the **cycle proviso**: a tau move into a state whose successors were
    already reduced is never prioritised, so prioritised edges form a DAG
    and a tau cycle can never swallow the rest of the system (the classic
    "ignoring problem" that would make livelock detection unsound).

  Confluence prioritisation is *not* sound for strong bisimilarity (it
  deliberately collapses tau branching), so equivalence checking applies it
  only under the observational notion; reachability (deadlock / livelock)
  search may always use it.

* **Symmetry reduction** (:class:`SymmetryReducer`) -- quotient by a
  declared automorphism group, implemented as canonical-form hashing: every
  state is flattened into its tuple of leaf states (following the product
  layout the reducer compiles once from the composition tree),
  canonicalised (:class:`RotationSymmetry` minimises over ring rotations,
  :class:`FullPermutationSymmetry` sorts each interchangeable group), and
  rebuilt.  The orbit relation of a label-preserving automorphism group is a
  strong bisimulation, so a label-preserving symmetry is sound for *every*
  notion the checker supports; a symmetry that permutes observable labels
  (rotating a token ring maps ``serve0`` to ``serve1``) still preserves
  deadlock and livelock existence and is accepted for stuck-state search
  only.  Symmetries are *declared* (:func:`annotate_symmetry` on the spec
  root, done by the library builders for the symmetric families), never
  guessed; ``validate=True`` re-checks the generators state by state.

* **Fingerprint frontiers** (:class:`Fingerprinter`) -- the checker's
  visited set stores product *pairs* as nested tuples, which is what runs
  out of memory first on :math:`10^8`-pair explorations.  A fingerprint
  packs two independently salted 64-bit hashes into one ~128-bit integer
  per pair, shrinking the frontier by more than an order of magnitude.  A
  fingerprint collision could silently merge two distinct pairs, so every
  consumer keeps an escape hatch: ``frontier="exact"`` restores full keys,
  and any distinguishing trace or stuck-state trace produced under a
  compact frontier is re-verified by replay against the *unreduced*
  systems before it is reported.

:func:`prepare_operand` is the single dispatch point: it resolves a spec /
FSP / implicit operand, reads the declared symmetry, and stacks the wrappers
requested by a ``reduction`` mode (``"none"``, ``"por"``, ``"symmetry"`` or
``"full"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU
from repro.explore.implicit import ImplicitLTS, Move, State, as_implicit
from repro.explore.products import _LazyProduct, _LazyWrapper

__all__ = [
    "FRONTIERS",
    "REDUCTIONS",
    "ConfluenceReducer",
    "Fingerprinter",
    "FullPermutationSymmetry",
    "RotationSymmetry",
    "SymmetryReducer",
    "annotate_symmetry",
    "canonical_bytes",
    "declared_symmetry",
    "normalize_frontier",
    "normalize_reduction",
    "prepare_operand",
    "structural_state_estimate",
]

#: the reduction modes threaded through ``check_implicit`` / ``find_stuck`` /
#: the engine, CLI and service: apply nothing, only partial-order reduction,
#: only symmetry reduction, or both.
REDUCTIONS = ("none", "por", "symmetry", "full")

#: visited-frontier representations: full keys, or ~128-bit fingerprints.
FRONTIERS = ("exact", "compact")


def normalize_reduction(reduction) -> str:
    """Validate a reduction mode (``None`` means ``"none"``)."""
    mode = "none" if reduction is None else str(reduction)
    if mode not in REDUCTIONS:
        raise InvalidProcessError(
            f"unknown reduction {reduction!r}; known: {', '.join(REDUCTIONS)}"
        )
    return mode


def normalize_frontier(frontier) -> str:
    """Validate a frontier representation (``None`` means ``"exact"``)."""
    choice = "exact" if frontier is None else str(frontier)
    if choice not in FRONTIERS:
        raise InvalidProcessError(
            f"unknown frontier {frontier!r}; known: {', '.join(FRONTIERS)}"
        )
    return choice


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
#: the default second-hash salt (the 64-bit golden ratio, an arbitrary odd
#: constant); both halves go through Python's SipHash, so the two 64-bit
#: lanes are independent for any fixed salt.
_FP_SALT = 0x9E3779B97F4A7C15


class Fingerprinter:
    """Hash-compact states into ~128-bit integers.

    ``fp(value)`` packs ``hash(value)`` and ``hash((salt, value))`` into one
    int.  Storing these instead of nested state tuples keeps a visited set's
    size proportional to the *count* of states, not their depth.  Two
    distinct values collide with probability about :math:`2^{-128}` per
    pair -- vanishing for any feasible exploration, but not zero, which is
    why compact-frontier consumers re-verify their traces on the unreduced
    systems (and accept ``frontier="exact"`` as the escape hatch).
    """

    __slots__ = ("salt",)

    def __init__(self, salt: int = _FP_SALT) -> None:
        self.salt = salt

    def __call__(self, value) -> int:
        return ((hash((self.salt, value)) & _MASK64) << 64) | (hash(value) & _MASK64)


# ----------------------------------------------------------------------
# The leaf layout of a composition tree
# ----------------------------------------------------------------------
def _compile_layout(node: ImplicitLTS):
    """The product shape of ``node`` as plain data, walked once per reducer.

    ``None`` stands for a leaf and a pair ``(left, right)`` for a binary
    product; unary operators and stacked reducers pass states through
    unchanged, so they vanish from the layout.
    """
    while isinstance(node, (_LazyWrapper, SymmetryReducer, ConfluenceReducer)):
        node = node.inner
    if isinstance(node, _LazyProduct):
        return (_compile_layout(node.left), _compile_layout(node.right))
    return None


def _leaves(layout, state, out: list) -> None:
    """Append the leaf states of ``state`` (left-to-right) to ``out``."""
    if layout is None:
        out.append(state)
    else:
        _leaves(layout[0], state[0], out)
        _leaves(layout[1], state[1], out)


def _rebuild(layout, leaves: Iterator):
    """The product state whose leaves, left-to-right, are drawn from ``leaves``."""
    if layout is None:
        return next(leaves)
    return (_rebuild(layout[0], leaves), _rebuild(layout[1], leaves))


def _leaf_count(layout) -> int:
    if layout is None:
        return 1
    return _leaf_count(layout[0]) + _leaf_count(layout[1])


def _state_key(state) -> str:
    """A total order on leaf states (FSP states are strings; terms use repr)."""
    if isinstance(state, str):
        return state
    return f"{type(state).__name__}:{state!r}"


# ----------------------------------------------------------------------
# Symmetry declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FullPermutationSymmetry:
    """Arbitrary permutations within each group of leaf positions.

    Declares that the leaves at the positions of each ``group`` are fully
    interchangeable: any permutation within a group, applied to the flat
    leaf-state tuple, is an automorphism of the composed system.  The
    counting-synchroniser quorum systems of :mod:`repro.protocols.model`
    have exactly this shape -- the counter receives any sender's message
    without tracking identity, and every role channel is restricted, so
    permuting the (identical, index-renamed) role machines preserves labels.

    ``canonical`` sorts each group's sub-tuple, i.e. forgets *which* leaf is
    in which local state and keeps only the multiset -- the orbit's least
    representative.
    """

    groups: tuple[tuple[int, ...], ...]
    label_preserving: bool = True

    def __init__(self, groups, label_preserving: bool = True) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(int(p) for p in group) for group in groups)
        )
        object.__setattr__(self, "label_preserving", bool(label_preserving))
        _check_positions(self.groups, "permutation group")

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for group in self.groups for p in group)

    def canonical(self, flat: tuple) -> tuple:
        out = list(flat)
        for group in self.groups:
            for position, state in zip(
                group, sorted((out[p] for p in group), key=_state_key)
            ):
                out[position] = state
        return tuple(out)

    def generator_images(self, flat: tuple) -> Iterator[tuple]:
        """Adjacent transpositions: enough to generate each group's S_n."""
        for group in self.groups:
            for here, there in zip(group, group[1:]):
                image = list(flat)
                image[here], image[there] = image[there], image[here]
                yield tuple(image)


@dataclass(frozen=True)
class RotationSymmetry:
    """Simultaneous rotation of one or more rings of leaf positions.

    Each ring lists leaf positions in ring order; a rotation by ``k`` moves
    every ring's contents ``k`` places at once (dining philosophers rotate
    the philosopher ring and the fork ring together).  All rings must have
    the same length.  ``canonical`` picks the lexicographically least
    rotation of the flat tuple.

    Ring families typically expose *indexed* observable actions
    (``serve0``, ``eat1``, ...), so rotations are not label-preserving:
    they are sound for deadlock / livelock search (existence and kind are
    rotation-invariant) but are skipped by the equivalence checker, and a
    stuck-state trace found under rotation is a genuine trace *modulo
    rotation* of the indexed labels.
    """

    rings: tuple[tuple[int, ...], ...]
    label_preserving: bool = False

    def __init__(self, rings, label_preserving: bool = False) -> None:
        object.__setattr__(
            self, "rings", tuple(tuple(int(p) for p in ring) for ring in rings)
        )
        object.__setattr__(self, "label_preserving", bool(label_preserving))
        _check_positions(self.rings, "ring")
        lengths = {len(ring) for ring in self.rings}
        if len(lengths) > 1:
            raise InvalidProcessError(
                f"rotation rings must share one length, got {sorted(lengths)}"
            )

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for ring in self.rings for p in ring)

    def _rotate(self, flat: tuple, k: int) -> tuple:
        out = list(flat)
        for ring in self.rings:
            n = len(ring)
            for i, position in enumerate(ring):
                out[ring[(i + k) % n]] = flat[position]
        return tuple(out)

    def canonical(self, flat: tuple) -> tuple:
        length = len(self.rings[0]) if self.rings else 0
        best = flat
        best_key = tuple(_state_key(s) for s in flat)
        for k in range(1, length):
            candidate = self._rotate(flat, k)
            key = tuple(_state_key(s) for s in candidate)
            if key < best_key:
                best, best_key = candidate, key
        return best

    def generator_images(self, flat: tuple) -> Iterator[tuple]:
        if self.rings and len(self.rings[0]) > 1:
            yield self._rotate(flat, 1)


def _check_positions(groups: tuple[tuple[int, ...], ...], what: str) -> None:
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise InvalidProcessError(f"empty {what} in symmetry declaration")
        for position in group:
            if position < 0:
                raise InvalidProcessError(f"negative leaf position {position} in {what}")
            if position in seen:
                raise InvalidProcessError(
                    f"leaf position {position} appears twice across symmetry {what}s"
                )
            seen.add(position)


Symmetry = "FullPermutationSymmetry | RotationSymmetry"

#: the attribute carrying declared symmetries on a spec root.  Spec nodes are
#: plain dataclasses, so the annotation travels with the object (it is
#: in-process metadata: JSON documents and fault rewrites drop it, which is
#: exactly right -- a crashed or mutated instance is no longer symmetric).
_SYMMETRY_ATTR = "_reduction_symmetry"


def annotate_symmetry(spec, *symmetries):
    """Attach declared symmetries to a spec root; returns the spec.

    The declaration is a promise that every generator is an automorphism of
    the composed system; :class:`SymmetryReducer` can re-check it with
    ``validate=True`` (the metamorphic tests do).  Frozen nodes
    (:class:`~repro.explore.system.LeafSpec`) cannot carry annotations --
    wrap them first.
    """
    if not symmetries:
        raise InvalidProcessError("annotate_symmetry needs at least one symmetry")
    for symmetry in symmetries:
        if not isinstance(symmetry, (FullPermutationSymmetry, RotationSymmetry)):
            raise InvalidProcessError(
                f"not a symmetry declaration: {type(symmetry).__name__}"
            )
    try:
        setattr(spec, _SYMMETRY_ATTR, tuple(symmetries))
    except AttributeError:
        raise InvalidProcessError(
            f"cannot annotate a {type(spec).__name__} with a symmetry "
            "(frozen or slotted node); annotate an enclosing operator node"
        ) from None
    return spec


def declared_symmetry(spec) -> tuple | None:
    """The symmetries declared on ``spec``, or None."""
    declared = getattr(spec, _SYMMETRY_ATTR, None)
    return tuple(declared) if declared else None


# ----------------------------------------------------------------------
# Symmetry reduction: canonical-form hashing
# ----------------------------------------------------------------------
class SymmetryReducer(ImplicitLTS):
    """The quotient of an implicit system by declared symmetries.

    States are canonical orbit representatives; every successor is
    canonicalised on the way out, so the reachable set collapses from
    "ordered tuples" to "tuples up to the declared group".  For a
    label-preserving automorphism group the map ``s -> canonical(s)`` is a
    strong bisimulation between the original and the quotient, so verdicts
    under every notion are preserved; see the module docstring for the
    non-label-preserving caveat.

    ``validate=True`` re-derives the automorphism property at every expanded
    state: for each group generator, the image state must have the same
    extension and the same multiset of canonicalised successor targets (and
    identical action labels when the symmetry claims to preserve them).
    This turns a wrong declaration into a loud
    :class:`~repro.core.errors.InvalidProcessError` instead of a silently
    wrong verdict -- the differential tests run every library symmetry
    through it.
    """

    __slots__ = ("inner", "symmetries", "validate", "_canon", "_layout")

    def __init__(self, inner, symmetry, *, validate: bool = False) -> None:
        self.inner = as_implicit(inner)
        if isinstance(symmetry, (FullPermutationSymmetry, RotationSymmetry)):
            symmetries: tuple = (symmetry,)
        else:
            symmetries = tuple(symmetry)
        if not symmetries:
            raise InvalidProcessError("SymmetryReducer needs at least one symmetry")
        self._layout = _compile_layout(self.inner)
        leaves = _leaf_count(self._layout)
        for declared in symmetries:
            beyond = [p for p in declared.positions if p >= leaves]
            if beyond:
                raise InvalidProcessError(
                    f"symmetry positions {beyond} exceed the system's "
                    f"{leaves} leaves"
                )
        self.symmetries = symmetries
        self.validate = bool(validate)
        self._canon: dict = {}

    def canonical(self, state: State) -> State:
        cached = self._canon.get(state)
        if cached is None:
            flat: list = []
            _leaves(self._layout, state, flat)
            canonical = tuple(flat)
            for symmetry in self.symmetries:
                canonical = symmetry.canonical(canonical)
            cached = _rebuild(self._layout, iter(canonical))
            self._canon[state] = cached
        return cached

    def initial(self) -> State:
        return self.canonical(self.inner.initial())

    def successors(self, state: State) -> tuple[Move, ...]:
        if self.validate:
            self._validate(state)
        out: list[Move] = []
        seen: set[Move] = set()
        for action, target in self.inner.successors(state):
            move = (action, self.canonical(target))
            if move not in seen:
                seen.add(move)
                out.append(move)
        return tuple(out)

    def _moves_profile(self, state: State, with_actions: bool):
        profile = []
        for action, target in self.inner.successors(state):
            canon = self.canonical(target)
            profile.append((action, _state_key(canon)) if with_actions else _state_key(canon))
        return sorted(profile)

    def _validate(self, state: State) -> None:
        flat: list = []
        _leaves(self._layout, state, flat)
        base = tuple(flat)
        for symmetry in self.symmetries:
            labelled = symmetry.label_preserving
            reference = self._moves_profile(state, labelled)
            extension = self.inner.extension(state)
            for image_flat in symmetry.generator_images(base):
                image = _rebuild(self._layout, iter(image_flat))
                if self.inner.extension(image) != extension:
                    raise InvalidProcessError(
                        f"symmetry validation failed: generator image of "
                        f"{self.inner.state_name(state)!r} changes the extension set"
                    )
                if self._moves_profile(image, labelled) != reference:
                    raise InvalidProcessError(
                        f"symmetry validation failed: generator image of "
                        f"{self.inner.state_name(state)!r} has different successors "
                        "(the declared group is not an automorphism group)"
                    )

    def extension(self, state: State) -> frozenset[str]:
        return self.inner.extension(state)

    def state_name(self, state: State) -> str:
        return self.inner.state_name(state)

    @property
    def alphabet(self) -> frozenset[str] | None:
        return self.inner.alphabet

    @property
    def variables(self) -> frozenset[str]:
        return self.inner.variables

    def __repr__(self) -> str:
        return f"SymmetryReducer({self.inner!r}, {self.symmetries!r})"


# ----------------------------------------------------------------------
# Partial-order reduction: tau-confluence prioritisation
# ----------------------------------------------------------------------
class ConfluenceReducer(ImplicitLTS):
    """Prioritise confluent tau moves; drop the rest of the fanout.

    A set ``T`` of tau edges is *confluent* when for every edge
    ``p --tau--> p'`` in ``T`` and every other move ``p --a--> q`` there is
    an ``r`` with ``p' --a--> r`` and either ``r = q`` or ``q --tau--> r``
    with that closing edge **also in** ``T``.  Every edge of such a set
    connects branching (hence weak) bisimilar states, so every behaviour of
    ``p`` survives through ``p'`` and the reducer may answer
    ``successors(p) = [(tau, p')]``.  Independent component moves in a lazy
    product commute exactly like this, which is what linearises the
    interleaving diamonds of a restricted protocol composition into a
    single chain.

    The self-reference ("also in T") is load-bearing: with a merely local
    closing step, ``q`` need not be equivalent to its mimic ``r``, and the
    prioritisation can prune a branch that hides a deadlock (the
    differential suite catches exactly this on Byzantine-faulted
    protocols).  Membership in the *greatest* confluent set is certified on
    the fly, coinductively: an edge under evaluation is assumed confluent;
    a failed closing candidate rolls its assumptions back; an edge whose
    own condition fails is definitely non-confluent (assumptions only ever
    help, so failure is assumption-free); and a successful root evaluation
    leaves a self-supporting assumption set -- a post-fixed point, hence
    inside the greatest confluent set -- which is memoised ``True``.

    Two extra conditions keep the prioritisation sound (see the module
    docstring): every certified edge must preserve the extension set (the
    equivalence game compares extensions at every pair), and -- the cycle
    proviso -- a tau edge into a state whose successors were already
    reduced is never *prioritised*, so prioritised edges form a DAG, every
    prioritised chain ends in a fully-expanded state, and a tau cycle can
    never swallow the observable actions (the ignoring problem).  The full
    fanout stays available via :meth:`full_successors` (the escape hatch
    trace replays use).
    """

    __slots__ = ("inner", "_succ", "_chosen", "_edges")

    def __init__(self, inner) -> None:
        self.inner = as_implicit(inner)
        self._succ: dict = {}
        self._chosen: dict = {}
        self._edges: dict = {}

    def full_successors(self, state: State) -> tuple[Move, ...]:
        moves = self._succ.get(state)
        if moves is None:
            moves = tuple(self.inner.successors(state))
            self._succ[state] = moves
        return moves

    def successors(self, state: State) -> tuple[Move, ...]:
        chosen = self._chosen.get(state)
        if chosen is None:
            chosen = self._choose(state)
            self._chosen[state] = chosen
        return chosen

    def _choose(self, state: State) -> tuple[Move, ...]:
        moves = self.full_successors(state)
        if len(moves) < 2:
            return moves
        for action, prime in moves:
            if action != TAU or prime == state:
                continue
            if prime in self._chosen:
                continue  # cycle proviso: never prioritise into a reduced state
            if self._certify((state, prime)):
                return ((TAU, prime),)
        return moves

    def _certify(self, root: tuple[State, State]) -> bool:
        known = self._edges.get(root)
        if known is not None:
            return known
        assumed: dict = {}
        trail: list = []
        if not self._eval(root, assumed, trail):
            return False
        # the surviving assumption set is closed under the confluence
        # condition -- a post-fixed point, so inside the greatest one
        for edge in assumed:
            self._edges[edge] = True
        return True

    def _eval(self, edge: tuple[State, State], assumed: dict, trail: list) -> bool:
        known = self._edges.get(edge)
        if known is not None:
            return known
        if edge in assumed:
            return True  # coinductive hypothesis (greatest fixed point)
        assumed[edge] = True
        trail.append(edge)
        source, prime = edge

        def fail() -> bool:
            self._edges[edge] = False
            mark = trail.index(edge)
            while len(trail) > mark:
                assumed.pop(trail.pop(), None)
            return False

        if self.inner.extension(source) != self.inner.extension(prime):
            return fail()
        prime_moves = self.full_successors(prime)
        for action, other in self.full_successors(source):
            if action == TAU and other == prime:
                continue
            closed = False
            other_taus = None
            for prime_action, landing in prime_moves:
                if prime_action != action:
                    continue
                if landing == other:
                    closed = True
                    break
                if other_taus is None:
                    other_taus = {
                        target
                        for other_action, target in self.full_successors(other)
                        if other_action == TAU
                    }
                if landing in other_taus:
                    mark = len(trail)
                    if self._eval((other, landing), assumed, trail):
                        closed = True
                        break
                    while len(trail) > mark:  # roll back the failed attempt
                        assumed.pop(trail.pop(), None)
            if not closed:
                return fail()
        return True

    def initial(self) -> State:
        return self.inner.initial()

    def extension(self, state: State) -> frozenset[str]:
        return self.inner.extension(state)

    def state_name(self, state: State) -> str:
        return self.inner.state_name(state)

    @property
    def alphabet(self) -> frozenset[str] | None:
        return self.inner.alphabet

    @property
    def variables(self) -> frozenset[str]:
        return self.inner.variables

    def __repr__(self) -> str:
        return f"ConfluenceReducer({self.inner!r})"


# ----------------------------------------------------------------------
# Operand preparation (the single dispatch point)
# ----------------------------------------------------------------------
def _resolve(source) -> tuple[ImplicitLTS, tuple | None]:
    """Coerce a spec / FSP / implicit operand; read its declared symmetry."""
    if isinstance(source, (ImplicitLTS, FSP)):
        return as_implicit(source), None
    from repro.explore.system import SystemSpec, build_implicit

    if isinstance(source, SystemSpec):
        return build_implicit(source), declared_symmetry(source)
    return as_implicit(source), None


def prepare_operand(
    source,
    reduction="none",
    *,
    weak: bool = True,
    for_equivalence: bool = True,
    validate: bool = False,
) -> ImplicitLTS:
    """Build the (possibly reduced) implicit system for one operand.

    ``source`` may be a :class:`~repro.explore.system.SystemSpec` (the only
    form that can carry a symmetry annotation), an FSP, or an implicit
    system.  ``reduction`` is one of :data:`REDUCTIONS`; the soundness
    gates are applied here, not at the call sites:

    * symmetry wraps only when a symmetry is declared, and -- for
      equivalence checking -- only when it is label-preserving;
    * confluence prioritisation wraps for reachability always, but for
      equivalence checking only under a weak notion (``weak=True``).

    An ineligible request degrades to the identity rather than erroring:
    ``reduction="full"`` on an unannotated system is simply partial-order
    reduction, and ``reduction="por"`` under the strong notion is the
    unreduced system.
    """
    mode = normalize_reduction(reduction)
    node, symmetries = _resolve(source)
    if mode in ("symmetry", "full") and symmetries:
        if not for_equivalence or all(s.label_preserving for s in symmetries):
            node = SymmetryReducer(node, symmetries, validate=validate)
    if mode in ("por", "full") and (weak or not for_equivalence):
        node = ConfluenceReducer(node)
    return node


# ----------------------------------------------------------------------
# Measurement and regression-fixture helpers
# ----------------------------------------------------------------------
def structural_state_estimate(spec) -> int:
    """The product of component state counts: an upper-bound estimate of the
    unreduced product size, computable without exploring anything.

    This is the denominator of the benchmark's reduction visit fraction at
    sizes where the unreduced reachable set cannot be enumerated at all
    (quorum voting at ``n = 25`` has a structural estimate near
    :math:`4^{25}`); restriction can only shrink the reachable set below
    it, never grow it.
    """
    from repro.explore.system import (
        HideSpec,
        LeafSpec,
        ProductSpec,
        RelabelSpec,
        RestrictSpec,
        SystemSpec,
        TermSpec,
    )

    if isinstance(spec, FSP):
        return spec.num_states
    if isinstance(spec, LeafSpec):
        return spec.fsp.num_states
    if isinstance(spec, TermSpec):
        return spec.max_states
    if isinstance(spec, ProductSpec):
        return structural_state_estimate(spec.left) * structural_state_estimate(spec.right)
    if isinstance(spec, (RestrictSpec, HideSpec, RelabelSpec)):
        return structural_state_estimate(spec.of)
    if isinstance(spec, _LazyProduct):
        return structural_state_estimate(spec.left) * structural_state_estimate(spec.right)
    if isinstance(spec, (_LazyWrapper, SymmetryReducer, ConfluenceReducer)):
        return structural_state_estimate(spec.inner)
    if isinstance(spec, ImplicitLTS):
        fsp = getattr(spec, "fsp", None)
        if isinstance(fsp, FSP):
            return fsp.num_states
        max_states = getattr(spec, "max_states", None)
        if isinstance(max_states, int):
            return max_states
        raise InvalidProcessError(
            f"cannot estimate the state count of a {type(spec).__name__}"
        )
    if isinstance(spec, SystemSpec):
        raise InvalidProcessError(f"unknown spec node {type(spec).__name__}")
    raise InvalidProcessError(
        f"cannot estimate the state count of a {type(spec).__name__}"
    )


def canonical_bytes(source, *, limit: int = 10_000) -> bytes:
    """A deterministic byte rendering of the reachable canonical quotient.

    Breadth-first over :func:`prepare_operand` with ``reduction="symmetry"``
    (reachability flavour, so non-label-preserving symmetries apply too),
    with the moves of every state sorted -- so the output is byte-identical
    across runs, platforms and hash seeds.  One line per state::

        <state name> :: <action> -> <target name> ; ...

    The metamorphic suite commits these renderings as regression fixtures:
    any change to canonicalisation shows up as a fixture diff, not as a
    silently different search.
    """
    node = prepare_operand(source, "symmetry", for_equivalence=False)
    start = node.initial()
    seen = {start}
    queue: deque = deque([start])
    lines: list[str] = []
    while queue:
        state = queue.popleft()
        moves = sorted(
            ((action, target) for action, target in node.successors(state)),
            key=lambda move: (move[0], node.state_name(move[1])),
        )
        rendered = " ; ".join(
            f"{action} -> {node.state_name(target)}" for action, target in moves
        )
        lines.append(f"{node.state_name(state)} :: {rendered}")
        for _action, target in moves:
            if target not in seen:
                if len(seen) >= limit:
                    raise InvalidProcessError(
                        f"canonical rendering exceeded {limit} states"
                    )
                seen.add(target)
                queue.append(target)
    return ("\n".join(lines) + "\n").encode("utf-8")

"""The protocol scenario library, in :mod:`repro.generators.families` style.

Each builder returns a :class:`Scenario`: a protocol sized by validator
count, its instantiated implementation, an abstract known-good spec (what an
outside observer should see), a known-faulty mutant, and the ordered crash
slots a fault-tolerance sweep applies.  Four classics:

* :func:`two_phase_commit` -- coordinator + ``n`` participants, prepare/yes/
  commit rounds looping forever; the observable behaviour is an endless
  ``commit`` stream.  Crashing the coordinator wedges every participant: the
  canonical reachable-deadlock demo.
* :func:`quorum_voting` -- PoDCon-shaped one-shot consensus: ``n`` validators
  push vote/prepare/commit rounds through a staged quorum counter with
  threshold ``n - f`` (majority when ``n = 2f + 1``), which fires the
  observable ``decide``.  Tolerates ``f`` crashed validators, breaks at
  ``f + 1``; a Byzantine "fake" validator can forge the quorum back.
* :func:`ring_election` -- Chang-Roberts-style maximum-finding on a ring over
  value-indexed channels; announces ``leader<n-1>``.  The mutant's top
  station forwards the *smaller* id, electing the wrong leader.
* :func:`token_passing` -- the self-stabilising token ring: stations serve
  round-robin and absorb duplicate tokens; the protocols-frontend rendering
  of :func:`repro.generators.families.token_ring_system`.

Scenarios are addressable by name through :data:`SCENARIOS` /
:func:`build_scenario`, and as JSON documents (CLI scenario files and
service operands) through :func:`scenario_from_document` /
:func:`system_from_document`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.core.errors import InvalidProcessError
from repro.core.fsp import from_transitions
from repro.explore.system import LeafSpec, SystemSpec
from repro.protocols.faults import Crash, Snag, apply_fault, apply_faults, fault_from_document
from repro.protocols.model import (
    Broadcast,
    Local,
    Machine,
    ProtocolSpec,
    Quorum,
    Recv,
    Role,
    Send,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "build_scenario",
    "quorum_voting",
    "ring_election",
    "scenario_from_document",
    "scenario_names",
    "system_from_document",
    "token_passing",
    "two_phase_commit",
]


@dataclass(frozen=True)
class Scenario:
    """A sized protocol instance bundled with its spec, mutant and fault slots."""

    name: str
    description: str
    protocol: ProtocolSpec
    n: int
    f: int
    spec: SystemSpec
    system: SystemSpec
    mutant: SystemSpec
    crash_slots: tuple[Crash, ...]


def _no_fault_budget(name: str, f: Union[int, None]) -> int:
    if f not in (None, 0):
        raise InvalidProcessError(f"{name} tolerates no crash faults (f must be 0)")
    return 0


def _spec_leaf(transitions, start) -> LeafSpec:
    return LeafSpec(
        from_transitions(transitions, start=start, all_accepting=True), label="spec"
    )


# ----------------------------------------------------------------------
# Two-phase commit
# ----------------------------------------------------------------------
def two_phase_commit(n: int = 3, f: Union[int, None] = None) -> Scenario:
    """Looping 2PC: coordinator broadcasts prepare, collects ``n`` yes votes,
    broadcasts commit, performs the observable ``commit`` and starts over."""
    if n < 1:
        raise InvalidProcessError(f"two_phase_commit needs n >= 1, got {n}")
    f = _no_fault_budget("two_phase_commit", f)

    def coordinator(ctx):
        transitions = [("gather", Broadcast("prepare{peer}", to="participant"), "count0")]
        for k in range(ctx.n):
            for j in range(ctx.n):
                transitions.append((f"count{k}", Recv(f"yes{j}"), f"count{k + 1}"))
        transitions.append(
            (f"count{ctx.n}", Broadcast("commit{peer}", to="participant"), "deciding")
        )
        transitions.append(("deciding", Local("commit"), "gather"))
        return Machine("gather", transitions)

    def participant(ctx):
        i = ctx.index
        return Machine(
            "idle",
            [
                ("idle", Recv(f"prepare{i}"), "voting"),
                ("voting", Send(f"yes{i}"), "ready"),
                ("ready", Recv(f"commit{i}"), "idle"),
            ],
        )

    protocol = ProtocolSpec(
        name="two_phase_commit",
        roles=(
            Role("coordinator", coordinator, count=1),
            Role("participant", participant, count="n"),
        ),
        description="coordinator + n participants; observable commit stream",
    )
    system = protocol.instantiate(n, f)
    return Scenario(
        name="two_phase_commit",
        description=protocol.description,
        protocol=protocol,
        n=n,
        f=f,
        spec=_spec_leaf([("committing", "commit", "committing")], start="committing"),
        system=system,
        mutant=apply_fault(system, Snag("participant", 0, at="ready", action="defect0")),
        crash_slots=(Crash("coordinator", 0),),
    )


# ----------------------------------------------------------------------
# Quorum voting (PoDCon-shaped)
# ----------------------------------------------------------------------
def quorum_voting(n: int = 5, f: Union[int, None] = None) -> Scenario:
    """One-shot quorum consensus: vote/prepare/commit rounds, threshold ``n - f``.

    ``n >= 2f + 1`` is enforced, so any two quorums of size ``n - f``
    intersect in at least one validator -- the classical quorum-intersection
    assumption, here *executable*: with ``f + 1`` crashes the counter wedges
    below threshold and the observable ``decide`` becomes unreachable.
    """
    if f is None:
        f = (n - 1) // 2
    if n < 1 or f < 0 or n < 2 * f + 1:
        raise InvalidProcessError(
            f"quorum_voting needs n >= 2f + 1 with f >= 0, got n={n}, f={f}"
        )

    def validator(ctx):
        i = ctx.index
        return Machine(
            "vote",
            [
                ("vote", Send(f"vote{i}"), "prepare"),
                ("prepare", Send(f"prepare{i}"), "commit"),
                ("commit", Send(f"commit{i}"), "done"),
            ],
        )

    threshold = n - f
    protocol = ProtocolSpec(
        name="quorum_voting",
        roles=(Role("validator", validator, count="n"),),
        quorums=(
            Quorum(
                "tally",
                senders="validator",
                stages=(
                    ("vote{sender}", threshold),
                    ("prepare{sender}", threshold),
                    ("commit{sender}", threshold),
                ),
                fire="decide",
            ),
        ),
        description=f"n validators, staged quorum counter with threshold n - f = {threshold}",
        # The counter receives any sender's channel without tracking identity
        # and every vote/prepare/commit channel is restricted, so validators
        # are fully interchangeable -- the symmetry the n=25 bench exploits.
        symmetric_roles=("validator",),
    )
    system = protocol.instantiate(n, f)
    return Scenario(
        name="quorum_voting",
        description=protocol.description,
        protocol=protocol,
        n=n,
        f=f,
        spec=_spec_leaf([("pending", "decide", "decided")], start="pending"),
        system=system,
        mutant=apply_fault(system, Snag("tally", None, at="fired", action="decide")),
        crash_slots=tuple(Crash("validator", i) for i in range(f + 1)),
    )


# ----------------------------------------------------------------------
# Ring leader election
# ----------------------------------------------------------------------
def ring_election(n: int = 4, f: Union[int, None] = None, *, selfless_top: bool = False) -> Scenario:
    """Maximum-finding on a unidirectional ring (Chang-Roberts flavour).

    Station 0 injects its own id; station ``i`` forwards ``max(value, i)``
    on value-indexed channels ``msg<dest>_<value>``; when the token returns
    to station 0 it announces the observable ``leader<value>`` -- always
    ``leader<n-1>``.  With ``selfless_top`` (the mutant), the top station
    forwards the incoming value unchanged, electing ``n - 2``.
    """
    if n < 2:
        raise InvalidProcessError(f"ring_election needs n >= 2, got {n}")
    f = _no_fault_budget("ring_election", f)

    def station(ctx):
        i, count = ctx.index, ctx.count
        if i == 0:
            transitions = [("inject", Send("msg1_0"), "await")]
            for value in range(count):
                transitions.append(("await", Recv(f"msg0_{value}"), f"got{value}"))
                transitions.append((f"got{value}", Local(f"leader{value}"), "done"))
            return Machine("inject", transitions)
        transitions = []
        for value in range(count):
            forwarded = value if (selfless_top and i == count - 1) else max(value, i)
            transitions.append(("relay", Recv(f"msg{i}_{value}"), f"fwd{value}"))
            transitions.append(
                (f"fwd{value}", Send(f"msg{ctx.succ}_{forwarded}"), "relay")
            )
        return Machine("relay", transitions)

    protocol = ProtocolSpec(
        name="ring_election",
        roles=(Role("station", station, count="n"),),
        description="max-finding on a ring; announces leader<n-1>",
    )
    return Scenario(
        name="ring_election",
        description=protocol.description,
        protocol=protocol,
        n=n,
        f=f,
        spec=_spec_leaf([("running", f"leader{n - 1}", "elected")], start="running"),
        system=protocol.instantiate(n, f),
        mutant=ring_election(n, f, selfless_top=True).system
        if not selfless_top
        else protocol.instantiate(n, f),
        crash_slots=(Crash("station", 1, at="relay"),),
    )


# ----------------------------------------------------------------------
# Self-stabilising token passing
# ----------------------------------------------------------------------
def token_passing(n: int = 4, f: Union[int, None] = None) -> Scenario:
    """The token ring, protocols-frontend edition, with a stabilising rule.

    Station ``i`` waits for ``tok<i>``, performs the observable ``serve<i>``
    and passes the token on; a duplicate token arriving while the station
    already holds (or has just served) is silently absorbed, which is the
    self-stabilisation rule that makes the multi-token perturbation converge
    back to a single circulating token.
    """
    if n < 2:
        raise InvalidProcessError(f"token_passing needs n >= 2, got {n}")
    f = _no_fault_budget("token_passing", f)

    def station(ctx):
        i = ctx.index
        return Machine(
            "holding" if i == 0 else "wait",
            [
                ("wait", Recv(f"tok{i}"), "holding"),
                ("holding", Local(f"serve{i}"), "served"),
                ("served", Send(f"tok{ctx.succ}"), "wait"),
                ("holding", Recv(f"tok{i}"), "holding"),
                ("served", Recv(f"tok{i}"), "served"),
            ],
        )

    protocol = ProtocolSpec(
        name="token_passing",
        roles=(Role("station", station, count="n"),),
        description="self-stabilising token ring; observable round-robin serves",
        # Rotating the ring maps serve<i> to serve<i+1>: an automorphism that
        # permutes observable labels, so sound for stuck-state search only.
        ring_roles=("station",),
    )
    system = protocol.instantiate(n, f)
    spec_transitions = [
        (f"round{i}", f"serve{i}", f"round{(i + 1) % n}") for i in range(n)
    ]
    return Scenario(
        name="token_passing",
        description=protocol.description,
        protocol=protocol,
        n=n,
        f=f,
        spec=_spec_leaf(spec_transitions, start="round0"),
        system=system,
        mutant=apply_fault(system, Snag("station", 1, at="holding", action="fault1")),
        crash_slots=(Crash("station", 1, at="wait"),),
    )


# ----------------------------------------------------------------------
# Registry and JSON documents
# ----------------------------------------------------------------------
SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "two_phase_commit": two_phase_commit,
    "quorum_voting": quorum_voting,
    "ring_election": ring_election,
    "token_passing": token_passing,
}


def scenario_names() -> tuple[str, ...]:
    """The library's scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


def build_scenario(
    name: str, n: Union[int, None] = None, f: Union[int, None] = None
) -> Scenario:
    """Build a library scenario by name, optionally sized by ``n`` and ``f``."""
    if name not in SCENARIOS:
        raise InvalidProcessError(
            f"unknown scenario {name!r} (choose from {', '.join(scenario_names())})"
        )
    kwargs: dict = {}
    if n is not None:
        kwargs["n"] = int(n)
    if f is not None:
        kwargs["f"] = int(f)
    return SCENARIOS[name](**kwargs)


#: the keys of a scenario document (see :func:`system_from_document`)
DOCUMENT_KEYS = ("name", "n", "f", "side", "faults")


def scenario_from_document(document) -> Scenario:
    """Build a scenario from a JSON document (``"name"`` plus optional sizes).

    Accepts a bare scenario name or a mapping like
    ``{"name": "quorum_voting", "n": 5, "f": 2}``.  The mapping is strict:
    a key outside :data:`DOCUMENT_KEYS`, or a size that is not an int, is
    rejected rather than ignored.
    """
    if isinstance(document, str):
        return build_scenario(document)
    if not isinstance(document, dict) or not isinstance(document.get("name"), str):
        raise InvalidProcessError(
            f"a scenario document is a name or a mapping with a 'name': {document!r}"
        )
    unknown = sorted(set(document) - set(DOCUMENT_KEYS))
    if unknown:
        raise InvalidProcessError(
            f"unknown scenario document key(s) {unknown}; keys: {', '.join(DOCUMENT_KEYS)}"
        )
    for key in ("n", "f"):
        value = document.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise InvalidProcessError(f"scenario {key!r} must be an int, not {value!r}")
    return build_scenario(document["name"], document.get("n"), document.get("f"))


def system_from_document(document) -> SystemSpec:
    """Resolve a scenario document to one checkable ``SystemSpec``.

    On top of :func:`scenario_from_document` the document may pick a ``side``
    (``"implementation"`` -- the default -- ``"spec"`` or ``"mutant"``) and
    list ``faults`` (documents of :func:`repro.protocols.faults.fault_from_document`)
    applied to the chosen side in order.
    """
    scenario = scenario_from_document(document)
    side = "implementation"
    faults = ()
    if isinstance(document, dict):
        side = document.get("side", side)
        faults = document.get("faults", [])
        if not isinstance(faults, list):
            raise InvalidProcessError(f"scenario 'faults' must be a list, not {faults!r}")
        faults = tuple(fault_from_document(doc) for doc in faults)
    sides = {
        "implementation": scenario.system,
        "spec": scenario.spec,
        "mutant": scenario.mutant,
    }
    if not isinstance(side, str) or side not in sides:
        raise InvalidProcessError(
            f"unknown scenario side {side!r} (choose from {', '.join(sorted(sides))})"
        )
    return apply_faults(sides[side], faults)

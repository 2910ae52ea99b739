"""Fault injection as ``SystemSpec`` tree rewrites.

Faults are data (frozen dataclasses) applied by :func:`apply_fault` as pure
rewrites of an instantiated protocol's composition tree, so any fault
composes with any scenario and the faulty system is checked by exactly the
same machinery as the clean one:

* :class:`Crash` deterministically fells one role instance at a *cut state*:
  the cut state's outgoing transitions are removed and replaced by a single
  ``tau`` into a fresh ``crashed`` state -- terminal for ``style="stop"``
  (the component contributes genuine deadlocks) or a ``tau`` self-loop for
  ``style="spin"`` (the ``snag`` idiom of
  :func:`repro.generators.families.with_snag`, contributing divergence).
* :class:`Omission` makes one restricted channel lossy: receivers are rewired
  to a delivery channel fed by an interposed medium leaf that may silently
  drop any message it carries.
* :class:`Byzantine` replaces a role instance with chaos: a one-state leaf
  that can always offer *every* action of the instance's alphabet, i.e. an
  unconstrained sender (and acceptor) over its interface.
* :class:`Snag` plants an observable self-loop on one state of one leaf --
  the mutant-building primitive of :mod:`repro.protocols.library`.

Crashes are deterministic on purpose: a crashed instance *cannot* take its
cut state's normal moves, so at ``f + 1`` crashes the spec admits traces the
implementation cannot match (and vice versa for spurious mutant behaviour),
which is what makes distinguishing traces replay-verifiable.  Crashed states
stay accepting -- fault visibility is a trace/deadlock phenomenon here, not
an extension mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.core.errors import InvalidProcessError
from repro.core.fsp import ACCEPT, FSP, TAU
from repro.explore.system import (
    HideSpec,
    LeafSpec,
    ProductSpec,
    RelabelSpec,
    RestrictSpec,
    SystemSpec,
)
from repro.generators.families import with_snag
from repro.protocols.model import role_label

__all__ = [
    "Byzantine",
    "Crash",
    "Fault",
    "Omission",
    "Snag",
    "apply_fault",
    "apply_faults",
    "chaos_leaf",
    "crash_leaf",
    "fault_from_document",
    "fault_to_document",
]


@dataclass(frozen=True)
class Crash:
    """Crash instance ``index`` of ``role`` at cut state ``at`` (start if None).

    ``index=None`` targets the leaf labelled exactly ``role`` -- the form used
    for singleton leaves such as quorum counters.
    """

    role: str
    index: Union[int, None]
    at: Union[str, None] = None
    style: str = "stop"


@dataclass(frozen=True)
class Omission:
    """Make the restricted ``channel`` lossy via an interposed dropping medium."""

    channel: str


@dataclass(frozen=True)
class Byzantine:
    """Replace instance ``index`` of ``role`` with chaos over its alphabet."""

    role: str
    index: Union[int, None]


@dataclass(frozen=True)
class Snag:
    """Plant an ``action`` self-loop on state ``at`` of instance ``index``."""

    role: str
    index: Union[int, None]
    at: str
    action: str = "snag"


def _target_label(fault) -> str:
    return fault.role if fault.index is None else role_label(fault.role, fault.index)


Fault = Union[Crash, Omission, Byzantine, Snag]


# ----------------------------------------------------------------------
# Leaf-level rewrites
# ----------------------------------------------------------------------
def crash_leaf(fsp: FSP, at: Union[str, None] = None, style: str = "stop") -> FSP:
    """The crash rewrite on one FSP: cut ``at`` over to a fresh crashed state."""
    cut = fsp.start if at is None else str(at)
    if cut not in fsp.states:
        raise InvalidProcessError(
            f"crash cut state {cut!r} is not a state (states: {sorted(fsp.states)})"
        )
    if style not in ("stop", "spin"):
        raise InvalidProcessError(f"unknown crash style {style!r} (want stop or spin)")
    crashed = "crashed"
    while crashed in fsp.states:
        crashed += "_"
    felled = FSP(
        states=set(fsp.states) | {crashed},
        start=fsp.start,
        alphabet=fsp.alphabet,
        transitions={t for t in fsp.transitions if t[0] != cut} | {(cut, TAU, crashed)},
        variables=fsp.variables,
        extensions=set(fsp.extensions) | {(crashed, v) for _, v in fsp.extensions},
    )
    if style == "spin":
        felled = with_snag(felled, crashed, TAU)
    return felled


def chaos_leaf(fsp: FSP) -> FSP:
    """The Byzantine rewrite: one state offering every action of the alphabet."""
    return FSP(
        states={"chaos"},
        start="chaos",
        alphabet=fsp.alphabet,
        transitions={("chaos", action, "chaos") for action in fsp.alphabet},
        variables=fsp.variables,
        extensions={("chaos", v) for _, v in fsp.extensions} or {("chaos", ACCEPT)},
    )


# ----------------------------------------------------------------------
# Tree rewrites
# ----------------------------------------------------------------------
def _rewrite_leaf(
    spec: SystemSpec, label: str, rewrite: Callable[[FSP], FSP]
) -> tuple[SystemSpec, bool]:
    """Rewrite the unique leaf with ``label``; returns (new tree, found)."""
    if isinstance(spec, LeafSpec):
        if spec.label == label:
            return LeafSpec(rewrite(spec.fsp), label=spec.label), True
        return spec, False
    if isinstance(spec, ProductSpec):
        left, found = _rewrite_leaf(spec.left, label, rewrite)
        if found:
            return ProductSpec(spec.op, left, spec.right, spec.extension_mode), True
        right, found = _rewrite_leaf(spec.right, label, rewrite)
        return ProductSpec(spec.op, spec.left, right, spec.extension_mode), found
    if isinstance(spec, RestrictSpec):
        inner, found = _rewrite_leaf(spec.of, label, rewrite)
        return RestrictSpec(inner, spec.channels), found
    if isinstance(spec, HideSpec):
        inner, found = _rewrite_leaf(spec.of, label, rewrite)
        return HideSpec(inner, spec.channels), found
    if isinstance(spec, RelabelSpec):
        inner, found = _rewrite_leaf(spec.of, label, rewrite)
        return RelabelSpec(inner, spec.mapping), found
    return spec, False


def _rewrite_named_leaf(spec: SystemSpec, label: str, rewrite) -> SystemSpec:
    rewritten, found = _rewrite_leaf(spec, label, rewrite)
    if not found:
        raise InvalidProcessError(
            f"no leaf labelled {label!r} in the system spec -- fault targets name "
            "role instances as '<role><index>'"
        )
    return rewritten


def _rewrite_all_leaves(spec: SystemSpec, rewrite: Callable[[FSP], FSP]) -> SystemSpec:
    if isinstance(spec, LeafSpec):
        return LeafSpec(rewrite(spec.fsp), label=spec.label)
    if isinstance(spec, ProductSpec):
        return ProductSpec(
            spec.op,
            _rewrite_all_leaves(spec.left, rewrite),
            _rewrite_all_leaves(spec.right, rewrite),
            spec.extension_mode,
        )
    if isinstance(spec, RestrictSpec):
        return RestrictSpec(_rewrite_all_leaves(spec.of, rewrite), spec.channels)
    if isinstance(spec, HideSpec):
        return HideSpec(_rewrite_all_leaves(spec.of, rewrite), spec.channels)
    if isinstance(spec, RelabelSpec):
        return RelabelSpec(_rewrite_all_leaves(spec.of, rewrite), spec.mapping)
    return spec


def _lossy_medium(channel: str, delivered: str) -> FSP:
    """A one-message channel that may silently drop what it carries."""
    return FSP(
        states={"empty", "carrying"},
        start="empty",
        alphabet={channel, delivered + "!"},
        transitions={
            ("empty", channel, "carrying"),
            ("carrying", delivered + "!", "empty"),
            ("carrying", TAU, "empty"),
        },
        extensions={("empty", ACCEPT), ("carrying", ACCEPT)},
    )


def _apply_omission(spec: SystemSpec, fault: Omission) -> SystemSpec:
    if not isinstance(spec, RestrictSpec) or fault.channel not in spec.channels:
        raise InvalidProcessError(
            f"omission needs channel {fault.channel!r} restricted at the root of "
            "the system spec (only synchronised channels can be lossy)"
        )
    channel = fault.channel
    delivered = channel + "_dlv"

    def reroute(fsp: FSP) -> FSP:
        if channel not in fsp.alphabet:
            return fsp
        return FSP(
            states=fsp.states,
            start=fsp.start,
            alphabet=(set(fsp.alphabet) - {channel}) | {delivered},
            transitions={
                (src, delivered if act == channel else act, dst)
                for src, act, dst in fsp.transitions
            },
            variables=fsp.variables,
            extensions=fsp.extensions,
        )

    inner = _rewrite_all_leaves(spec.of, reroute)
    composed = ProductSpec("ccs", inner, LeafSpec(_lossy_medium(channel, delivered),
                                                  label=f"lossy({channel})"))
    return RestrictSpec(composed, frozenset(spec.channels) | {delivered})


def apply_fault(spec: SystemSpec, fault: Fault) -> SystemSpec:
    """Apply one fault to an instantiated system, returning the rewritten tree."""
    if isinstance(fault, Crash):
        return _rewrite_named_leaf(
            spec,
            _target_label(fault),
            lambda fsp: crash_leaf(fsp, at=fault.at, style=fault.style),
        )
    if isinstance(fault, Byzantine):
        return _rewrite_named_leaf(spec, _target_label(fault), chaos_leaf)
    if isinstance(fault, Snag):
        return _rewrite_named_leaf(
            spec,
            _target_label(fault),
            lambda fsp: with_snag(fsp, fault.at, fault.action),
        )
    if isinstance(fault, Omission):
        return _apply_omission(spec, fault)
    raise InvalidProcessError(f"unknown fault type {type(fault).__name__}")


def apply_faults(spec: SystemSpec, faults) -> SystemSpec:
    """Apply a sequence of faults left to right."""
    for fault in faults:
        spec = apply_fault(spec, fault)
    return spec


# ----------------------------------------------------------------------
# JSON documents (CLI scenario files / service operands)
# ----------------------------------------------------------------------
_KINDS = {"crash": Crash, "omission": Omission, "byzantine": Byzantine, "snag": Snag}


def fault_to_document(fault: Fault) -> dict:
    """Render a fault as its JSON document."""
    def with_index(doc: dict) -> dict:
        if fault.index is not None:
            doc["index"] = fault.index
        return doc

    if isinstance(fault, Crash):
        doc = with_index({"kind": "crash", "role": fault.role})
        if fault.at is not None:
            doc["at"] = fault.at
        if fault.style != "stop":
            doc["style"] = fault.style
        return doc
    if isinstance(fault, Omission):
        return {"kind": "omission", "channel": fault.channel}
    if isinstance(fault, Byzantine):
        return with_index({"kind": "byzantine", "role": fault.role})
    if isinstance(fault, Snag):
        return with_index(
            {"kind": "snag", "role": fault.role, "at": fault.at, "action": fault.action}
        )
    raise InvalidProcessError(f"unknown fault type {type(fault).__name__}")


def fault_from_document(document: dict) -> Fault:
    """Parse a fault document (the inverse of :func:`fault_to_document`)."""
    if not isinstance(document, dict) or "kind" not in document:
        raise InvalidProcessError(f"a fault document needs a 'kind': {document!r}")
    kind = document["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidProcessError(
            f"unknown fault kind {kind!r} (want one of {sorted(_KINDS)})"
        )
    fields = {k: v for k, v in document.items() if k != "kind"}

    def index_of(value):
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise InvalidProcessError(f"fault 'index' must be an int, not {value!r}")
        return value

    try:
        if kind == "crash":
            fault: Fault = Crash(
                role=str(fields.pop("role")),
                index=index_of(fields.pop("index", None)),
                at=fields.pop("at", None),
                style=str(fields.pop("style", "stop")),
            )
        elif kind == "omission":
            fault = Omission(channel=str(fields.pop("channel")))
        elif kind == "byzantine":
            fault = Byzantine(
                role=str(fields.pop("role")), index=index_of(fields.pop("index", None))
            )
        else:
            fault = Snag(
                role=str(fields.pop("role")),
                index=index_of(fields.pop("index", None)),
                at=str(fields.pop("at")),
                action=str(fields.pop("action", "snag")),
            )
    except KeyError as missing:
        raise InvalidProcessError(
            f"fault document for kind {kind!r} is missing field {missing}"
        ) from None
    if fields:
        raise InvalidProcessError(f"unknown key(s) {sorted(fields)} in a {kind!r} fault document")
    return fault

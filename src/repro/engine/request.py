"""The check request: every field of every front door, declared once.

A check is asked for at several doors: the NDJSON server, the cluster
coordinator behind the HTTP gateway, the two Python clients, engine batch
manifests and ``repro batch``.  This module declares the fields of each
service operation once -- name, JSON type, default and allowed values -- and
every door parses with it, so a field means the same thing everywhere and
nothing is dropped on the floor:

* an unknown, missing or mistyped field answers :data:`BAD_REQUEST`, with
  ``data.field`` naming it;
* an unknown notion, or a notion parameter the notion does not declare or
  that has the wrong type, answers :data:`CHECK_FAILED`.

Notion parameters (``params``) are not redeclared here: they stay in the
:class:`~repro.engine.notions.Notion` registry and take their types from
``param_defaults`` (:func:`typed_param`).  The module needs nothing beyond
the engine, so the CLI and the engine use it without the asyncio stack.

>>> ref = {"digest": "sha256:ab"}
>>> parse("check", {"left": ref, "right": ref, "k": 3})
Traceback (most recent call last):
    ...
repro.engine.request.RequestError: unknown field 'k' in check (notion parameters go in 'params')
>>> parse("check", {"left": ref, "right": ref, "params": {"k": 3}})["notion"]
'observational'
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

#: error code for a request whose own fields are unknown, missing or mistyped
BAD_REQUEST = "bad_request"
#: error code for a check whose notion or notion parameters are rejected
CHECK_FAILED = "check_failed"


class RequestError(ValueError, TypeError):
    """A request that does not fit its declaration.

    ``code`` is the wire error code and ``data`` names the offending
    ``field``.  It is a ValueError *and* a TypeError: the two exceptions
    callers of the engine have always caught for bad input.
    """

    def __init__(self, code: str, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = {"field": field} if field else None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else f"a {type(value).__name__}"


#: the JSON types of request fields: a test, and the words an error uses
_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "scalar": (lambda v: isinstance(v, (str, int, float)), "a JSON scalar"),
    # Operands are resolved by the worker, which answers invalid_process.
    "ref": (lambda v: True, "a process reference"),
    "duration": (
        lambda v: (_is_int(v) or isinstance(v, float) and math.isfinite(v)) and v > 0,
        "a positive number of milliseconds",
    ),
}


def _reductions() -> tuple[str, ...]:
    from repro.explore.reduce import REDUCTIONS

    return REDUCTIONS


@dataclass(frozen=True)
class Field:
    """One request field.  A field whose default is None may be sent as null."""

    name: str
    type: str
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | Callable[[], tuple[str, ...]] = ()

    def read(self, op: str, path: str, params: dict, defaults: dict) -> Any:
        if self.name not in params or (params[self.name] is None and self.default is None):
            if self.required:
                raise RequestError(BAD_REQUEST, f"{op} needs field {path!r}", path)
            value = defaults.get(self.name, self.default)
            return dict(value) if isinstance(value, dict) else value
        value = params[self.name]
        test, expected = _TYPES[self.type]
        choices = self.choices() if callable(self.choices) else self.choices
        if choices:
            expected = "one of " + ", ".join(map(repr, choices))
        if not test(value) or (choices and value not in choices):
            raise RequestError(
                BAD_REQUEST, f"field {path!r} of {op} must be {expected}, not {_show(value)}", path
            )
        return value


#: the fields of one check; in ``check_many`` they are the fields of an entry
CHECK = (
    Field("left", "ref", required=True),
    Field("right", "ref", required=True),
    Field("notion", "string", "observational"),
    Field("align", "bool", True),
    Field("witness", "bool", False),
    Field("on_the_fly", "bool"),
    Field("reduction", "string", choices=_reductions),
    Field("params", "object", {}),
)
#: check fields a ``check_many`` batch may set for every entry (entries override)
BATCH_DEFAULTS = ("notion", "align", "witness", "on_the_fly", "reduction")
#: a duration from receipt; ``check_many`` sets one for the whole batch
DEADLINE = Field("deadline_ms", "duration")
_PROCESS = Field("process", "ref", required=True)

#: every operation's fields, in the order the protocol lists the operations
OPERATIONS: dict[str, tuple[Field, ...]] = {
    "ping": (),
    "store": (Field("process", "object", required=True),),
    "check": CHECK + (DEADLINE,),
    "check_many": (
        Field("checks", "list", required=True),
        *(field for field in CHECK if field.name in BATCH_DEFAULTS),
        DEADLINE,
    ),
    "minimize": (_PROCESS, Field("notion", "string", "observational"), DEADLINE),
    "classify": (_PROCESS, DEADLINE),
    "stats": (),
    "metrics": (),
}
#: the envelope of one NDJSON request frame
FRAME = (
    Field("id", "scalar"),
    Field("op", "string", required=True),
    Field("params", "object", {}),
)

#: the parameters of the on-the-fly route, typed like notion parameters
ON_THE_FLY_PARAMS: dict[str, Any] = {"max_pairs": None, "frontier": "exact"}


def read_fields(
    op: str,
    declared: tuple[Field, ...],
    params: Any,
    defaults: dict | None = None,
    prefix: str = "",
) -> dict[str, Any]:
    """``params`` checked against ``declared``, every field present (defaults filled)."""
    if not isinstance(params, dict):
        where = prefix.rstrip(".") or None
        message = f"{where or op} must be an object, not {_show(params)}"
        raise RequestError(BAD_REQUEST, message, where)
    known = {field.name for field in declared}
    for name in params:
        if name not in known:
            hint = _hint(name, prefix, known)
            message = f"unknown field {prefix + name!r} in {op}{hint}"
            raise RequestError(BAD_REQUEST, message, prefix + name)
    defaults = defaults or {}
    return {field.name: field.read(op, prefix + field.name, params, defaults) for field in declared}


def _hint(name: str, prefix: str, known: set[str]) -> str:
    from repro.engine.notions import available_notions, get_notion

    if name in ON_THE_FLY_PARAMS or any(
        name in get_notion(notion).param_names for notion in available_notions()
    ):
        return " (notion parameters go in 'params')"
    if prefix and name == DEADLINE.name:
        return " (the deadline is set once for the whole batch)"
    return f"; fields: {', '.join(sorted(known)) or 'none'}"


def parse(op: str, params: Any) -> dict[str, Any]:
    """One operation's params, checked and completed; entries of a batch too.

    A ``check_many`` batch comes back with each entry of ``checks`` parsed
    as a check, the batch's :data:`BATCH_DEFAULTS` filled in where the
    entry does not set them.
    """
    fields = read_fields(op, OPERATIONS[op], params)
    if op == "check_many":
        batch = {name: fields[name] for name in BATCH_DEFAULTS}
        fields["checks"] = [
            read_fields(op, CHECK, item, batch, f"checks[{index}].")
            for index, item in enumerate(fields["checks"])
        ]
    return fields


def deadline_at(deadline_ms: float | None) -> float | None:
    """A ``deadline_ms`` duration as an absolute :func:`time.monotonic` instant."""
    return None if deadline_ms is None else time.monotonic() + deadline_ms / 1000.0


# ----------------------------------------------------------------------
# notions and their parameters
# ----------------------------------------------------------------------
def typed_param(owner: str, name: str, default: Any, value: Any) -> Any:
    """One parameter, checked against the type of its declared default.

    A bool default takes a bool; an int default an int >= 0 that is not a
    bool; an enum default (the solver ``method``) a member or a member's
    value, returned as the member; a None default an optional bound, null or
    an int >= 1; a str default a str.  Any other value passes through to
    the notion's ``normalize_params``.
    """
    if isinstance(default, Enum):
        try:
            return type(default)(value)
        except (ValueError, TypeError):
            expected = "one of " + ", ".join(repr(member.value) for member in type(default))
    elif isinstance(default, bool):
        if isinstance(value, bool):
            return value
        expected = "a boolean"
    elif isinstance(default, int):
        if _is_int(value) and value >= 0:
            return value
        expected = "an int >= 0"
    elif default is None:
        if value is None or (_is_int(value) and value >= 1):
            return value
        expected = "null or an int >= 1"
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
        expected = "a string"
    else:
        return value
    raise RequestError(
        CHECK_FAILED,
        f"parameter {name!r} of {owner} must be {expected}, not {_show(value)}",
        f"params.{name}",
    )


def bind_params(owner: str, defaults: dict[str, Any], params: dict[str, Any]) -> dict[str, Any]:
    """Reject undeclared parameters, type the rest, fill in the defaults."""
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        allowed = ", ".join(sorted(defaults)) or "none"
        raise RequestError(
            CHECK_FAILED,
            f"{owner} does not accept parameter(s) {unknown}; allowed: {allowed}",
            f"params.{unknown[0]}",
        )
    return {
        name: typed_param(owner, name, default, params.get(name, default))
        for name, default in defaults.items()
    }


def notion_named(name: Any):
    """The registered notion called ``name`` (or an alias), else check_failed."""
    from repro.engine.notions import get_notion

    try:
        return get_notion(name)
    except (ValueError, TypeError) as error:  # TypeError: an unhashable name
        raise RequestError(CHECK_FAILED, str(error), "notion") from None


def notion_params(notion, params: dict[str, Any]) -> dict[str, Any]:
    """A notion's canonical parameters: bound by its defaults, then normalised."""
    bound = bind_params(f"notion {notion.name!r}", notion.param_defaults, params)
    return notion.normalize_params(bound)


def minimize_notion(name: Any) -> str:
    """The canonical name of a notion that minimisation supports."""
    notion = notion_named(name).name
    if notion not in ("strong", "observational"):
        raise RequestError(
            CHECK_FAILED,
            f"minimisation is defined for 'strong' and 'observational', not notion {name!r}",
            "notion",
        )
    return notion


#: the fields that carry process references, in operand order
OPERANDS = tuple(dict.fromkeys(f.name for fs in OPERATIONS.values() for f in fs if f.type == "ref"))


def digest_refs(params: dict[str, Any]) -> list[str]:
    """Every digest reference among a request's operands, in order, deduplicated."""
    refs = (params.get(name) for name in OPERANDS)
    digests = (ref.get("digest") for ref in refs if isinstance(ref, dict))
    return list(dict.fromkeys(digest for digest in digests if isinstance(digest, str)))


def _composed(ref: Any) -> bool:
    return isinstance(ref, dict) and ("system" in ref or "scenario" in ref)


def check_spec(check: dict[str, Any]) -> dict[str, Any]:
    """The shard-worker job of one parsed check, its notion and params checked.

    Composed operands take the on-the-fly route unless ``on_the_fly`` says
    otherwise; that route's ``params`` are :data:`ON_THE_FLY_PARAMS`, the
    eager route's those of the notion.
    """
    spec = {field.name: check[field.name] for field in CHECK if field.name != "reduction"}
    if check["reduction"] is not None:
        spec["reduction"] = check["reduction"]
    notion = notion_named(check["notion"])
    lazy = check["on_the_fly"]
    if lazy or (lazy is None and (_composed(check["left"]) or _composed(check["right"]))):
        bind_params("the on-the-fly route", ON_THE_FLY_PARAMS, check["params"])
    else:
        notion_params(notion, check["params"])
    return spec


# ----------------------------------------------------------------------
# engine and CLI batch manifests
# ----------------------------------------------------------------------
def manifest_entry(item: Any, index: int, notion: Any) -> tuple[Any, Any, Any, dict[str, Any]]:
    """One engine manifest entry as ``(left, right, notion, notion params)``.

    An entry is ``(left, right)``, ``(left, right, notion)`` or a mapping with
    ``left``, ``right``, an optional ``notion`` and that notion's parameters
    at top level.  The other check fields are set for the whole batch.
    """
    where = f"check #{index}"
    if isinstance(item, (tuple, list)) and len(item) in (2, 3):
        return item[0], item[1], item[2] if len(item) == 3 else notion, {}
    if not isinstance(item, dict):
        raise RequestError(
            BAD_REQUEST,
            f"{where} must be (left, right), (left, right, notion), or a mapping; "
            f"got {type(item).__name__}",
            f"checks[{index}]",
        )
    params = dict(item)
    for name in ("left", "right"):
        if params.get(name) is None:
            message = f"{where} is missing the {name!r} key"
            raise RequestError(BAD_REQUEST, message, f"checks[{index}].{name}")
    left, right = params.pop("left"), params.pop("right")
    item_notion = params.pop("notion", notion)
    for name in params:
        if any(field.name == name for field in OPERATIONS["check"]):
            raise RequestError(
                BAD_REQUEST,
                f"{where}: field {name!r} is not set per entry (an entry carries left, right, "
                f"notion and notion parameters)",
                f"checks[{index}].{name}",
            )
    try:
        notion_params(notion_named(item_notion), params)
    except RequestError as error:
        field = (error.data or {}).get("field", "").removeprefix("params.")
        message = f"{where}: {error.message}"
        raise RequestError(error.code, message, f"checks[{index}].{field}") from None
    return left, right, item_notion, params

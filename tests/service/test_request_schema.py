"""One request schema at every front door: unknown and mistyped fields answer.

Each case below is a request some door used to answer wrongly -- a string
``"false"`` coerced to True, a parameter placed beside ``notion`` and
ignored, a scenario size that crashed the worker.  The declaration in
:mod:`repro.engine.request` now rejects every one of them, the same way on
a single node (``EquivalenceServer._respond``), through the cluster gateway
(``ClusterGateway._rpc``) and in the engine.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.gateway import ClusterGateway
from repro.engine import Engine
from repro.engine.request import RequestError
from repro.generators.random_fsp import random_fsp
from repro.service import EquivalenceServer, protocol

FSP = random_fsp(5, tau_probability=0.2, all_accepting=True, seed=3)
REF = protocol.process_ref(FSP)
CHECK = {"left": REF, "right": REF}

#: (op, params, code, data.field)
REJECTED = [
    ("check", {**CHECK, "align": "false"}, "bad_request", "align"),
    ("check", {**CHECK, "witness": "false"}, "bad_request", "witness"),
    ("check", {**CHECK, "on_the_fly": "no"}, "bad_request", "on_the_fly"),
    ("check", {**CHECK, "notion": "k-observational", "k": 3}, "bad_request", "k"),
    ("check", {**CHECK, "notoin": "strong"}, "bad_request", "notoin"),
    ("check", {**CHECK, "deadline_ms": "soon"}, "bad_request", "deadline_ms"),
    ("check", {**CHECK, "reduction": "fast"}, "bad_request", "reduction"),
    ("check", {"left": REF}, "bad_request", "right"),
    ("check", {**CHECK, "notion": "telepathic"}, "check_failed", "notion"),
    (
        "check",
        {**CHECK, "notion": "k-observational", "params": {"k": "two"}},
        "check_failed",
        "params.k",
    ),
    (
        "check",
        {**CHECK, "notion": "k-observational", "params": {"k": True}},
        "check_failed",
        "params.k",
    ),
    (
        "check",
        {**CHECK, "notion": "k-observational", "params": {"k": None}},
        "check_failed",
        "params.k",
    ),
    (
        "check",
        {**CHECK, "notion": "language", "params": {"max_states": "lots"}},
        "check_failed",
        "params.max_states",
    ),
    (
        "check",
        {**CHECK, "notion": "strong", "params": {"require_observable": "no"}},
        "check_failed",
        "params.require_observable",
    ),
    (
        "check",
        {**CHECK, "on_the_fly": True, "params": {"max_pairs": "many"}},
        "check_failed",
        "params.max_pairs",
    ),
    (
        "check_many",
        {"checks": [{**CHECK, "deadline_ms": 1000}]},
        "bad_request",
        "checks[0].deadline_ms",
    ),
    ("check_many", {"checks": [{**CHECK, "align": 1}]}, "bad_request", "checks[0].align"),
    ("check_many", {"checks": [CHECK], "params": {}}, "bad_request", "params"),
    ("store", {"process": REF["process"], "extra": 1}, "bad_request", "extra"),
    ("minimize", {"process": REF, "notion": "strong", "extra": 1}, "bad_request", "extra"),
    ("minimize", {"process": REF, "notion": "language"}, "check_failed", "notion"),
    ("classify", {"process": REF, "deadline_ms": 0}, "bad_request", "deadline_ms"),
    ("ping", {"extra": 1}, "bad_request", "extra"),
    ("stats", {"extra": 1}, "bad_request", "extra"),
]

CASE_IDS = [f"{op}-{field}-{index}" for index, (op, _p, _c, field) in enumerate(REJECTED)]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = EquivalenceServer(
        port=0, store_root=str(tmp_path_factory.mktemp("schema-store")), num_shards=1
    )
    server.pool.warm_up()
    yield server
    server.pool.shutdown()


def respond(server, op, params, request_id=1):
    line = protocol.request_frame(request_id, op, params)
    return json.loads(asyncio.run(server._respond(line)))


@pytest.fixture(scope="module")
def gateway():
    # Nothing listens on the node's port: every case must be answered by the
    # gateway's own parse, before any routing.
    return ClusterGateway(ClusterCoordinator({"n0": ("127.0.0.1", 9)}, request_timeout=5.0))


def gateway_rpc(gateway, op, params):
    body = json.dumps(params).encode("utf-8")
    return asyncio.run(gateway._rpc(f"/v1/{op}", op, body))


@pytest.mark.parametrize("op, params, code, field", REJECTED, ids=CASE_IDS)
def test_node_rejects(server, op, params, code, field):
    response = respond(server, op, params)
    assert response["ok"] is False
    assert response["error"]["code"] == code
    assert response["error"]["data"]["field"] == field
    assert field.split(".")[-1] in response["error"]["message"]


@pytest.mark.parametrize("op, params, code, field", REJECTED, ids=CASE_IDS)
def test_gateway_rejects_before_routing(gateway, op, params, code, field):
    status, payload, _extra = gateway_rpc(gateway, op, params)
    assert payload["ok"] is False
    assert payload["error"]["code"] == code
    assert payload["error"]["data"]["field"] == field
    assert status == {"bad_request": 400, "check_failed": 422}[code]
    assert gateway.coordinator.nodes["n0"].checks_sent == 0


def test_type_errors_name_the_parameter_and_type(server):
    response = respond(
        server, "check", {**CHECK, "notion": "k-observational", "params": {"k": "two"}}
    )
    assert "'k'" in response["error"]["message"] and "int" in response["error"]["message"]


def test_misplaced_parameter_hints_at_params(server):
    response = respond(server, "check", {**CHECK, "notion": "k-observational", "k": 3})
    assert "'params'" in response["error"]["message"]


def test_unknown_frame_field_is_rejected(server):
    line = protocol.encode_frame({"id": 7, "op": "ping", "params": {}, "priority": 1})
    response = json.loads(asyncio.run(server._respond(line)))
    assert response["id"] == 7
    assert response["error"]["code"] == "bad_request"
    assert response["error"]["data"]["field"] == "priority"


@pytest.mark.parametrize(
    "document",
    [
        {"name": "quorum_voting", "n": "x"},
        {"name": "quorum_voting", "f": "y"},
        {"name": "quorum_voting", "n": True},
        {"name": "quorum_voting", "n": 3.0},
        {"name": "two_phase_commit", "fualts": [{"kind": "crash", "role": "coordinator"}]},
        {"name": "two_phase_commit", "faults": [{"kind": "crash", "role": "coordinator", "x": 1}]},
        {"name": "two_phase_commit", "faults": "crash"},
        {"name": "two_phase_commit", "side": ["spec"]},
    ],
)
def test_bad_scenario_operands_are_invalid_process(server, document):
    params = {"left": {"scenario": document}, "right": {"scenario": {"name": "quorum_voting"}}}
    response = respond(server, "check", params)
    assert response["error"]["code"] == "invalid_process"


@pytest.mark.parametrize("ref", [{"digest": 5}, {"digest": ["sha256:"]}, "sha256:" + "0" * 64])
def test_malformed_references_are_invalid_process(server, ref):
    response = respond(server, "check", {"left": ref, "right": REF})
    assert response["error"]["code"] == "invalid_process"


def test_batch_deadline_applies_to_every_entry(server):
    response = respond(server, "check_many", {"checks": [CHECK, CHECK], "deadline_ms": 60000})
    assert response["ok"] is True
    assert response["result"]["summary"] == {
        "checks": 2, "equivalent": 2, "inequivalent": 0, "failed": 0
    }


def test_rejected_notion_in_a_batch_entry_stays_inline(server):
    checks = [CHECK, {**CHECK, "notion": "k-observational", "params": {"k": True}}]
    result = respond(server, "check_many", {"checks": checks})["result"]
    assert result["results"][0]["equivalent"] is True
    assert result["results"][1]["error"]["code"] == "check_failed"
    assert result["results"][1]["error"]["data"]["field"] == "params.k"


def test_minimize_accepts_notion_aliases(server):
    for alias, canonical in (("weak", "observational"), ("bisimulation", "strong")):
        response = respond(server, "minimize", {"process": REF, "notion": alias})
        assert response["ok"] is True
        assert response["result"]["notion"] == canonical


@pytest.mark.parametrize(
    "notion, params",
    [
        ("k-observational", {"k": True}),
        ("k-observational", {"k": None}),
        ("k-observational", {"k": "two"}),
        ("language", {"max_states": "lots"}),
        ("strong", {"require_observable": "no"}),
        ("strong", {"method": "quickest"}),
    ],
)
def test_engine_rejects_mistyped_notion_parameters(notion, params):
    name = next(iter(params))
    with pytest.raises(RequestError, match=repr(name)) as info:
        Engine().check(FSP, FSP, notion, **params)
    assert isinstance(info.value, TypeError)
    assert info.value.data == {"field": f"params.{name}"}


def test_engine_types_the_solver_method():
    verdict = Engine().check(FSP, FSP, "strong", method="naive")
    assert verdict.equivalent


def test_engine_manifest_rejects_batch_fields_per_entry():
    with pytest.raises(RequestError, match=r"check #1: field 'witness'"):
        Engine().check_many([(FSP, FSP), {"left": FSP, "right": FSP, "witness": True}])
    with pytest.raises(RequestError, match=r"check #0: parameter 'k'"):
        Engine().check_many([{"left": FSP, "right": FSP, "notion": "kobs", "k": True}])
    with pytest.raises(TypeError, match=r"check #1: 'left' must name an FSP"):
        Engine().check_many([(FSP, FSP), {"left": 5, "right": FSP}])


def test_engine_minimize_accepts_aliases():
    engine = Engine()
    assert engine.minimize(FSP, "weak") == engine.minimize(FSP, "observational")
    assert engine.minimize(FSP, "bisimulation") == engine.minimize(FSP, "strong")

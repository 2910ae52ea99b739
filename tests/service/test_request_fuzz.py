"""A request fuzzer driven by the request declaration.

Requests are generated from :data:`repro.engine.request.OPERATIONS`: each
declared field gets a value of its type most of the time and an arbitrary
JSON value otherwise, so the generator follows the schema as it grows.  Sent
through a single node (``EquivalenceServer._respond``) and through the cluster
gateway (``ClusterGateway._route``, over a scripted node), no response may be
``internal``, and a request with one undeclared field must answer
``bad_request``.  A fixed corpus, replayed in subprocesses under two hash
seeds, must give byte-identical responses once timings and worker identity
are masked.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster import gateway as gateway_module
from repro.cluster.gateway import ClusterGateway
from repro.engine import available_notions, get_notion
from repro.engine.request import CHECK, ON_THE_FLY_PARAMS, OPERATIONS
from repro.explore.system import spec_to_document
from repro.generators.families import token_ring_pair
from repro.generators.random_fsp import perturb, random_fsp
from repro.service import EquivalenceServer, protocol

_SRC = Path(__file__).resolve().parents[2] / "src"
FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BASE = random_fsp(5, tau_probability=0.2, all_accepting=True, seed=41)
REFS = [
    protocol.process_ref(BASE),
    protocol.process_ref(perturb(BASE, seed=42)),
    {"digest": "sha256:" + "0" * 64},
    {"system": spec_to_document(token_ring_pair(3)[0])},
    {"scenario": {"name": "two_phase_commit", "n": 2}},
    {"scenario": {"name": "two_phase_commit", "n": 2, "side": "mutant"}},
    {"scenario": {"name": "quorum_voting", "n": "x"}},
    {"process": {"format": "wrong"}},
    {"digest": 5},
    {"digest": ["sha256:"]},
    "sha256:" + "0" * 64,
]
_REGISTERED = [get_notion(name) for name in available_notions()]
NOTIONS = sorted({n.name for n in _REGISTERED} | {a for n in _REGISTERED for a in n.aliases})
NOTIONS.append("telepathic")
PARAM_NAMES = sorted({p for n in _REGISTERED for p in n.param_names} | set(ON_THE_FLY_PARAMS))
PARAM_NAMES.append("bogus")

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-1, 1e4) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2)
    ),
    max_leaves=4,
)
PARAM_VALUES = (
    st.integers(0, 3)
    | st.booleans()
    | st.none()
    | st.sampled_from(["naive", "paige-tarjan", "python", "auto", "exact", "compact", "x"])
)


def value_of(field) -> st.SearchStrategy:
    """A value for one declared field: usually of its type, sometimes any JSON."""
    choices = field.choices() if callable(field.choices) else field.choices
    valid = {
        "ref": lambda: st.sampled_from(REFS),
        "bool": st.booleans,
        "string": lambda: st.sampled_from(list(choices) or NOTIONS),
        # generous deadlines: a fuzzed check must not race its own budget
        "duration": lambda: st.floats(30_000, 60_000),
        "object": lambda: st.dictionaries(st.sampled_from(PARAM_NAMES), PARAM_VALUES, max_size=2),
        "list": lambda: st.lists(fields_of(CHECK), max_size=3),
        "scalar": st.integers,
    }[field.type]()
    return st.one_of(valid, valid, valid, JSON)


def fields_of(declared) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {field.name: value_of(field) for field in declared if field.required},
        optional={field.name: value_of(field) for field in declared if not field.required},
    )


def requests_for(ops) -> st.SearchStrategy:
    return st.sampled_from(sorted(ops)).flatmap(
        lambda op: st.tuples(st.just(op), fields_of(OPERATIONS[op]))
    )


REQUESTS = requests_for(OPERATIONS)
#: the operations the gateway serves as POST routes (``metrics`` is a GET)
GATEWAY_REQUESTS = requests_for(set(OPERATIONS) & set(gateway_module._POST_OPS))
UNKNOWN_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = EquivalenceServer(
        port=0, store_root=str(tmp_path_factory.mktemp("fuzz-store")), num_shards=1
    )
    server.pool.warm_up()
    yield server
    server.pool.shutdown()


def respond(server, op, params) -> dict:
    line = protocol.request_frame(1, op, params)
    return json.loads(asyncio.run(server._respond(line)))


async def _accepting_node() -> asyncio.AbstractServer:
    """A scripted node that answers every well-framed request with success."""

    async def handle(reader, writer):
        while line := await reader.readline():
            request_id, _op, _params = protocol.parse_request(line)
            writer.write(protocol.ok_response(request_id, {"equivalent": True, "classes": []}))
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


@pytest.fixture(scope="module")
def gateway():
    loop = asyncio.new_event_loop()
    node = loop.run_until_complete(_accepting_node())
    port = node.sockets[0].getsockname()[1]
    coordinator = ClusterCoordinator({"n0": ("127.0.0.1", port)}, request_timeout=30.0)
    yield loop, ClusterGateway(coordinator)
    loop.run_until_complete(coordinator.stop())
    node.close()
    loop.run_until_complete(node.wait_closed())
    loop.close()


def gateway_rpc(gateway, op, params) -> dict:
    loop, front = gateway
    _status, payload, _extra = loop.run_until_complete(
        front._route("POST", f"/v1/{op}", json.dumps(params).encode("utf-8"))
    )
    return payload


def _code(response: dict) -> str | None:
    return None if response["ok"] else response["error"]["code"]


@FUZZ
@given(request=REQUESTS)
def test_node_never_answers_internal(server, request):
    op, params = request
    response = respond(server, op, params)
    assert _code(response) != "internal", response
    if op == "check_many" and response["ok"]:
        assert all(
            r.get("error", {}).get("code") != "internal" for r in response["result"]["results"]
        ), response


@FUZZ
@given(request=REQUESTS, name=UNKNOWN_NAMES)
def test_node_rejects_any_undeclared_field(server, request, name):
    op, params = request
    assume(name not in {field.name for field in OPERATIONS[op]})
    assert _code(respond(server, op, {**params, name: 1})) == "bad_request"


@FUZZ
@given(request=GATEWAY_REQUESTS)
def test_gateway_never_answers_internal(gateway, request):
    op, params = request
    response = gateway_rpc(gateway, op, params)
    assert _code(response) != "internal", response


@FUZZ
@given(request=GATEWAY_REQUESTS, name=UNKNOWN_NAMES)
def test_gateway_rejects_any_undeclared_field(gateway, request, name):
    op, params = request
    assume(name not in {field.name for field in OPERATIONS[op]})
    assert _code(gateway_rpc(gateway, op, {**params, name: 1})) == "bad_request"


# ----------------------------------------------------------------------
# the same bytes under every hash seed
# ----------------------------------------------------------------------
_CORPUS_SCRIPT = """
import asyncio, json, sys, tempfile
from repro.explore.system import spec_to_document
from repro.generators.families import token_ring_pair
from repro.generators.random_fsp import perturb, random_fsp
from repro.service import EquivalenceServer, protocol

MASKED = {"seconds", "pid", "queue_wait", "shard"}

def mask(value):
    if isinstance(value, dict):
        return {k: None if k in MASKED else mask(v) for k, v in value.items()}
    if isinstance(value, list):
        return [mask(v) for v in value]
    return value

base = random_fsp(6, tau_probability=0.25, all_accepting=True, seed=7)
a, b = protocol.process_ref(base), protocol.process_ref(perturb(base, seed=8))
ring_ok, ring_bad = (protocol.process_ref(s) for s in token_ring_pair(3))
two_pc = {"name": "two_phase_commit", "n": 2}
corpus = [
    ("ping", {}),
    ("store", {"process": a["process"]}),
    ("classify", {"process": a}),
    ("minimize", {"process": a, "notion": "weak"}),
    ("minimize", {"process": b, "notion": "strong"}),
    ("check", {"left": a, "right": b, "notion": "strong", "witness": True}),
    ("check", {"left": a, "right": b, "witness": True}),
    ("check", {"left": a, "right": b, "notion": "language", "witness": True}),
    ("check", {"left": a, "right": b, "notion": "failure", "witness": True}),
    ("check", {"left": a, "right": b, "notion": "kobs", "params": {"k": 2}}),
    ("check", {"left": ring_ok, "right": ring_bad, "witness": True}),
    ("check", {"left": {"scenario": {**two_pc, "side": "spec"}},
               "right": {"scenario": {**two_pc, "side": "mutant"}}, "witness": True}),
    ("check_many", {"checks": [{"left": a, "right": a}, {"left": a, "right": b},
                               {"left": a, "right": b, "notion": "telepathic"}],
                    "notion": "strong", "witness": True}),
    ("check", {"left": a, "right": b, "align": "false"}),
    ("check", {"left": a, "right": b, "notion": "kobs", "k": 3}),
    ("check", {"left": {"scenario": {"name": "quorum_voting", "n": "x"}}, "right": a}),
]

async def main():
    with tempfile.TemporaryDirectory() as root:
        server = EquivalenceServer(port=0, store_root=root, num_shards=1)
        server.pool.warm_up()
        try:
            for index, (op, params) in enumerate(corpus):
                line = await server._respond(protocol.request_frame(index, op, params))
                sys.stdout.write(protocol.encode_frame(mask(json.loads(line))).decode())
        finally:
            server.pool.shutdown()

asyncio.run(main())
"""


def _corpus_under_hash_seed(seed: int) -> list[str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(_SRC), env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", _CORPUS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return completed.stdout.splitlines()


def test_responses_ignore_the_hash_seed():
    first = _corpus_under_hash_seed(0)
    second = _corpus_under_hash_seed(1)
    assert len(first) == 16
    for left, right in zip(first, second):
        assert left == right
    codes = [_code(json.loads(line)) for line in first]
    assert codes[:13] == [None] * 13
    assert codes[13:] == ["bad_request", "bad_request", "invalid_process"]

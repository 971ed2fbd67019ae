"""The shared JSON service base, at both daemons' boundaries.

Worker and coordinator are route tables over one handler, so every
boundary rule -- body framing, envelope, auth, unknown paths -- must
answer identically on both, with the exact status and a typed
``{"error": ..., "kind": ...}`` body, and a hostile ``Content-Length``
must never hang or kill either daemon.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.coordinator import start_coordinator
from repro.dispatch.worker import start_worker
from repro.service import MAX_BODY_BYTES

TOKEN = "fleet-secret"

#: daemon -> (starter over a tmp dir, a POST route that reads a body)
DAEMONS = {
    "worker": (lambda tmp, token: start_worker(token=token), "/specs"),
    "coordinator": (
        lambda tmp, token: start_coordinator(store_path=str(tmp), token=token),
        "/jobs",
    ),
}


@pytest.fixture(scope="module", params=sorted(DAEMONS))
def daemon(request, tmp_path_factory):
    start, path = DAEMONS[request.param]
    handle = start(tmp_path_factory.mktemp(request.param), TOKEN)
    yield handle, path
    handle.stop()


def _post(handle, path, payload, token=TOKEN):
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        f"{handle.url}{path}", data=payload, headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


#: (case, path or None for the daemon's body route, body, token,
#:  status, kind, error fragment)
BOUNDARY = [
    ("non-json", None, b"not json", TOKEN, 400, "bad-request", "unparseable"),
    ("non-object", None, b"[1, 2]", TOKEN, 400, "bad-request", "JSON object"),
    ("newer-version", None, b'{"version": 2}', TOKEN, 400, "bad-request",
     "newer"),
    ("non-integer-version", None, b'{"version": "1"}', TOKEN, 400,
     "bad-request", "must be an integer"),
    ("wrong-token", None, b"{}", "not-the-secret", 401, "unauthorized",
     "bearer token"),
    ("no-token", None, b"{}", None, 401, "unauthorized", "bearer token"),
    ("unknown-path", "/nope", b"{}", TOKEN, 404, "not-found", "unknown path"),
]


@pytest.mark.parametrize(
    "case,path,body,token,status,kind,fragment",
    BOUNDARY,
    ids=[row[0] for row in BOUNDARY],
)
def test_boundary_taxonomy(daemon, case, path, body, token, status, kind,
                           fragment):
    handle, body_route = daemon
    got_status, doc = _post(handle, path or body_route, body, token=token)
    assert got_status == status
    assert doc["kind"] == kind
    assert isinstance(doc["error"], str) and fragment in doc["error"]


def test_open_routes_and_gated_metrics(daemon):
    handle, _ = daemon
    for path in ("/", "/healthz"):
        with urllib.request.urlopen(f"{handle.url}{path}", timeout=5) as response:
            assert json.loads(response.read())["ok"] is True
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{handle.url}/metrics", timeout=5)
    assert excinfo.value.code == 401


def _raw_status(handle, path, length):
    """Send headers only, claiming ``length``; the status within 1 s."""
    host, port = handle.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=1.0) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {handle.address}\r\n"
            f"Authorization: Bearer {TOKEN}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        data = b""
        while b"\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    return int(data.split(b"\r\n", 1)[0].split()[1])


@pytest.mark.parametrize(
    "length,status",
    [(-1, 400), ("twelve", 400), (2**62, 413), (MAX_BODY_BYTES + 1, 413)],
    ids=["negative", "non-integer", "huge", "one-over-cap"],
)
def test_hostile_content_length_is_refused_and_the_daemon_survives(
    daemon, length, status
):
    handle, path = daemon
    started = time.perf_counter()
    assert _raw_status(handle, path, length) == status
    assert time.perf_counter() - started < 1.0
    with urllib.request.urlopen(f"{handle.url}/healthz", timeout=5) as response:
        assert json.loads(response.read())["ok"] is True

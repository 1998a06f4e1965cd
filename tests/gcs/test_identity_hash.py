"""Cached identity hashes: same values as the field tuple, and safe to
pickle between processes whose ``str`` hashes differ."""

import copy
import os
import pickle
import subprocess
import sys

from repro.gcs.view import ProcessId
from repro.net.address import Endpoint

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

CHILD = (
    "import pickle, sys\n"
    "from repro.gcs.view import ProcessId\n"
    "pid = ProcessId(3, 'server-a')\n"
    "sys.stdout.buffer.write(pickle.dumps((pid, hash(pid))))\n"
)


def test_pickled_process_id_rehashes_in_the_receiving_process():
    seed = os.environ.get("PYTHONHASHSEED", "")
    child_seed = str(int(seed) + 1) if seed.isdigit() else "1"
    env = dict(os.environ, PYTHONHASHSEED=child_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    blob = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, check=True, capture_output=True
    ).stdout
    pid, child_hash = pickle.loads(blob)

    local = ProcessId(3, "server-a")
    # The child really hashed differently, so a carried-over hash would
    # miss every lookup below.
    assert child_hash != hash(local)
    assert hash(pid) == hash(local) == hash((3, "server-a"))
    assert pid == local
    assert {local: "x"}[pid] == "x"
    assert pid in {local}
    assert pid in frozenset([ProcessId(1, "a"), local])


def test_identity_types_keep_their_dataclass_behaviour():
    a, b, c = ProcessId(1, "b"), ProcessId(1, "c"), ProcessId(2, "a")
    assert a == ProcessId(1, "b") and a != b
    assert a < b < c and not c < a
    assert sorted([c, b, a]) == [a, b, c]
    assert repr(a) == "ProcessId(node=1, name='b')"
    assert str(a) == "b@1"
    assert hash(a) == hash((1, "b"))

    e, f = Endpoint(1, 8000), Endpoint(2, 7000)
    assert e == Endpoint(1, 8000) and e != f
    assert e < f and Endpoint(1, 7000) < e
    assert repr(e) == "Endpoint(node=1, port=8000)"
    assert str(e) == "1:8000"
    assert hash(e) == hash((1, 8000))

    for value in (a, e):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)

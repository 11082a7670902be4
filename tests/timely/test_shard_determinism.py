"""Cross-process determinism of ``stable_hash`` / ``shard_for``.

The work meter attributes every keyed record to a simulated worker by
``shard_for(key, W)``; if that assignment depended on Python's
per-process hash salting, two runs (a test and a fresh CLI process, or
two CI runs) would report different ``parallel_time`` for the same
input. These tests pin the hashes both in-process and across
subprocesses launched with *different* ``PYTHONHASHSEED`` values.
"""

import os
import subprocess
import sys

from repro.timely.worker import shard_for, stable_hash

#: A battery covering every type branch of stable_hash, including the
#: ones whose repr (and thus any fallback path) is salt-sensitive.
BATTERY = [
    0,
    -17,
    2 ** 63,
    3.5,
    -0.0,
    True,
    None,
    "",
    "vertex-42",
    "naïve-ünïcode",
    b"",
    b"raw\x00bytes",
    (),
    (1, "a"),
    ((1, 2), (3, (4, "five"))),
    frozenset(),
    frozenset({1, 2, 3}),
    frozenset({"a", "b", ("c", 7)}),
    frozenset({frozenset({1}), frozenset({2, 3})}),
]


def _battery_signature():
    return [(stable_hash(value), shard_for(value, 4), shard_for(value, 7))
            for value in BATTERY]


def _subprocess_signature(hash_seed: str):
    """Compute the battery signature in a fresh interpreter."""
    code = (
        "import sys, json\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tests.timely.test_shard_determinism import "
        "_battery_signature\n"
        "json.dump(_battery_signature(), sys.stdout)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(root, "src")
    result = subprocess.run(
        [sys.executable, "-c", code, root],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    import json

    return json.loads(result.stdout)


def test_frozenset_hash_is_order_insensitive():
    assert stable_hash(frozenset({1, 2, 3})) == \
        stable_hash(frozenset({3, 1, 2}))


def test_bytes_and_str_hash_differently():
    assert stable_hash(b"abc") != stable_hash("abc")


def test_shard_for_spreads_and_is_stable():
    owners = {shard_for(("v", i), 4) for i in range(64)}
    assert owners == {0, 1, 2, 3}
    for value in BATTERY:
        assert shard_for(value, 4) == shard_for(value, 4)


def test_battery_identical_across_hash_seeds():
    """Two interpreters with different PYTHONHASHSEED agree exactly."""
    local = [list(entry) for entry in _battery_signature()]
    assert _subprocess_signature("0") == local
    assert _subprocess_signature("12345") == local

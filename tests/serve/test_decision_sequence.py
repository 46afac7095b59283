"""Pin the serving loop's decision sequence on the built-in scenarios.

``check_serve_regression.py`` compares report counters and a few
floats; this pins *what the loop decided, in which order*.  Only the
discrete fields enter the pin — the event kind and the request id (or
GPU index for pool events) of every ``serve-*`` decision — so libm
float drift cannot break it, while any reordering of admissions,
dispatches, retries, resizes or outcomes does.

The pinned values were computed from the decision logs of the serving
loop before it was split into per-event handlers; a refactor of the
loop must reproduce them unchanged.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.obs import capture_decisions
from repro.serve import serve
from repro.serve.scenarios import SCENARIOS, scenario_config

#: scenario -> (sha256 prefix of the ordered pairs, decisions per kind)
PINNED: dict[str, tuple[str, dict[str, int]]] = {
    "steady-state": (
        "fe2753293aa49ea8",
        {"serve-admit": 26, "serve-complete": 26, "serve-dispatch": 26},
    ),
    "burst-overload": (
        "0c9e28aad43af05f",
        {"serve-admit": 33, "serve-complete": 30, "serve-dispatch": 30, "serve-shed": 20},
    ),
    "gpu-loss": (
        "a4da2134e95f981a",
        {
            "serve-admit": 28,
            "serve-complete": 27,
            "serve-dispatch": 28,
            "serve-displaced": 1,
            "serve-gpu-fail": 2,
            "serve-retry": 1,
        },
    ),
    "gpu-loss-recovery": (
        "d1e98f96c90a4807",
        {
            "serve-admit": 30,
            "serve-complete": 21,
            "serve-dispatch": 23,
            "serve-displaced": 2,
            "serve-gpu-fail": 3,
            "serve-gpu-repair": 3,
            "serve-resize": 2,
            "serve-retry": 4,
        },
    ),
}


def decision_pairs(name: str) -> list[tuple[str, object]]:
    """Ordered ``(event, request or gpu)`` pairs of one scenario's run."""
    with capture_decisions() as log:
        serve(scenario_config(name))
    return [
        (r["event"], r["request"] if "request" in r else r["gpu"])
        for r in log
        if r["event"].startswith("serve-")
    ]


def test_every_scenario_is_pinned():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decision_sequence_is_pinned(name):
    pairs = decision_pairs(name)
    digest, kinds = PINNED[name]
    assert dict(Counter(event for event, _ in pairs)) == kinds
    blob = json.dumps(pairs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest

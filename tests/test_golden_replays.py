"""Golden replay fixtures: allocator counts and peaks, pinned.

``tests/fixtures/golden_replays.json`` records, for each shared test trace
and each allocator of the paper's line-up plus the STAlloc variants, the
replay result (``ReplayResult.as_dict()``), the allocator's operation
counters and the device's driver-call counters.  Two tight-capacity cases
pin the memory-pressure paths: the caching allocator releasing its cached
segments, and expandable segments unmapping idle granules.

Allocator internals may be rewritten for speed; none of these numbers may
move.  When a change to simulated behaviour is intentional, regenerate the
fixture and commit it with the change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_replays.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.gpu.device import Device, GIB, MIB
from repro.simulator.replay import replay_trace
from repro.simulator.runner import STALLOC_NO_REUSE, _build_allocator, default_allocator_lineup

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_replays.json"

REGEN_HINT = (
    "If this change to simulated allocator behaviour is intentional, regenerate "
    "the fixture with `REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest "
    "tests/test_golden_replays.py` and commit tests/fixtures/golden_replays.json "
    "with the change."
)

TRACES = ["dense_trace", "moe_trace", "recompute_trace", "comm_heavy_trace"]
ALLOCATORS = default_allocator_lineup() + [STALLOC_NO_REUSE]
ROOMY_CAPACITY = 400 * GIB

#: (case name) -> (trace fixture, allocator, device capacity, counter that
#: proves the memory-pressure path ran).  Both replays keep going past OOMs.
TIGHT_CASES = {
    "tight/dense_trace/torch2.0": ("dense_trace", "torch2.0", 4966 * MIB, "device_free_calls"),
    "tight/dense_trace/torch_es": ("dense_trace", "torch_es", 4608 * MIB, "handles_released"),
}


def _case_names() -> list[str]:
    roomy = [f"{trace}/{allocator}" for trace in TRACES for allocator in ALLOCATORS]
    return roomy + sorted(TIGHT_CASES)


def _case(name: str) -> tuple[str, str, int, bool]:
    """(trace fixture, allocator, capacity, stop_on_oom) for a case name."""
    if name in TIGHT_CASES:
        trace_name, allocator_name, capacity, _ = TIGHT_CASES[name]
        return trace_name, allocator_name, capacity, False
    trace_name, allocator_name = name.split("/")
    return trace_name, allocator_name, ROOMY_CAPACITY, True


def _replay_entry(name: str, request) -> dict:
    trace_name, allocator_name, capacity, stop_on_oom = _case(name)
    trace = request.getfixturevalue(trace_name)
    device = Device(name="golden", capacity=capacity)
    allocator, _ = _build_allocator(allocator_name, device, trace, cache=None)
    result = replay_trace(trace, allocator, stop_on_oom=stop_on_oom)
    entry = {
        "replay": result.as_dict(),
        "allocator_stats": result.allocator_stats,
        "device": {
            key: getattr(device.stats, key)
            for key in ("malloc_calls", "free_calls", "failed_mallocs", "peak_in_use")
        },
    }
    vmm = getattr(allocator, "vmm", None)
    if vmm is not None:
        entry["vmm"] = {
            "handles_created": vmm.stats.handles_created,
            "handles_released": vmm.stats.handles_released,
            "map_calls": vmm.stats.map_calls,
            "unmap_calls": vmm.stats.unmap_calls,
            "mapped_bytes": vmm.mapped_bytes,
        }
    return entry


def _load_fixtures() -> dict:
    if not FIXTURE_PATH.exists():
        pytest.fail(f"golden fixture file {FIXTURE_PATH} is missing. {REGEN_HINT}")
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_regenerate_fixtures_when_requested(request):
    """With REGEN_GOLDEN=1, rewrite the fixture file (and always pass)."""
    if not os.environ.get("REGEN_GOLDEN"):
        pytest.skip("set REGEN_GOLDEN=1 to rewrite tests/fixtures/golden_replays.json")
    entries = {name: _replay_entry(name, request) for name in _case_names()}
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_fixture_cases_in_sync_with_code():
    assert sorted(_load_fixtures()) == sorted(_case_names()), (
        "fixture file and the case list disagree. " + REGEN_HINT
    )


def test_tight_cases_drive_the_pressure_paths():
    """The tight cases must really release segments / unmap granules, and
    really fail some requests, or they no longer pin those paths."""
    fixtures = _load_fixtures()
    for name, (_, _, _, counter) in TIGHT_CASES.items():
        entry = fixtures[name]
        driven = entry["allocator_stats"].get(counter) or entry.get("vmm", {}).get(counter)
        assert driven, f"{name}: {counter} is zero"
        assert entry["device"]["failed_mallocs"] > 0, name
        assert entry["replay"]["failed_allocs"] > 0, name


@pytest.mark.parametrize("name", _case_names())
def test_golden_replay(name, request):
    expected = _load_fixtures()[name]
    actual = json.loads(json.dumps(_replay_entry(name, request)))
    if actual == expected:
        return
    diff = "\n".join(
        f"  {section}.{key}: recorded {expected.get(section, {}).get(key)!r} -> "
        f"replayed {actual.get(section, {}).get(key)!r}"
        for section in sorted(set(expected) | set(actual))
        for key in sorted(set(expected.get(section, {})) | set(actual.get(section, {})))
        if expected.get(section, {}).get(key) != actual.get(section, {}).get(key)
    )
    pytest.fail(f"golden replay {name!r} drifted from its recorded fixture:\n{diff}\n{REGEN_HINT}")

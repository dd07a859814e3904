#!/usr/bin/env python3
"""Regenerate the golden-stats fingerprint file for the equivalence suite.

The golden file (``tests/data/golden_stats.json``) pins the complete
:class:`~repro.sim.results.SimulationResult` — cycles, instructions, every
core/hierarchy counter and (for programmable modes) the prefetcher engine
statistics — for **every registered workload × every available prefetch
mode** at test (tiny) scale.  ``tests/test_sim_integration.py`` asserts each
simulation reproduces its fingerprint *bit-for-bit*, which is the guard that
lets the hot-path code be restructured for speed without any risk of
silently changing the timing model.

The same run also writes ``tests/data/engine_stress_stats.json``: the paper
workloads' programmable modes under prefetcher configurations the default
system never reaches — a two-entry request queue (prefetch requests are
dropped), a two-entry observation queue on a single PPU, the round-robin
scheduling policy, and the blocking ablation on a single PPU.  Each
configuration is stored next to its fingerprints, so the test suite rebuilds
it from the file alone.

Only run this tool when the timing model is *intentionally* changed (a new
feature or a deliberate model fix), never to "make the tests pass" after an
optimisation — an optimisation that changes any number is a bug::

    python tools/update_golden_stats.py          # rewrite both files
    python tools/update_golden_stats.py --check  # verify without writing
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import SystemConfig  # noqa: E402
from repro.sim.engine.request import resolve_policy  # noqa: E402
from repro.sim.modes import PrefetchMode, mode_available  # noqa: E402
from repro.sim.system import simulate  # noqa: E402
from repro.workloads import build_workload, registry  # noqa: E402

#: Where the fingerprints live, relative to the repository root.
GOLDEN_PATH = _REPO_ROOT / "tests" / "data" / "golden_stats.json"

#: The engine-stress fingerprints, written next to the golden file.
STRESS_NAME = "engine_stress_stats.json"

#: Fingerprinted scale and seed — the test suite's standard tiny scale.
SCALE = "tiny"
SEED = 42

_PROGRAMMABLE_MODES = [mode.value for mode in PrefetchMode if mode.uses_programmable_prefetcher]

#: Prefetcher configurations that drive the event engine down paths the
#: default configuration does not: ``prefetcher`` holds
#: :meth:`SystemConfig.with_prefetcher` overrides and ``policy`` a name from
#: :data:`repro.sim.engine.request.POLICY_REGISTRY`.
STRESS_CONFIGURATIONS: dict[str, dict] = {
    "prefetch-queue-2": {
        "prefetcher": {"prefetch_queue_entries": 2},
        "policy": None,
        "modes": _PROGRAMMABLE_MODES,
    },
    "observation-queue-2-one-ppu": {
        "prefetcher": {"observation_queue_entries": 2, "num_ppus": 1},
        "policy": None,
        "modes": _PROGRAMMABLE_MODES,
    },
    "round-robin": {
        "prefetcher": {},
        "policy": "round-robin",
        "modes": _PROGRAMMABLE_MODES,
    },
    "blocked-one-ppu": {
        "prefetcher": {"num_ppus": 1},
        "policy": None,
        "modes": [PrefetchMode.MANUAL_BLOCKED.value],
    },
}


def compute_golden_stats() -> dict[str, dict]:
    """Simulate every (workload, available mode) point and collect fingerprints."""

    config = SystemConfig.scaled()
    golden: dict[str, dict] = {}
    for name in registry.names():
        workload = build_workload(name, scale=SCALE, seed=SEED)
        for mode in PrefetchMode:
            if not mode_available(workload, mode):
                continue
            result = simulate(workload, mode, config)
            # JSON round-trip normalises containers (tuples -> lists) so the
            # stored fingerprint compares equal to a re-loaded one.
            golden[f"{name}/{mode.value}"] = json.loads(json.dumps(result.as_dict()))
    return golden


def compute_stress_stats() -> dict[str, dict]:
    """Simulate every stress configuration over the paper workloads."""

    base = SystemConfig.scaled()
    fingerprints: dict[str, dict] = {}
    for name in registry.paper_names():
        workload = build_workload(name, scale=SCALE, seed=SEED)
        for label, spec in STRESS_CONFIGURATIONS.items():
            config = base.with_prefetcher(**spec["prefetcher"])
            for mode_name in spec["modes"]:
                mode = PrefetchMode(mode_name)
                if not mode_available(workload, mode):
                    continue
                result = simulate(workload, mode, config, policy=resolve_policy(spec["policy"]))
                fingerprints[f"{label}/{name}/{mode.value}"] = json.loads(
                    json.dumps(result.as_dict())
                )
    return {"configurations": STRESS_CONFIGURATIONS, "fingerprints": fingerprints}


def _entries(data: dict) -> dict:
    """The file's comparable entries: one per fingerprint (plus the configurations)."""

    if "fingerprints" not in data:
        return data
    return {**data["fingerprints"], "configurations": data["configurations"]}


def _check(path: Path, computed: dict) -> int:
    committed = _entries(json.loads(path.read_text(encoding="utf-8")))
    computed = _entries(computed)
    mismatched = sorted(
        key
        for key in set(committed) | set(computed)
        if committed.get(key) != computed.get(key)
    )
    for key in mismatched:
        print(f"MISMATCH: {path.name}: {key}", file=sys.stderr)
    print(f"checked {len(computed)} entries of {path.name}: {len(mismatched)} mismatches")
    return len(mismatched)


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(_entries(data))} entries to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed files instead of writing")
    parser.add_argument("--output", default=str(GOLDEN_PATH), metavar="PATH")
    args = parser.parse_args(argv)

    path = Path(args.output)
    outputs = [
        (path, compute_golden_stats()),
        (path.with_name(STRESS_NAME), compute_stress_stats()),
    ]

    if args.check:
        mismatches = sum(_check(out, data) for out, data in outputs)
        return 1 if mismatches else 0

    for out, data in outputs:
        _write(out, data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

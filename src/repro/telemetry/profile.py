"""Hot-path profiler: retirement attribution per block/trigger/production.

The translated and batch tiers retire almost everything through pre-bound
steps, so per-opcode telemetry cannot say *which code* is hot.  This
profiler attributes retirement counts to:

* **blocks** — the entry PC of each straight-line run of translated sites
  (translated tier), compiled block (batch lanes), or dynamic basic-block
  leader (the interpretive generic tier: a leader is any PC reached
  non-sequentially);
* **trigger PCs** — expansions taken per trigger site;
* **productions** — DISE-injected instructions per production (``seq<N>``).

Attribution is block-granular on the translated and batch tiers (one
dict bump per run or compiled-block call, not per instruction), and on
the translated tier the hooks live in the site runner, so dispatch stays
unwrapped (``tests/test_tracing.py`` pins this).
Like everything in :mod:`repro.telemetry`, it is opt-in
(``REPRO_TRACE_PROFILE``) and gated at machine construction: with the
profiler off, no hook exists on the dispatch path and the structural
disabled-mode contract of :mod:`repro.telemetry` holds.

Counts are process-local dicts while running; :func:`publish` folds their
growth into the telemetry registry as ``profile.*`` counters (when
``REPRO_TELEMETRY`` is on), so worker-process profiles merge back to the
parent through the existing ``snapshot_delta`` machinery and land in the
run log's final metrics snapshot.  :func:`collapsed_from_metrics` renders
those counters as collapsed-stack lines (``frame;frame count``) that
flamegraph.pl and speedscope ingest directly.
"""

import os
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.telemetry import registry as _registry

_ENV_VAR = "REPRO_TRACE_PROFILE"
_TRUTHY = ("1", "on", "true", "yes", "enabled")


class _State(object):
    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = (
            os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY
        )


_STATE = _State()


def enabled() -> bool:
    """True when hot-path profiling is on (``REPRO_TRACE_PROFILE``)."""
    return _STATE.enabled


def configure(value: Optional[bool] = None) -> bool:
    """Set profiling on/off explicitly, or re-read the environment."""
    if value is None:
        _STATE.enabled = (
            os.environ.get(_ENV_VAR, "").strip().lower() in _TRUTHY
        )
    else:
        _STATE.enabled = bool(value)
    return _STATE.enabled


@contextmanager
def profile_scope(value: bool):
    """Temporarily force profiling on/off (tests, benchmarks)."""
    previous = _STATE.enabled
    _STATE.enabled = bool(value)
    try:
        yield
    finally:
        _STATE.enabled = previous


# ----------------------------------------------------------------------
# Per-machine profile state
# ----------------------------------------------------------------------
def new_profile(tier: str) -> dict:
    """Fresh attribution dicts for one machine (or batch cohort).

    ``block`` maps entry PC -> retired instructions, ``trigger`` maps
    trigger PC -> expansions, ``production`` maps seq id -> injected
    instructions.  ``_prev`` mirrors published totals so :func:`publish`
    is delta-safe under repeated ``result()`` calls.
    """
    return {
        "tier": tier,
        "block": {},
        "trigger": {},
        "production": {},
        "_prev": {"block": {}, "trigger": {}, "production": {}},
    }


def publish(profile: dict):
    """Fold a profile's growth into the registry as ``profile.*`` counters.

    No-op when telemetry is disabled (the dicts stay readable on the
    machine for in-process consumers like the benchmark).
    """
    if not _registry.enabled():
        return
    tier = profile["tier"]
    prev = profile["_prev"]
    for pc, count in profile["block"].items():
        delta = count - prev["block"].get(pc, 0)
        if delta:
            _registry.counter(f"profile.block.{tier}.0x{pc:x}").inc(delta)
            prev["block"][pc] = count
    for pc, count in profile["trigger"].items():
        delta = count - prev["trigger"].get(pc, 0)
        if delta:
            _registry.counter(f"profile.trigger.0x{pc:x}").inc(delta)
            prev["trigger"][pc] = count
    for seq_id, count in profile["production"].items():
        delta = count - prev["production"].get(seq_id, 0)
        if delta:
            _registry.counter(f"profile.production.seq{seq_id}").inc(delta)
            prev["production"][seq_id] = count


# ----------------------------------------------------------------------
# Collapsed-stack rendering (flamegraph.pl / speedscope input)
# ----------------------------------------------------------------------
def collapsed_from_metrics(metrics: Dict[str, dict]) -> List[str]:
    """Render ``profile.*`` counters from a metrics snapshot as collapsed
    stacks.

    One line per frame stack: ``sim;<tier>;sb_0x<pc> <retired>`` for
    block retirement, ``dise;trigger;0x<pc> <expansions>`` and
    ``dise;production;seq<N> <injected>`` for the DISE dimensions.  Lines
    are sorted by descending count then name, so the ranking is
    deterministic for seeded runs.
    """
    lines: List[tuple] = []
    for name, entry in metrics.items():
        value = entry.get("value")
        if not value:
            continue
        if name.startswith("profile.block."):
            tier, _, pc = name[len("profile.block."):].partition(".")
            lines.append((value, f"sim;{tier};sb_{pc}"))
        elif name.startswith("profile.trigger."):
            pc = name[len("profile.trigger."):]
            lines.append((value, f"dise;trigger;{pc}"))
        elif name.startswith("profile.production."):
            prod = name[len("profile.production."):]
            lines.append((value, f"dise;production;{prod}"))
    lines.sort(key=lambda pair: (-pair[0], pair[1]))
    return [f"{stack} {count}" for count, stack in lines]


def collapsed_from_machine(machine) -> List[str]:
    """Collapsed stacks straight from a machine's profile dicts.

    Works with telemetry off (no registry round-trip) — the in-process
    path the profiler benchmark uses.
    """
    profile = getattr(machine, "_profile", None)
    if not profile:
        return []
    metrics: Dict[str, dict] = {}
    tier = profile["tier"]
    for pc, count in profile["block"].items():
        metrics[f"profile.block.{tier}.0x{pc:x}"] = {"value": count}
    for pc, count in profile["trigger"].items():
        metrics[f"profile.trigger.0x{pc:x}"] = {"value": count}
    for seq_id, count in profile["production"].items():
        metrics[f"profile.production.seq{seq_id}"] = {"value": count}
    return collapsed_from_metrics(metrics)


def top_blocks(metrics: Dict[str, dict], n: int = 10) -> List[tuple]:
    """The ``n`` hottest blocks: ``(tier, pc-label, retired)``."""
    rows = []
    for name, entry in metrics.items():
        if name.startswith("profile.block.") and entry.get("value"):
            tier, _, pc = name[len("profile.block."):].partition(".")
            rows.append((entry["value"], tier, pc))
    rows.sort(key=lambda row: (-row[0], row[1], row[2]))
    return [(tier, pc, count) for count, tier, pc in rows[:n]]

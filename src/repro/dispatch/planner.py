"""Deterministic shard planning over scenario-spec lists.

The planner is the only piece of the dispatch layer both sides of a
host boundary must agree on: the parent that assigns shards and the
worker process that executes ``--shard K/N`` slice the *same* spec
list with the *same* rule, so a shard's content is a pure function of
``(specs, K, N)`` -- no negotiation, no state.

The rule is round-robin over the canonical spec order
(``specs[k::n]``): spec *i* lands on shard ``i mod N``.  Round-robin
keeps shard runtimes balanced when specs cycle through models and
topologies (which :func:`~repro.scenarios.regression.build_specs`
does), and since the merged report re-sorts verdicts by spec, the
assignment rule never shows up in the digest.

Shard *count* is a free choice precisely because of that invariance:
:func:`shards_for_hosts` picks the default for a host pool --
oversubscribed by :data:`OVERSUBSCRIPTION` so the work-stealing
dispatcher has a queue tail to rebalance when shard runtimes skew.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..scenarios.regression import ScenarioSpec


@dataclass(frozen=True)
class Shard:
    """One planned unit of dispatch: a deterministic slice of the specs."""

    index: int                        # zero-based shard number
    of: int                           # total shard count in the plan
    specs: Tuple[ScenarioSpec, ...]

    @property
    def label(self) -> str:
        """The 1-based ``shard K/N`` form the CLIs and logs use."""
        return f"shard {self.index + 1}/{self.of}"

    def __len__(self) -> int:
        return len(self.specs)


def plan_shards(specs: Sequence[ScenarioSpec], shards: int) -> List[Shard]:
    """Partition ``specs`` into ``shards`` deterministic round-robin slices.

    Every spec lands on exactly one shard; shards may be empty when
    there are more shards than specs (the dispatcher skips those).
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    specs = list(specs)
    return [
        Shard(index=k, of=shards, specs=tuple(specs[k::shards]))
        for k in range(shards)
    ]


#: Default shards-per-host factor.  1 would pin each host to exactly
#: one shard (no queue, nothing to steal); higher factors shrink the
#: stealable work unit but pay more per-shard overhead.  2 keeps the
#: slowest host's worst case at half its one-shard-per-host share.
OVERSUBSCRIPTION = 2


def shards_for_hosts(
    n_hosts: int, n_specs: int, factor: int = OVERSUBSCRIPTION
) -> int:
    """Default shard count for a host pool: ``factor`` shards per host,
    never more shards than specs, never fewer than one.

    Only a default -- any shard count merges to the same digest -- but
    the work-stealing schedule needs shards > hosts before it can
    rebalance at all.
    """
    if n_hosts < 1:
        raise ValueError(f"host count must be >= 1, got {n_hosts}")
    return max(1, min(n_hosts * factor, n_specs))


def specs_fingerprint(specs: Sequence[ScenarioSpec]) -> str:
    """Content fingerprint of a spec list (the spec-cache / job key).

    Computed over the canonical JSON wire form in list order, so both
    sides of a host boundary -- a client that uploads a regression's
    specs once and a worker that re-derives shard slices from its cache
    -- agree on the key without shipping the list again.  Unlike
    :func:`plan_digest` it is independent of shard count: the same
    regression keeps one fingerprint however it is partitioned.
    """
    payload = json.dumps(
        [spec.to_json() for spec in specs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def plan_digest(plan: Sequence[Shard]) -> str:
    """Fingerprint of a plan's shard assignment (diagnostics, not gating:
    the report digest is what equivalence is judged on)."""
    lines = [
        f"{shard.label}: " + ",".join(s.label for s in shard.specs)
        for shard in plan
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

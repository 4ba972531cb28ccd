"""R3 — epoch-cache soundness: state mutations must bump an epoch.

PR 1's cycle-plan cache is keyed on ``(layout.epoch, array.state_epoch)``
and is only sound if *every* mutation of placement or array state moves
one of those counters.  This rule makes the contract machine-checked:

* a function in ``layout/`` that mutates placement state
  (``_placement``, the per-object address arrays; ``_object_rank``;
  ``_objects``, ``_start_cluster``, ``_free_positions``,
  ``_next_position``; and the per-block tables ``_data_addr``,
  ``_parity_addr``, ``_disk_contents`` they replaced) must also call
  ``_invalidate_caches()`` (or bump ``_epoch``) in the same body;
* a function in ``disk/`` that assigns the fault-domain state fields
  (``state``, ``is_failed``, ``service_fraction``, ``_media_errors``)
  must also touch ``state_changes``;
* a function in ``sched/`` or ``faults/`` that moves a disk's fault
  domain through the array (``...array.fail/repair/degrade/restore/
  inject_media_error/begin_rebuild(...)``) must also call
  ``_invalidate_plan_cache()``;
* (delta path, PR 5) a function in ``layout/`` that touches the
  placement delta log (``_delta_log``, ``_delta_floor``) must bump the
  epoch in the same body — a logged delta without an epoch move would
  let schedulers bridge to a key that never changed;
* (declustered layout, PR 8) a function in ``layout/`` that mutates the
  block-design geometry memo (``_design_rows``, ``_design_scanned``)
  must bump the epoch or carry the ``allow(epoch-cache)`` marker — the
  memo is construction-time geometry (rows depend only on ``(D, C)``),
  but an unmarked mutation site could reorder or truncate the scan and
  silently remap every placed group;
* (delta path, PR 5) a function in ``sched/`` that *rewrites or evicts*
  from a plan cache (``_plan_cache``, the epoch engine's read tables
  ``_ff_tables`` — healthy and degraded alike —, the layout-epoch
  geometry ``_ff_geom``, and the rebuilder's vector-plan memo
  ``_ff_plan`` — whole-attribute assignment or a mutator-method call)
  must re-key it by assigning the matching key field
  (``_plan_cache_key``, ``_ff_tables_key``, ``_ff_geom_epoch``,
  ``_ff_plan_key``) or calling an invalidator in the same body.
  Subscript fills (``cache[k] = plan``) are exempt: lazily populating a
  cache under its current key is always sound.

``__init__`` is exempt (construction is not a live-state mutation);
helpers whose *callers* own the epoch bump carry an
``# repro: allow(epoch-cache)`` with a justifying comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.core import (
    FileContext,
    Finding,
    Rule,
    in_project_source,
    under,
)

#: Layout placement state: mutating any of these invalidates group plans.
#: ``_placement`` (per-object address arrays) and ``_object_rank`` are the
#: struct-of-arrays store; the per-block table names stay guarded so a
#: reintroduced per-block table is covered too.
PLACEMENT_FIELDS = frozenset({
    "_placement", "_object_rank", "_objects", "_start_cluster",
    "_free_positions", "_next_position",
    "_data_addr", "_parity_addr", "_disk_contents",
})

#: Disk fault-domain state: flipping these must move ``state_changes``.
#: ``service_fraction`` (fail-slow) and ``_media_errors`` (latent sector
#: errors) feed the slot table and read path, so stale plans would serve
#: from a disk the fault domain already marked unhealthy.
DISK_STATE_FIELDS = frozenset({
    "state", "is_failed", "service_fraction", "_media_errors",
})

#: The layout's placement delta log: appending or trimming without an
#: epoch bump would desynchronise the log from the key it describes.
DELTA_FIELDS = frozenset({"_delta_log", "_delta_floor"})

#: The declustered layout's block-design memo: rows are scanned strictly
#: in diagonal order and every placed group's addresses derive from row
#: indices, so any mutation outside the designated (marked) materialiser
#: could remap placed data without moving the epoch.
DESIGN_CACHE_FIELDS = frozenset({"_design_rows", "_design_scanned"})

#: Scheduler plan caches and the epoch-pair keys that guard them.
#: ``_ff_tables`` (the epoch engine's read tables, degraded columns
#: included) is keyed like the plan cache; ``_ff_geom`` (placement
#: geometry) is keyed on the layout epoch alone; ``_ff_plan`` is the
#: rebuilder's vector-plan memo.
SCHED_CACHE_FIELDS = frozenset({
    "_plan_cache", "_ff_tables", "_ff_geom", "_ff_plan",
})
SCHED_CACHE_KEY_FIELDS = frozenset({
    "_plan_cache_key", "_ff_tables_key", "_ff_geom_epoch", "_ff_plan_key",
})

#: Calls that count as bumping an epoch / invalidating plan caches.
BUMP_CALLS = frozenset({
    "_invalidate_caches", "_invalidate_plan_cache", "_record_delta",
})

#: Attributes whose assignment *is* the epoch bump.
EPOCH_FIELDS = frozenset({"_epoch", "state_changes"})

#: Container methods that mutate in place.
MUTATOR_METHODS = frozenset({
    "pop", "popleft", "append", "appendleft", "extend", "insert", "clear",
    "update", "setdefault", "add", "discard", "remove",
})


class EpochCacheRule(Rule):
    """R3: placement/array-state mutations must bump their epoch."""

    rule_id = "R3"
    name = "epoch-cache"
    description = ("mutations of placement or array state must bump the "
                   "corresponding epoch counter (plan-cache invalidation "
                   "contract)")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path) and under(
            path, "layout/", "sched/", "disk/", "faults/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue
            mutated = sorted(self._mutated_fields(node))
            flips = self._array_state_calls(node)
            rewritten = sorted(self._cache_rewrites(node))
            if rewritten and not self._rekeys_cache(node) \
                    and not self._bumps_epoch(node):
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' rewrites {', '.join(rewritten)} without "
                    "re-keying (_plan_cache_key/_ff_tables_key) — stale "
                    "plans would survive under a moved epoch pair")
            if not mutated and not flips:
                continue
            if self._bumps_epoch(node):
                continue
            if mutated:
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' mutates {', '.join(mutated)} without "
                    "bumping an epoch (_invalidate_caches/_epoch/"
                    "state_changes)")
            else:
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' calls array.{flips[0]}() without "
                    "calling _invalidate_plan_cache()")

    # -- detection helpers ---------------------------------------------------

    def _mutated_fields(self, func: ast.AST) -> set[str]:
        protected = (PLACEMENT_FIELDS | DISK_STATE_FIELDS | DELTA_FIELDS
                     | DESIGN_CACHE_FIELDS)
        fields: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    name = _assigned_field(target)
                    if name in protected:
                        fields.add(name)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = _assigned_field(target)
                    if name in protected:
                        fields.add(name)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                for name in _attribute_names(node.func.value):
                    if name in protected:
                        fields.add(name)
        return fields

    #: Fault-domain transitions reachable through an array reference.
    #: ``scrub`` is deliberately absent: the scrubber repairs media
    #: errors through :meth:`Disk.scrub`, which bumps internally.
    ARRAY_STATE_CALLS = ("fail", "repair", "degrade", "restore",
                         "inject_media_error", "begin_rebuild")

    def _array_state_calls(self, func: ast.AST) -> list[str]:
        calls: list[str] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.ARRAY_STATE_CALLS \
                    and "array" in _attribute_names(node.func.value):
                calls.append(node.func.attr)
        return calls

    def _cache_rewrites(self, func: ast.AST) -> set[str]:
        """Plan caches this function rewrites or evicts from.

        Whole-attribute assignment (``self._plan_cache = {}``) and
        mutator-method calls (``.clear()``, ``.pop()``) count; subscript
        fills (``self._plan_cache[name] = plan``) do not — populating a
        cache under its current key needs no re-key.
        """
        fields: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # Attribute (not Subscript) target: whole rewrite.
                    if isinstance(target, ast.Attribute) \
                            and target.attr in SCHED_CACHE_FIELDS:
                        fields.add(target.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                for name in _attribute_names(node.func.value):
                    if name in SCHED_CACHE_FIELDS:
                        fields.add(name)
        return fields

    def _rekeys_cache(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _assigned_field(target) in SCHED_CACHE_KEY_FIELDS:
                        return True
        return False

    def _bumps_epoch(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in BUMP_CALLS:
                return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if _assigned_field(target) in EPOCH_FIELDS:
                        return True
        return False


def _assigned_field(target: ast.expr) -> str:
    """The attribute name an assignment/delete ultimately touches.

    ``self._data_addr[k] = v`` and ``del self._objects[k]`` both resolve
    to the underlying attribute name.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


def _attribute_names(node: ast.expr) -> set[str]:
    """All attribute/name identifiers inside an expression subtree."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Name):
            names.add(child.id)
    return names

"""The rewrite decision cache and fast-path instrumentation.

Serving the same dashboard queries over and over re-runs the whole
navigator per query even though the decision never changes between DDL
events. :class:`RewriteCache` is a bounded LRU keyed by the structural
fingerprint of the bound query graph (:mod:`repro.qgm.fingerprint`) that
remembers, per query shape:

* **positive** outcomes — the ordered list of :class:`CachedStep`
  replay records (which summary matched which box, with the proven
  compensation chain as a template), so a hit re-applies the rewrite
  directly on the freshly bound graph via
  :func:`repro.rewrite.rewriter.apply_match` without any matching; and
* **negative** outcomes — "no rewrite applies", so the navigator is
  skipped entirely.

Entries are validated against an *epoch* counter that
:class:`repro.engine.database.Database` bumps on every
``create_summary_table`` / ``drop_summary_table`` /
``refresh_summary_tables`` / enable-disable / applied deferred refresh,
plus the exact set of *admissible* summary names — enabled **and** fresh
enough for the query's refresh-age tolerance (which also catches
``summary.enabled`` being toggled directly on the dataclass, and staged
deltas flipping a deferred summary from fresh to stale). The freshness
tolerance itself is part of the cache key, so a decision cached under
``SET REFRESH AGE ANY`` is never served to a ``REFRESH AGE 0`` query or
vice versa. Stale entries are dropped on lookup.

:class:`RewriteStats` collects the whole fast path's counters; they are
exposed via ``Database.rewrite_stats()`` and rendered by ``EXPLAIN`` and
the CLI's ``\\stats`` command.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.qgm.boxes import QGMBox
from repro.qgm.fingerprint import GraphFingerprint

#: fast-path counter names and their one-line help (exposition strings)
_STAT_FIELDS = {
    "queries": "rewrite attempts routed through the fast path",
    "candidates_considered": "summaries seen by the index",
    "candidates_pruned": "... of which pruned without navigation",
    "matches_attempted": "full match_graphs navigations run",
    "candidates_dominated": "skipped unnavigated: a smaller summary "
    "already matched the query root",
    "rewrites_applied": "accepted (summary, match) applications",
    "cache_hits": "positive decision-cache hits (replays)",
    "cache_negative_hits": "cached 'no rewrite applies' hits",
    "cache_misses": "fingerprint not cached (or stale)",
    "cache_stores": "decisions written to the cache",
    "cache_invalidations": "entries dropped as stale on lookup",
    "cache_replay_failures": "replays that fell back to cold path",
    "stale_rejections": "summaries too stale for the query's tolerance",
    "quarantined_rejections": "quarantined summaries kept out of routing",
    "rewrite_errors": "sandboxed rewrite failures (query fell back)",
}


class RewriteStats:
    """Counters for the matching fast path (cumulative per database).

    Historically a plain dataclass of ints; now a *view* over
    :class:`repro.obs.metrics.MetricsRegistry` counters (named
    ``rewrite_<field>``), so the same numbers appear in ``\\stats``,
    ``EXPLAIN``, ``\\metrics`` and the Prometheus dump without double
    bookkeeping. The attribute API is unchanged — ``stats.cache_hits``
    reads and ``stats.cache_hits += 1`` writes — and a bare
    ``RewriteStats()`` still works (it owns a private registry), so
    library callers and existing tests are untouched.
    """

    _FIELDS = tuple(_STAT_FIELDS)

    def __init__(self, registry: MetricsRegistry | None = None,
                 namespace: str = "rewrite", **initial: int):
        if registry is None:
            registry = MetricsRegistry()
        counters = {
            name: registry.counter(f"{namespace}_{name}", help)
            for name, help in _STAT_FIELDS.items()
        }
        self.__dict__["_registry"] = registry
        self.__dict__["_counters"] = counters
        for name, value in initial.items():
            if name not in counters:
                raise TypeError(f"unknown counter {name!r}")
            counters[name].set(value)

    @property
    def registry(self) -> MetricsRegistry:
        return self.__dict__["_registry"]

    def __getattr__(self, name: str) -> int:
        counter = self.__dict__["_counters"].get(name)
        if counter is None:
            raise AttributeError(name)
        return counter.value

    def __setattr__(self, name: str, value: int) -> None:
        counter = self.__dict__["_counters"].get(name)
        if counter is None:
            self.__dict__[name] = value
        else:
            counter.set(value)

    def as_dict(self) -> dict[str, int]:
        counters = self.__dict__["_counters"]
        return {name: counters[name].value for name in self._FIELDS}

    def reset(self) -> None:
        for counter in self.__dict__["_counters"].values():
            counter.set(0)

    def snapshot(self) -> "RewriteStats":
        """An independent frozen copy (its own registry) for delta()."""
        return RewriteStats(**self.as_dict())

    def delta(self, since: "RewriteStats") -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        before = since.as_dict()
        return {name: value - before[name] for name, value in self.as_dict().items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"RewriteStats({inner})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RewriteStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()


@dataclass(frozen=True)
class CachedStep:
    """One applied (summary, match) pair, in replayable form.

    ``subsumee_index`` locates the matched query box by its position in
    ``graph.boxes()`` *at the time the step ran* — fingerprint equality
    guarantees a freshly bound graph enumerates identically, and the
    rewrite itself is deterministic, so later steps' indices stay valid
    on the intermediate graphs too. ``chain`` is the proven compensation
    template; ``apply_match`` clones it onto the new summary scan, so the
    cached boxes are never mutated.
    """

    summary_name: str
    subsumee_index: int
    chain: tuple[QGMBox, ...]
    column_map: tuple[tuple[str, str], ...]
    pattern: str


@dataclass
class CacheEntry:
    """One cached decision plus its validity stamp.

    ``admissible`` is the exact set of summary names that were enabled
    *and* fresh enough for the query's tolerance when the decision was
    made; any change to that set (DDL, enable/disable, staged deltas,
    applied refreshes) invalidates the entry on lookup.
    """

    epoch: int
    admissible: frozenset[str]
    steps: tuple[CachedStep, ...] | None  # None ⇒ negative (no rewrite)


#: cache key: the graph fingerprint, the matcher options in effect, and
#: the freshness tolerance (RefreshAge.key) the decision was made under
CacheKey = tuple[GraphFingerprint, tuple, tuple]


def options_key(options: dict | None) -> tuple:
    """A hashable canonical form of the matcher options."""
    if not options:
        return ()
    return tuple(sorted(options.items()))


class RewriteCache:
    """A bounded LRU of rewrite decisions."""

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        key: CacheKey,
        epoch: int,
        admissible: frozenset[str],
        stats: RewriteStats | None = None,
    ) -> CacheEntry | None:
        """The valid entry for ``key``, refreshed as most recent; stale
        entries are evicted and counted as invalidations."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.epoch != epoch or entry.admissible != admissible:
            del self._entries[key]
            if stats is not None:
                stats.cache_invalidations += 1
            return None
        self._entries.move_to_end(key)
        return entry

    def store(self, key: CacheKey, entry: CacheEntry) -> None:
        if self.maxsize <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

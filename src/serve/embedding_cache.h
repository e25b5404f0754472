#ifndef CPDG_SERVE_EMBEDDING_CACHE_H_
#define CPDG_SERVE_EMBEDDING_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"

namespace cpdg::serve {

/// \brief LRU cache of computed node embeddings, keyed on
/// (node, query time) with the memory version stored alongside each row.
///
/// The memory version (dgnn::Memory::version()) makes staleness checks
/// O(1): any mutation of the frozen memory — in serving that is exactly an
/// Advance() replay — bumps the version, so Lookup (which requires an
/// exact version match) can never return a pre-advance row for a
/// post-advance query. Storing the version *inside* the entry rather than
/// in the key is what makes graceful degradation possible: under deadline
/// pressure the engine may deliberately ask for a row at *any* version via
/// LookupAnyVersion and flag the response stale, instead of missing its
/// deadline recomputing.
///
/// The engine either calls InvalidateAll() when a worker first sees a new
/// memory version, to reclaim dead entries eagerly, or — when configured
/// to keep a stale generation for degradation — leaves them to be
/// overwritten by fresh inserts at the same (node, time) or pushed out by
/// LRU pressure.
///
/// The cache is NOT thread-safe; in the serving engine each executor
/// worker's thread owns its own instance. Hit/miss/eviction/invalidation
/// totals are mirrored into the global MetricsRegistry under serve.cache.*
/// and kept as plain members for tests.
class EmbeddingCache {
 public:
  /// `capacity` is the maximum number of cached rows; 0 disables the cache
  /// entirely (Lookup always misses, Insert is a no-op).
  explicit EmbeddingCache(int64_t capacity);

  struct Key {
    graph::NodeId node = -1;
    double time = 0.0;
    uint64_t version = 0;

    bool operator==(const Key& o) const {
      return node == o.node && time == o.time && version == o.version;
    }
  };

  /// Copies the cached embedding row into `out` and refreshes recency;
  /// returns false (and leaves `out` untouched) when no row exists for
  /// (node, time) or the stored row was computed at a different memory
  /// version.
  bool Lookup(const Key& key, std::vector<float>* out);

  /// Degraded-mode lookup: returns the row cached for (node, time) at
  /// *whatever* memory version it was computed, writing that version to
  /// `*version_out`. The caller compares it against the current version to
  /// decide the `stale` flag. Counts as a hit/miss like Lookup.
  bool LookupAnyVersion(graph::NodeId node, double time,
                        std::vector<float>* out, uint64_t* version_out);

  /// Inserts (or refreshes) a row, evicting the least-recently-used entry
  /// when at capacity. A row for the same (node, time) at any version is
  /// overwritten — newer versions supersede stale generations in place.
  void Insert(const Key& key, std::vector<float> embedding);

  /// Drops every entry (counted under invalidations, not evictions).
  void InvalidateAll();

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t capacity() const { return capacity_; }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t invalidations() const { return invalidations_; }

 private:
  /// Internal map key: version intentionally excluded (see class comment).
  struct MapKey {
    graph::NodeId node = -1;
    double time = 0.0;

    bool operator==(const MapKey& o) const {
      return node == o.node && time == o.time;
    }
  };

  struct MapKeyHash {
    size_t operator()(const MapKey& k) const;
  };

  struct Entry {
    MapKey key;
    uint64_t version = 0;
    std::vector<float> row;
  };

  int64_t capacity_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<MapKey, std::list<Entry>::iterator, MapKeyHash> entries_;

  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
};

}  // namespace cpdg::serve

#endif  // CPDG_SERVE_EMBEDDING_CACHE_H_

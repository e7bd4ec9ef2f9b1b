#ifndef SVQA_SERVE_GRAPH_SNAPSHOT_STORE_H_
#define SVQA_SERVE_GRAPH_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>

#include "aggregator/merger.h"
#include "exec/executor.h"
#include "exec/key_centric_cache.h"
#include "graph/frozen_graph.h"
#include "graph/interning.h"
#include "text/embedding.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace svqa::serve {

class SnapshotDurability;

/// \brief Construction knobs for the per-snapshot execution machinery.
struct SnapshotStoreOptions {
  /// Build a key-centric cache per snapshot (caches are scoped to a
  /// snapshot — cached scopes/paths are only valid against the graph
  /// they were computed over).
  bool enable_cache = true;
  exec::KeyCentricCacheOptions cache;
  exec::ExecutorOptions executor;
  /// When set (not owned; must outlive the store), every Publish is
  /// WAL-logged and periodically persisted as a snapshot file, and
  /// SnapshotDurability::WarmStart can rebuild the store from disk.
  SnapshotDurability* durability = nullptr;
};

/// \brief One immutable, self-contained version of the serving state: a
/// merged graph, its compiled FrozenGraph snapshot, and the executor and
/// key-centric cache built over them.
///
/// The graph and executor wiring never change after construction; the
/// cache is mutable but internally locked, so any number of workers may
/// execute against one snapshot concurrently (the executor's documented
/// thread-safety contract). Snapshots are shared as
/// `shared_ptr<const GraphSnapshot>` — a reader holding one is
/// completely isolated from later publishes.
class GraphSnapshot {
 public:
  /// \param symbols global symbol table shared across snapshots (and
  /// with the query side), so one string pool backs every version of
  /// the graph; nullptr lets the snapshot own a private table.
  GraphSnapshot(uint64_t id, aggregator::MergedGraph merged,
                const text::EmbeddingModel* embeddings,
                const SnapshotStoreOptions& options,
                std::shared_ptr<graph::SymbolTable> symbols = nullptr);

  // The executor points into `merged_`/`cache_`, so the snapshot must
  // never relocate.
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// Monotonic version number; the first published snapshot is 1.
  uint64_t id() const { return id_; }
  const aggregator::MergedGraph& merged() const { return merged_; }
  const exec::QueryGraphExecutor& executor() const { return *executor_; }
  /// Snapshot-scoped cache; nullptr when caching is disabled.
  exec::KeyCentricCache* cache() const { return cache_.get(); }
  /// The compiled CSR snapshot the executor reads, compiled once per
  /// publish and pinned for this snapshot's lifetime.
  const graph::FrozenGraph* frozen() const { return &executor_->frozen(); }

 private:
  const uint64_t id_;
  const aggregator::MergedGraph merged_;
  const std::unique_ptr<exec::KeyCentricCache> cache_;
  const std::unique_ptr<exec::QueryGraphExecutor> executor_;
};

using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

/// \brief Copy-on-write snapshot store: queries read an immutable
/// current snapshot while ingest builds the next one off to the side and
/// publishes it atomically. No reader/writer stalls — a publish is one
/// shared_ptr swap under a short lock; in-flight queries keep their
/// snapshot alive until they finish, so results are deterministic per
/// snapshot id.
class GraphSnapshotStore {
 public:
  /// \param embeddings shared immutable embedding model (not owned; must
  /// outlive the store and every snapshot).
  explicit GraphSnapshotStore(const text::EmbeddingModel* embeddings,
                              SnapshotStoreOptions options = {});

  GraphSnapshotStore(const GraphSnapshotStore&) = delete;
  GraphSnapshotStore& operator=(const GraphSnapshotStore&) = delete;

  /// The current snapshot, or nullptr before the first Publish. Cheap
  /// (one shared_ptr copy under the lock); callers hold the returned
  /// pointer for the duration of their read.
  SnapshotPtr Current() const SVQA_EXCLUDES(mu_);

  /// Builds a snapshot around `merged` (frozen snapshot + executor +
  /// fresh cache) and atomically makes it current. Returns the new
  /// snapshot id. The expensive build happens outside the lock; only the
  /// swap is serialized.
  uint64_t Publish(aggregator::MergedGraph merged) SVQA_EXCLUDES(mu_);

  /// Id of the current snapshot (0 before the first publish).
  uint64_t latest_id() const SVQA_EXCLUDES(mu_);
  /// Total publishes performed.
  uint64_t publish_count() const SVQA_EXCLUDES(mu_);

  const SnapshotStoreOptions& options() const { return options_; }
  /// The durability hook wired at construction (nullptr = volatile).
  SnapshotDurability* durability() const { return options_.durability; }
  /// The store-wide symbol table every published snapshot interns into.
  /// Append-only and internally locked; label/category ids are therefore
  /// stable across snapshot versions.
  const std::shared_ptr<graph::SymbolTable>& symbols() const {
    return symbols_;
  }

 private:
  const text::EmbeddingModel* embeddings_;
  const SnapshotStoreOptions options_;
  /// One string pool for the lifetime of the store (see symbols()).
  const std::shared_ptr<graph::SymbolTable> symbols_;
  mutable Mutex mu_;
  SnapshotPtr current_ SVQA_GUARDED_BY(mu_);
  uint64_t next_id_ SVQA_GUARDED_BY(mu_) = 1;
  uint64_t publish_count_ SVQA_GUARDED_BY(mu_) = 0;
};

}  // namespace svqa::serve

#endif  // SVQA_SERVE_GRAPH_SNAPSHOT_STORE_H_

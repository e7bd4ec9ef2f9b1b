#include "exec/key_centric_cache.h"

#include <utility>

#include "obs/observability.h"

namespace svqa::exec {

namespace {

// Hit/miss accounting: one increment on the pre-registered handle, no
// lock, no-op without a metrics scope.
void CountLookup(const ExecContext& ctx, bool scope_cache, bool hit) {
  const obs::StackMetrics* m = obs::MetricsOf(ctx.obs);
  if (m == nullptr) return;
  if (scope_cache) {
    (hit ? m->cache_scope_hits : m->cache_scope_misses)->Incr();
  } else {
    (hit ? m->cache_path_hits : m->cache_path_misses)->Incr();
  }
}

}  // namespace

const char* CachePolicyName(CachePolicy policy) {
  return policy == CachePolicy::kLfu ? "LFU" : "LRU";
}

KeyCentricCache::KeyCentricCache(KeyCentricCacheOptions options)
    : options_(options),
      scope_(options.capacity),
      path_(options.capacity) {}

template <typename V>
std::optional<V> KeyCentricCache::Get(PolicyPair<V>& store, bool enabled,
                                      bool scope_store,
                                      const std::string& key,
                                      const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {
    // Degrade to a miss: the probe still cost a round-trip, but the
    // caller recomputes and the query survives.
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    if (ctx.clock != nullptr) ctx.clock->Charge(CostKind::kCacheProbe);
    CountLookup(ctx, scope_store, /*hit=*/false);
    return std::nullopt;
  }
  std::optional<V> hit;
  if (enabled && options_.capacity != 0) {
    if (ctx.clock != nullptr) ctx.clock->Charge(CostKind::kCacheProbe);
    // Interning on Get too: a miss must reach the policy store so its
    // hit/miss accounting matches a string-keyed store exactly.
    const graph::SymbolId id = keys_.Intern(key);
    hit = options_.policy == CachePolicy::kLfu ? store.lfu.Get(id)
                                               : store.lru.Get(id);
  }
  CountLookup(ctx, scope_store, hit.has_value());
  return hit;
}

template <typename V>
void KeyCentricCache::Put(PolicyPair<V>& store, bool enabled,
                          const std::string& key, V value,
                          const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {  // write dropped
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    return;
  }
  if (!enabled || options_.capacity == 0) return;
  const graph::SymbolId id = keys_.Intern(key);
  if (options_.policy == CachePolicy::kLfu) {
    store.lfu.Put(id, std::move(value));
  } else {
    store.lru.Put(id, std::move(value));
  }
}

std::optional<ScopeValue> KeyCentricCache::GetScope(const std::string& key,
                                                    const ExecContext& ctx) {
  return Get(scope_, options_.enable_scope, /*scope_store=*/true, key, ctx);
}

void KeyCentricCache::PutScope(const std::string& key, ScopeValue value,
                               const ExecContext& ctx) {
  Put(scope_, options_.enable_scope, key, std::move(value), ctx);
}

std::optional<PathValue> KeyCentricCache::GetPath(const std::string& key,
                                                  const ExecContext& ctx) {
  return Get(path_, options_.enable_path, /*scope_store=*/false, key, ctx);
}

void KeyCentricCache::PutPath(const std::string& key, PathValue value,
                              const ExecContext& ctx) {
  Put(path_, options_.enable_path, key, std::move(value), ctx);
}

cache::CacheStats KeyCentricCache::ScopeStats() const {
  return options_.policy == CachePolicy::kLfu ? scope_.lfu.stats()
                                              : scope_.lru.stats();
}

cache::CacheStats KeyCentricCache::PathStats() const {
  return options_.policy == CachePolicy::kLfu ? path_.lfu.stats()
                                              : path_.lru.stats();
}

cache::CacheStats KeyCentricCache::TotalStats() const {
  cache::CacheStats total = ScopeStats();
  total.Merge(PathStats());
  return total;
}

void KeyCentricCache::Clear() {
  scope_.lfu.Clear();
  scope_.lru.Clear();
  path_.lfu.Clear();
  path_.lru.Clear();
}

}  // namespace svqa::exec

// ShardedQueryCache: a thread-safe, hash-partitioned front-end over the
// (thread-compatible) QueryCache policies.
//
// Entries are partitioned by query signature across N independent
// policy instances, each guarded by its own mutex, so lookups on
// different shards never contend. Each shard runs the full replacement
// and admission machinery over its slice of the capacity; with one
// shard the behaviour (every hit, eviction and statistic) is identical
// to the wrapped unsharded policy, which the differential tests assert.
//
// Cache coherence works across shards: Erase() routes by the query
// key's signature, so the Watchman facade can invalidate any cached set
// no matter which shard holds it, and EraseTagged() walks every shard
// for the sets that carry a relation's tag (see relation_tags.h).
//
// Every operation routes on the request's precomputed signature -- the
// QueryKey is hashed once when it is built, and shard choice reads the
// signature's high bits directly (no second hash).

#ifndef WATCHMAN_CACHE_SHARDED_QUERY_CACHE_H_
#define WATCHMAN_CACHE_SHARDED_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/query_cache.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"

namespace watchman {

/// Thread-safe sharded cache of retrieved sets.
class ShardedQueryCache {
 public:
  /// Builds one policy instance with the given byte capacity; invoked
  /// once per shard at construction.
  using ShardFactory =
      std::function<std::unique_ptr<QueryCache>(uint64_t capacity_bytes)>;

  struct Options {
    /// Total capacity in bytes, split across the shards.
    uint64_t capacity_bytes = 0;
    /// Requested shard count; normalized to a power of two in [1, 1024]
    /// and reduced if needed so every shard owns at least one byte.
    size_t num_shards = 1;
  };

  ShardedQueryCache(const Options& options, const ShardFactory& factory);

  ShardedQueryCache(const ShardedQueryCache&) = delete;
  ShardedQueryCache& operator=(const ShardedQueryCache&) = delete;

  /// Processes one reference to `d` (see QueryCache::Reference) under
  /// the owning shard's lock.
  bool Reference(const QueryDescriptor& d, Timestamp now);

  /// Where a set offered for publishing stands after Offer().
  enum class OfferResult { kNotCached, kAdmitted, kAlreadyCached };

  /// One hold of the owning shard's lock for a set its caller is about
  /// to publish. With `record_reference`, processes the reference like
  /// Reference(), and an entry it admits carries `tags`; without, only
  /// looks. A set that was already cached gets `tags` merged into its
  /// own, so they cover whatever payload the caller publishes into it.
  OfferResult Offer(const QueryDescriptor& d, Timestamp now,
                    const RelationTags& tags, bool record_reference);

  /// Hit-only probe (see QueryCache::TryReferenceCached): records the
  /// reference and returns true when cached, touches nothing otherwise.
  bool TryReferenceCached(const QueryDescriptor& d, Timestamp now);

  /// True if the retrieved set of `key` is currently cached.
  bool Contains(const QueryKey& key) const;
  /// Convenience overload that computes the signature.
  bool Contains(std::string_view query_id) const {
    return Contains(QueryKey(query_id));
  }

  /// Invalidates the retrieved set of `key` on whichever shard holds
  /// it. Returns true if an entry was removed.
  bool Erase(const QueryKey& key);
  /// Convenience overload that computes the signature.
  bool Erase(std::string_view query_id) { return Erase(QueryKey(query_id)); }

  /// Removes every cached set whose tags match `tag` (see
  /// QueryCache::EraseTagged), one shard at a time under its lock.
  /// Returns how many.
  size_t EraseTagged(uint64_t tag);

  /// Registers the eviction listener on every shard. The callback runs
  /// under the evicting shard's lock; it must not call back into the
  /// cache.
  void SetEvictionListener(std::function<void(const QueryDescriptor&)>);

  /// Statistics aggregated over all shards (a consistent per-shard
  /// snapshot; shards are read under their locks one at a time).
  CacheStats stats() const;

  /// One shard's statistics (a copy taken under that shard's lock) --
  /// the per-shard metric families scrape through this.
  CacheStats shard_stats(size_t shard) const;

  /// Per-shard lock contention counters: every shard-lock acquisition
  /// first tries the uncontended fast path (try_lock); `contended`
  /// counts the acquisitions that had to block instead. The ratio shows
  /// whether the shard fan-out matches the thread count (ROADMAP:
  /// sharded-concurrent scaling on real cores).
  struct LockStats {
    uint64_t acquisitions = 0;
    uint64_t contended = 0;

    uint64_t uncontended() const { return acquisitions - contended; }
    double contention_ratio() const {
      return acquisitions == 0
                 ? 0.0
                 : static_cast<double>(contended) /
                       static_cast<double>(acquisitions);
    }
  };

  /// Lock counters of one shard (relaxed reads: a racy snapshot).
  LockStats lock_stats(size_t shard) const;
  /// Lock counters summed over all shards.
  LockStats total_lock_stats() const;

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const;
  size_t entry_count() const;
  size_t retained_count() const;
  size_t num_shards() const { return shards_.size(); }

  /// Policy name of the wrapped caches, e.g. "lnc-ra(k=4)x8".
  std::string name() const;

  /// Direct access to one shard's policy (tests and benches; the caller
  /// must synchronize externally or reach quiescence first -- hence the
  /// analysis opt-out: the guarantee is the caller's, not a lock's).
  QueryCache& shard(size_t i) NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[i]->cache;
  }
  const QueryCache& shard(size_t i) const NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[i]->cache;
  }

  /// Verifies every shard's invariants.
  Status CheckInvariants() const;

  /// Shrink-to-fit pass over every shard (see QueryCache::Compact);
  /// takes each shard's lock in turn, so it is safe to call while
  /// serving (intended for quiescent moments in long-lived daemons).
  void Compact();

 private:
  struct Shard {
    mutable Mutex mu;
    std::unique_ptr<QueryCache> cache GUARDED_BY(mu);
    /// Lock counters (relaxed: they order nothing, they only count).
    mutable std::atomic<uint64_t> lock_acquisitions{0};
    mutable std::atomic<uint64_t> lock_contended{0};
  };

  /// lock_guard that takes the shard lock via the try_lock fast path
  /// and maintains the shard's contention counters.
  class SCOPED_CAPABILITY CountedLock {
   public:
    explicit CountedLock(const Shard& shard) ACQUIRE(shard.mu)
        : mu_(shard.mu) {
      // Count the acquisition before the contended counter so a
      // concurrent stats reader can never observe contended >
      // acquisitions (uncontended() would underflow).
      shard.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (!mu_.TryLock()) {
        shard.lock_contended.fetch_add(1, std::memory_order_relaxed);
        mu_.Lock();
      }
    }
    ~CountedLock() RELEASE() { mu_.Unlock(); }
    CountedLock(const CountedLock&) = delete;
    CountedLock& operator=(const CountedLock&) = delete;

   private:
    Mutex& mu_;
  };

  /// Probe for the negative-compile harness (tests/negative_compile):
  /// reaches a GUARDED_BY member without its lock to prove the
  /// -Werror=thread-safety gate rejects exactly that.
  friend class ShardedQueryCacheUnguardedProbe;

  size_t ShardIndexOf(Signature signature) const;

  uint64_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace watchman

#endif  // WATCHMAN_CACHE_SHARDED_QUERY_CACHE_H_

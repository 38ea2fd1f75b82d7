// QueryCache: the common machinery of all retrieved-set cache policies.
//
// A cache maps query keys to cached retrieved sets under a byte-capacity
// budget. Lookup uses a 64-bit signature prefilter followed by an exact
// query-ID match (paper section 3). Subclasses implement the replacement
// (and optionally admission) decisions; the base class owns the index,
// byte accounting and statistics so that every policy measures cost
// savings ratio and hit ratio identically.
//
// Hot-path layout: the base index is a flat open-addressing table keyed
// by the precomputed signature (open_table.h) and entries live in a
// slab/freelist arena (entry_arena.h), so a hit costs one masked probe
// plus an inline-ID compare -- no hashing, no bucket chains, no
// allocation -- and miss+evict churn recycles entry slots in place.
//
// Victim selection is driven by a policy-maintained eviction index (see
// victim_index.h): the base notifies the policy when entries enter and
// leave the cache (OnInsert / OnEvict) and the policy keeps its entries
// in eviction order incrementally, so a miss walks the index instead of
// rebuilding a heap over all entries.

#ifndef WATCHMAN_CACHE_QUERY_CACHE_H_
#define WATCHMAN_CACHE_QUERY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/entry_arena.h"
#include "cache/open_table.h"
#include "cache/query_descriptor.h"
#include "cache/ref_history.h"
#include "cache/relation_tags.h"
#include "cache/victim_index.h"
#include "util/clock.h"
#include "util/status.h"

namespace watchman {

/// Counters every cache maintains; CSR = cost_saved / cost_total and
/// HR = hits / lookups reproduce the paper's metrics (eqs. 1 and 17).
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Misses the admission policy declined to cache.
  uint64_t admission_rejections = 0;
  /// Misses whose retrieved set exceeds the entire cache capacity.
  uint64_t too_large_rejections = 0;
  uint64_t cost_total = 0;
  uint64_t cost_saved = 0;
  uint64_t bytes_inserted = 0;
  uint64_t bytes_evicted = 0;

  double hit_ratio() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  double cost_savings_ratio() const {
    return cost_total == 0 ? 0.0
                           : static_cast<double>(cost_saved) /
                                 static_cast<double>(cost_total);
  }

  /// Accumulates `other` into this (per-shard stats aggregation).
  void Accumulate(const CacheStats& other);
};

/// Abstract retrieved-set cache. Thread-compatible (external
/// synchronization required), like the paper's library design; see
/// ShardedQueryCache for the synchronized, partitioned front-end.
class QueryCache {
 public:
  /// Common configuration of all policies.
  struct Options {
    /// Cache capacity in bytes. Must be > 0.
    uint64_t capacity_bytes = 0;
    /// Reference-history depth K (paper's K; policies that only use the
    /// last reference run with K = 1).
    size_t k = 1;
  };

  explicit QueryCache(const Options& options);
  virtual ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Processes one reference to query `d` at time `now`. Returns true if
  /// the retrieved set was served from cache. On a miss the policy
  /// decides admission and eviction. Timestamps are expected to be
  /// non-decreasing across calls; a slightly older `now` (concurrent
  /// callers racing into different shards) is clamped forward rather
  /// than rejected. An entry this reference admits carries `tags` (the
  /// relations its set reported; none when null).
  bool Reference(const QueryDescriptor& d, Timestamp now,
                 const RelationTags* tags = nullptr);

  /// Hit-only probe: when `d` is cached, records the reference exactly
  /// like Reference() and returns true; otherwise leaves the cache and
  /// its statistics untouched (no lookup is counted) and returns false.
  /// Lets a caller that must materialize the miss outside the cache lock
  /// (Watchman::Execute) split the lookup from the later offer.
  bool TryReferenceCached(const QueryDescriptor& d, Timestamp now);

  /// True if the retrieved set of `key` is currently cached.
  bool Contains(const QueryKey& key) const;
  /// Convenience overload that computes the signature.
  bool Contains(std::string_view query_id) const {
    return Contains(QueryKey(query_id));
  }

  /// Removes the retrieved set of `key` from the cache (cache
  /// coherence: the warehouse manager invalidates sets affected by an
  /// update, paper section 3). Fires the eviction listener and the
  /// OnEvict hook like a replacement eviction. Returns true if an entry
  /// was removed.
  bool Erase(const QueryKey& key);
  /// Convenience overload that computes the signature.
  bool Erase(std::string_view query_id) { return Erase(QueryKey(query_id)); }

  /// When `key` is cached, adds `tags` to its entry's tags and returns
  /// true (a set republished into an entry it did not create).
  bool MergeTags(const QueryKey& key, const RelationTags& tags);

  /// Removes every cached set whose tags match `tag` (see
  /// RelationTags::Matches), like Erase() on each; returns how many.
  /// Walks the index into reused scratch, so a walk that removes
  /// nothing allocates nothing.
  size_t EraseTagged(uint64_t tag);

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  uint64_t available_bytes() const {
    return used_ >= capacity_ ? 0 : capacity_ - used_;
  }
  size_t entry_count() const { return entry_count_; }
  size_t k() const { return k_; }
  const CacheStats& stats() const { return stats_; }

  /// Policy name for reports ("lru", "lnc-ra", ...).
  virtual std::string name() const = 0;

  /// Entries in the policy's retained-information store (0 for policies
  /// without one).
  virtual size_t retained_count() const { return 0; }

  /// Registers a callback invoked whenever an entry is evicted (used by
  /// the buffer-hint machinery to track which retrieved sets are
  /// resident). Admission rejections do not fire it.
  void SetEvictionListener(
      std::function<void(const QueryDescriptor&)> listener) {
    eviction_listener_ = std::move(listener);
  }

  /// Verifies internal accounting (byte totals, entry counts, capacity
  /// bound, index probe invariants) and cross-checks the policy's victim
  /// index against it. Used by tests and debug assertions.
  Status CheckInvariants() const;

  /// Shrink-to-fit pass for metadata that grew to a past peak: the
  /// signature index rehashes down to the current entry count, the entry
  /// arena returns fully-free slabs, and the policy compacts its own
  /// stores (OnCompact). Intended for quiescent moments in long-lived
  /// daemons whose working set shrank; safe (but pointless) anytime.
  void Compact();

  /// Slot capacity of the signature index / slab count of the entry
  /// arena (observability for the Compact() tests and stats).
  size_t index_capacity() const { return index_.capacity(); }
  size_t arena_slab_count() const { return arena_.slab_count(); }

 protected:
  /// A cached retrieved set and its bookkeeping.
  struct Entry {
    QueryDescriptor desc;
    ReferenceHistory history;
    /// References received while cached (used by LFU).
    uint64_t cached_refs = 0;
    /// GreedyDual-Size inflated value (used by GdsCache only).
    double gds_h = 0.0;
    /// Victim-index hooks: intrusive-list linkage and the ordered-index
    /// key handle (see victim_index.h). Maintained by the policy.
    Entry* vprev = nullptr;
    Entry* vnext = nullptr;
    VictimKey vkey;
    /// Time the stored vkey was last evaluated (LazyOrderedVictimIndex
    /// staleness stamp; maintained by lazily-keyed policies only).
    Timestamp vkey_eval = 0;
    /// The relations the cached set reported (cache coherence). Last,
    /// so a hit touches no cache line of it.
    RelationTags tags;
  };

  using VictimList = IntrusiveVictimList<Entry>;
  using VictimIndex = OrderedVictimIndex<Entry>;
  using LazyVictimIndex = LazyOrderedVictimIndex<Entry>;

  /// Hook invoked after the base records a cache hit (history already
  /// updated); the policy re-keys the entry in its victim index.
  virtual void OnHit(Entry* entry, Timestamp now) = 0;

  /// Hook invoked on a miss; the policy performs admission, eviction and
  /// insertion via the protected helpers.
  virtual void OnMiss(const QueryDescriptor& d, Timestamp now) = 0;

  /// Hook invoked by InsertEntry after the base bookkeeping; the policy
  /// adds the entry to its victim index.
  virtual void OnInsert(Entry* entry, Timestamp now) = 0;

  /// Hook invoked just before an entry leaves the cache; the policy
  /// removes it from its victim index (and may retain reference
  /// information).
  virtual void OnEvict(Entry* entry) = 0;

  /// Cross-checks the policy's victim index against the base accounting:
  /// every cached entry indexed exactly once, index byte total equal to
  /// used_bytes(). Called by CheckInvariants().
  virtual Status CheckPolicyIndex() const = 0;

  /// Hook invoked by Compact() after the base shrinks its index and
  /// arena; policies with auxiliary stores (retained reference
  /// information) shrink them here.
  virtual void OnCompact() {}

  /// Latest reference time the cache has seen (policies use it to bound
  /// key staleness in invariant checks).
  Timestamp last_reference_time() const { return last_reference_time_; }

  /// Inserts a new entry; there must be room (checked). If `history` is
  /// non-null its contents seed the entry's reference history (retained
  /// reference information); otherwise the entry starts with the single
  /// reference at `now`. The entry carries the tags of the Reference()
  /// in progress. Invokes OnInsert.
  Entry* InsertEntry(const QueryDescriptor& d, Timestamp now,
                     const ReferenceHistory* history = nullptr);

  /// Evicts `entry` (calls OnEvict first).
  void EvictEntry(Entry* entry);

  /// Returns pointers to all entries; invalidated by insert/evict.
  std::vector<Entry*> AllEntries();

  /// Walks `list` front-to-back collecting victims until their sizes sum
  /// to at least `bytes_needed`. Does not evict.
  static std::vector<Entry*> CollectVictims(const VictimList& list,
                                            uint64_t bytes_needed);

  /// Walks `index` in ascending key order collecting victims until their
  /// sizes sum to at least `bytes_needed`. Does not evict.
  static std::vector<Entry*> CollectVictims(const VictimIndex& index,
                                            uint64_t bytes_needed);

  /// CollectVictims into a caller-owned scratch vector (cleared first),
  /// so steady-state miss paths reuse capacity instead of allocating a
  /// fresh vector per miss. Works over any ordered index whose items
  /// expose `->node` (VictimIndex and LazyVictimIndex).
  template <typename Index>
  static void CollectVictimsInto(const Index& index, uint64_t bytes_needed,
                                 std::vector<Entry*>* out) {
    out->clear();
    uint64_t freed = 0;
    for (auto it = index.begin(); it != index.end() && freed < bytes_needed;
         ++it) {
      out->push_back(it->node);
      freed += it->node->desc.result_bytes;
    }
  }

  /// Revalidated victim walk over a lazily-keyed index: visits entries
  /// in ascending stored-key order, calling `validate(entry)` on each
  /// before accepting it. `validate` may Refresh() the entry's key in
  /// `index` (the walk advances its iterator before invoking it), so
  /// stale keys at the eviction end are repaired as a side effect.
  ///
  /// Because lazily-stored keys only decay, a refreshed key can only
  /// move *earlier*: the refreshed entry still sorts at or before every
  /// remaining stored key, so accepting entries in visit order yields
  /// exactly the ascending prefix of the post-walk key order -- no
  /// restart is needed. Collects into the caller's scratch vector until
  /// the victims' sizes sum to at least `bytes_needed`. Does not evict.
  template <typename Validate>
  static void CollectVictimsValidatedInto(const LazyVictimIndex& index,
                                          uint64_t bytes_needed,
                                          Validate&& validate,
                                          std::vector<Entry*>* out) {
    out->clear();
    uint64_t freed = 0;
    auto it = index.begin();
    while (it != index.end() && freed < bytes_needed) {
      Entry* e = it->node;
      // Advance past `e` before validate() may re-key (and therefore
      // re-seat) it; iterators to other elements stay valid.
      ++it;
      validate(e);
      out->push_back(e);
      freed += e->desc.result_bytes;
    }
  }

  /// Shared tail of CheckPolicyIndex(): compares a policy index's walked
  /// totals against the base accounting (every cached entry indexed
  /// exactly once, bytes equal to used_bytes()).
  Status CheckIndexAccounting(const char* index_name, size_t indexed_entries,
                              uint64_t indexed_bytes) const;

  /// Records an admission rejection in the stats.
  void CountAdmissionRejection() { ++stats_.admission_rejections; }
  void CountTooLargeRejection() { ++stats_.too_large_rejections; }

 private:
  bool ReferenceImpl(const QueryDescriptor& d, Timestamp now,
                     bool probe_only, const RelationTags* tags);
  Entry* FindEntry(const QueryKey& key) const;

  uint64_t capacity_;
  size_t k_;
  uint64_t used_ = 0;
  size_t entry_count_ = 0;
  CacheStats stats_;
  Timestamp last_reference_time_ = 0;
  /// Signature-keyed open-addressing index; exact ID match resolves
  /// collisions, mirroring the paper's lookup design.
  SignatureTable<Entry> index_;
  /// Slab/freelist storage of the entries the index points into.
  SlabArena<Entry> arena_;
  std::function<void(const QueryDescriptor&)> eviction_listener_;
  /// Tags of the Reference() in progress, for InsertEntry (the policies
  /// insert from OnMiss, whose signature carries no tags).
  const RelationTags* offer_tags_ = nullptr;
  /// EraseTagged's matches (reused; cleared after each walk).
  std::vector<Entry*> tagged_scratch_;
};

}  // namespace watchman

#endif  // WATCHMAN_CACHE_QUERY_CACHE_H_

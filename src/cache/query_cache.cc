#include "cache/query_cache.h"

#include <algorithm>
#include <cassert>

namespace watchman {

void CacheStats::Accumulate(const CacheStats& other) {
  lookups += other.lookups;
  hits += other.hits;
  insertions += other.insertions;
  evictions += other.evictions;
  admission_rejections += other.admission_rejections;
  too_large_rejections += other.too_large_rejections;
  cost_total += other.cost_total;
  cost_saved += other.cost_saved;
  bytes_inserted += other.bytes_inserted;
  bytes_evicted += other.bytes_evicted;
}

QueryCache::QueryCache(const Options& options)
    : capacity_(options.capacity_bytes), k_(options.k == 0 ? 1 : options.k) {
  assert(capacity_ > 0);
}

QueryCache::~QueryCache() {
  // Entries live in the arena; release them before it is destroyed.
  std::vector<Entry*> entries;
  entries.reserve(entry_count_);
  index_.ForEach([&entries](uint64_t, Entry* e) { entries.push_back(e); });
  for (Entry* e : entries) arena_.Release(e);
}

bool QueryCache::Reference(const QueryDescriptor& d, Timestamp now,
                           const RelationTags* tags) {
  return ReferenceImpl(d, now, /*probe_only=*/false, tags);
}

bool QueryCache::TryReferenceCached(const QueryDescriptor& d, Timestamp now) {
  return ReferenceImpl(d, now, /*probe_only=*/true, /*tags=*/nullptr);
}

bool QueryCache::ReferenceImpl(const QueryDescriptor& d, Timestamp now,
                               bool probe_only, const RelationTags* tags) {
  Entry* entry = FindEntry(d.key);
  if (entry == nullptr && probe_only) return false;
  // Tolerate slightly out-of-order timestamps (concurrent callers race
  // into a shard with independently drawn clock ticks) by clamping
  // forward; per-entry histories stay monotone.
  now = std::max(now, last_reference_time_);
  last_reference_time_ = now;
  ++stats_.lookups;
  if (entry != nullptr) {
    // A hit saves the stored execution cost of the query (the
    // descriptor's cost may be unknown to callers on the hit path).
    ++stats_.hits;
    stats_.cost_total += entry->desc.cost;
    stats_.cost_saved += entry->desc.cost;
    entry->history.Record(now);
    ++entry->cached_refs;
    OnHit(entry, now);
  } else {
    stats_.cost_total += d.cost;
    if (d.result_bytes == 0) {
      // Zero-size retrieved sets are uncacheable under every policy
      // (there is nothing to store; an entry without a payload would be
      // a phantom that hits forever).
      CountTooLargeRejection();
    } else {
      offer_tags_ = tags;
      OnMiss(d, now);
      offer_tags_ = nullptr;
    }
  }
  assert(CheckInvariants().ok());
  return entry != nullptr;
}

bool QueryCache::Contains(const QueryKey& key) const {
  return FindEntry(key) != nullptr;
}

bool QueryCache::Erase(const QueryKey& key) {
  Entry* entry = FindEntry(key);
  if (entry == nullptr) return false;
  EvictEntry(entry);
  return true;
}

bool QueryCache::MergeTags(const QueryKey& key, const RelationTags& tags) {
  Entry* entry = FindEntry(key);
  if (entry == nullptr) return false;
  entry->tags.Merge(tags);
  return true;
}

size_t QueryCache::EraseTagged(uint64_t tag) {
  // Collect first: evicting reshuffles the index being walked.
  index_.ForEach([this, tag](uint64_t, Entry* e) {
    if (e->tags.Matches(tag)) tagged_scratch_.push_back(e);
  });
  for (Entry* e : tagged_scratch_) EvictEntry(e);
  const size_t erased = tagged_scratch_.size();
  tagged_scratch_.clear();
  return erased;
}

QueryCache::Entry* QueryCache::FindEntry(const QueryKey& key) const {
  const std::string_view id = key.id();
  return index_.Find(key.signature().value, [id](const Entry* e) {
    return e->desc.key.MatchesId(id);
  });
}

QueryCache::Entry* QueryCache::InsertEntry(const QueryDescriptor& d,
                                           Timestamp now,
                                           const ReferenceHistory* history) {
  assert(d.result_bytes <= available_bytes());
  assert(FindEntry(d.key) == nullptr);
  Entry* entry = arena_.New();
  entry->desc = d;
  if (offer_tags_ != nullptr) entry->tags = *offer_tags_;
  if (history != nullptr) {
    entry->history = *history;
  } else {
    entry->history = ReferenceHistory(k_);
    entry->history.Record(now);
  }
  index_.Insert(d.signature().value, entry);
  used_ += d.result_bytes;
  ++entry_count_;
  ++stats_.insertions;
  stats_.bytes_inserted += d.result_bytes;
  OnInsert(entry, now);
  return entry;
}

void QueryCache::EvictEntry(Entry* entry) {
  assert(entry != nullptr);
  OnEvict(entry);
  if (eviction_listener_) eviction_listener_(entry->desc);
  const bool erased = index_.Erase(entry->desc.signature().value, entry);
  assert(erased && "entry not found in the signature index");
  (void)erased;
  used_ -= entry->desc.result_bytes;
  --entry_count_;
  ++stats_.evictions;
  stats_.bytes_evicted += entry->desc.result_bytes;
  arena_.Release(entry);
}

std::vector<QueryCache::Entry*> QueryCache::AllEntries() {
  std::vector<Entry*> out;
  out.reserve(entry_count_);
  index_.ForEach([&out](uint64_t, Entry* e) { out.push_back(e); });
  return out;
}

std::vector<QueryCache::Entry*> QueryCache::CollectVictims(
    const VictimList& list, uint64_t bytes_needed) {
  std::vector<Entry*> victims;
  uint64_t freed = 0;
  for (Entry* e = list.front(); e != nullptr && freed < bytes_needed;
       e = VictimList::Next(e)) {
    victims.push_back(e);
    freed += e->desc.result_bytes;
  }
  return victims;
}

std::vector<QueryCache::Entry*> QueryCache::CollectVictims(
    const VictimIndex& index, uint64_t bytes_needed) {
  std::vector<Entry*> victims;
  CollectVictimsInto(index, bytes_needed, &victims);
  return victims;
}

void QueryCache::Compact() {
  index_.Compact();
  arena_.Compact();
  tagged_scratch_.shrink_to_fit();
  OnCompact();
  assert(CheckInvariants().ok());
}

Status QueryCache::CheckIndexAccounting(const char* index_name,
                                        size_t indexed_entries,
                                        uint64_t indexed_bytes) const {
  if (indexed_entries != entry_count_) {
    return Status::Internal(std::string(index_name) +
                            " entry count mismatch");
  }
  if (indexed_bytes != used_) {
    return Status::Internal(std::string(index_name) +
                            " byte total mismatch");
  }
  return Status::OK();
}

Status QueryCache::CheckInvariants() const {
  uint64_t bytes = 0;
  size_t count = 0;
  bool sig_mismatch = false;
  index_.ForEach([&](uint64_t sig, Entry* entry) {
    if (entry->desc.signature().value != sig) sig_mismatch = true;
    bytes += entry->desc.result_bytes;
    ++count;
  });
  if (sig_mismatch) {
    return Status::Internal("entry stored under wrong signature");
  }
  WATCHMAN_RETURN_IF_ERROR(index_.CheckStructure());
  if (bytes != used_) {
    return Status::Internal("used byte accounting mismatch");
  }
  if (count != entry_count_) {
    return Status::Internal("entry count mismatch");
  }
  if (arena_.live() != entry_count_) {
    return Status::Internal("arena live count != entry count");
  }
  if (used_ > capacity_) {
    return Status::Internal("cache over capacity");
  }
  if (stats_.hits > stats_.lookups) {
    return Status::Internal("hits exceed lookups");
  }
  if (stats_.cost_saved > stats_.cost_total) {
    return Status::Internal("saved cost exceeds total cost");
  }
  return CheckPolicyIndex();
}

}  // namespace watchman

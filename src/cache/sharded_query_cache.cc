#include "cache/sharded_query_cache.h"

#include <cassert>
#include <utility>

#include "util/hash.h"
#include "util/sharding.h"

namespace watchman {

ShardedQueryCache::ShardedQueryCache(const Options& options,
                                     const ShardFactory& factory)
    : capacity_(options.capacity_bytes) {
  assert(factory != nullptr);
  size_t n = NormalizeShardCount(options.num_shards);
  // Every shard must own at least one byte of the budget (policies
  // reject a zero-capacity cache); a tiny capacity caps the fan-out.
  while (n > 1 && capacity_ < n) n >>= 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cache = factory(ShardCapacity(capacity_, n, i));
    assert(shard->cache != nullptr);
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedQueryCache::ShardIndexOf(Signature signature) const {
  return ShardOfSignature(signature, shards_.size());
}

bool ShardedQueryCache::Reference(const QueryDescriptor& d, Timestamp now) {
  Shard& shard = *shards_[ShardIndexOf(d.signature())];
  CountedLock lock(shard);
  return shard.cache->Reference(d, now);
}

ShardedQueryCache::OfferResult ShardedQueryCache::Offer(
    const QueryDescriptor& d, Timestamp now, const RelationTags& tags,
    bool record_reference) {
  Shard& shard = *shards_[ShardIndexOf(d.signature())];
  CountedLock lock(shard);
  if (record_reference && !shard.cache->Reference(d, now, &tags)) {
    return shard.cache->Contains(d.key) ? OfferResult::kAdmitted
                                        : OfferResult::kNotCached;
  }
  return shard.cache->MergeTags(d.key, tags) ? OfferResult::kAlreadyCached
                                             : OfferResult::kNotCached;
}

bool ShardedQueryCache::TryReferenceCached(const QueryDescriptor& d,
                                           Timestamp now) {
  Shard& shard = *shards_[ShardIndexOf(d.signature())];
  CountedLock lock(shard);
  return shard.cache->TryReferenceCached(d, now);
}

bool ShardedQueryCache::Contains(const QueryKey& key) const {
  const Shard& shard = *shards_[ShardIndexOf(key.signature())];
  CountedLock lock(shard);
  return shard.cache->Contains(key);
}

bool ShardedQueryCache::Erase(const QueryKey& key) {
  Shard& shard = *shards_[ShardIndexOf(key.signature())];
  CountedLock lock(shard);
  return shard.cache->Erase(key);
}

size_t ShardedQueryCache::EraseTagged(uint64_t tag) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    CountedLock lock(*shard);
    erased += shard->cache->EraseTagged(tag);
  }
  return erased;
}

ShardedQueryCache::LockStats ShardedQueryCache::lock_stats(
    size_t shard) const {
  LockStats out;
  out.acquisitions =
      shards_[shard]->lock_acquisitions.load(std::memory_order_relaxed);
  out.contended =
      shards_[shard]->lock_contended.load(std::memory_order_relaxed);
  return out;
}

ShardedQueryCache::LockStats ShardedQueryCache::total_lock_stats() const {
  LockStats total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const LockStats s = lock_stats(i);
    total.acquisitions += s.acquisitions;
    total.contended += s.contended;
  }
  return total;
}

void ShardedQueryCache::Compact() {
  for (auto& shard : shards_) {
    CountedLock lock(*shard);
    shard->cache->Compact();
  }
}

void ShardedQueryCache::SetEvictionListener(
    std::function<void(const QueryDescriptor&)> listener) {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->cache->SetEvictionListener(listener);
  }
}

CacheStats ShardedQueryCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total.Accumulate(shard->cache->stats());
  }
  return total;
}

CacheStats ShardedQueryCache::shard_stats(size_t shard) const {
  MutexLock lock(shards_[shard]->mu);
  return shards_[shard]->cache->stats();
}

uint64_t ShardedQueryCache::used_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->cache->used_bytes();
  }
  return total;
}

size_t ShardedQueryCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->cache->entry_count();
  }
  return total;
}

size_t ShardedQueryCache::retained_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->cache->retained_count();
  }
  return total;
}

std::string ShardedQueryCache::name() const {
  MutexLock lock(shards_[0]->mu);
  std::string base = shards_[0]->cache->name();
  if (shards_.size() > 1) {
    base += "x" + std::to_string(shards_.size());
  }
  return base;
}

Status ShardedQueryCache::CheckInvariants() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    MutexLock lock(shards_[i]->mu);
    Status st = shards_[i]->cache->CheckInvariants();
    if (!st.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              st.message());
    }
  }
  return Status::OK();
}

}  // namespace watchman

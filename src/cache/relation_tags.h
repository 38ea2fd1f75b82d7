// RelationTags: the relations a cached retrieved set reported reading,
// kept inline in its cache entry as 64-bit hashes of the relation names.
//
// The paper keeps cached sets coherent by dropping every set that read
// an updated relation (section 3). With the tags in the entry that is a
// walk over the cached entries (QueryCache::EraseTagged) and needs no
// side index from relations to sets: admission and eviction do no
// coherence bookkeeping beyond copying the tags.
//
// Two cases are conservative, never unsafe: a set that reports more
// than kCapacity distinct relations is flagged and matches every tag,
// and two relation names whose hashes collide drop each other's sets.

#ifndef WATCHMAN_CACHE_RELATION_TAGS_H_
#define WATCHMAN_CACHE_RELATION_TAGS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/hash.h"

namespace watchman {

class RelationTags {
 public:
  /// Distinct relations a set can carry before it is flagged.
  static constexpr size_t kCapacity = 8;

  /// The tag of relation `name`.
  static uint64_t Of(std::string_view name) {
    return ComputeSignature(name).value;
  }

  void Clear() {
    size_ = 0;
    overflow_ = false;
  }

  /// Adds `tag`. A tag already present collapses into it; a distinct
  /// tag past kCapacity flags the set instead.
  void Add(uint64_t tag) {
    if (Contains(tag)) return;
    if (size_ == kCapacity) {
      overflow_ = true;
      return;
    }
    tags_[size_++] = tag;
  }

  /// Adds every tag of `other` (and its flag).
  void Merge(const RelationTags& other) {
    overflow_ = overflow_ || other.overflow_;
    for (uint64_t tag : other) Add(tag);
  }

  /// True when an invalidation of the relation tagged `tag` must drop
  /// this set: it carries the tag, or it is flagged.
  bool Matches(uint64_t tag) const { return overflow_ || Contains(tag); }

  /// More than kCapacity distinct relations were added.
  bool overflow() const { return overflow_; }
  size_t size() const { return size_; }
  const uint64_t* begin() const { return tags_; }
  const uint64_t* end() const { return tags_ + size_; }

 private:
  bool Contains(uint64_t tag) const {
    for (uint64_t t : *this) {
      if (t == tag) return true;
    }
    return false;
  }

  // The count first: a walk reads it and the tags in use, no further.
  uint8_t size_ = 0;
  bool overflow_ = false;
  uint64_t tags_[kCapacity] = {};
};

}  // namespace watchman

#endif  // WATCHMAN_CACHE_RELATION_TAGS_H_

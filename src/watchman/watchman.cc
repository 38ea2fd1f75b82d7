#include "watchman/watchman.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "cache/query_descriptor.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/query_normalizer.h"
#include "util/string_util.h"

namespace watchman {

namespace {

/// Wall-time for the store breaker (monotonic ms; origin irrelevant).
int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread request scratch: the compressed query ID and the probe
/// descriptor carrying its QueryKey. Reused across calls, so the
/// steady-state hit path (and Invalidate()) derives the key (one
/// compression pass + one signature) with no heap allocation. Only
/// valid until the next Execute()/GetCached()/IsCached()/Invalidate()
/// on the same thread -- the miss path copies what it needs before
/// running the executor, which may reenter.
struct RequestScratch {
  std::string id;
  QueryDescriptor probe;
};

RequestScratch& Scratch() {
  static thread_local RequestScratch scratch;
  return scratch;
}

/// GET-miss message: fixed and short enough for the small-string
/// buffer, so answering a miss allocates nothing.
constexpr const char* kNotCachedMessage = "not cached";

/// An execution's result, viewed as the retrieved set it offers.
Watchman::Fill SetOf(const Watchman::ExecutionResult& result) {
  return {result.payload, result.cost, result.relations};
}

/// The tags of the relations a set reported.
RelationTags TagsOf(const std::vector<std::string>& relations) {
  RelationTags tags;
  for (const std::string& relation : relations) {
    tags.Add(RelationTags::Of(relation));
  }
  return tags;
}

/// The slot of `hash` in a fixed power-of-two epoch array.
template <typename Slots>
auto& SlotOf(Slots& slots, uint64_t hash) {
  return slots[hash & (slots.size() - 1)];
}

/// Raises `slot` to `epoch` unless it already holds a later one.
void RaiseEpoch(std::atomic<uint64_t>& slot, uint64_t epoch) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < epoch) {
    if (slot.compare_exchange_weak(seen, epoch, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

Watchman::Watchman(Options options, Executor executor)
    : options_(std::move(options)),
      executor_(std::move(executor)),
      store_breaker_(options_.store_breaker) {
  assert(executor_ != nullptr);
  PolicyConfig policy;
  if (options_.policy.has_value()) {
    policy = *options_.policy;
  } else {
    policy.kind =
        options_.admission ? PolicyKind::kLncRA : PolicyKind::kLncR;
    policy.k = options_.k;
    policy.retain_reference_info = options_.retain_reference_info;
  }
  cache_ = MakeShardedCache(policy, options_.capacity_bytes,
                            options_.num_shards);
  if (options_.payload_store != nullptr) {
    payloads_ = std::move(options_.payload_store);
  } else {
    payloads_ = std::make_unique<MemoryPayloadStore>();
  }
  // The listener's one job is erasing the evicted set's payload. It
  // runs under the evicting shard's lock and never calls into the cache,
  // keeping the lock order shard -> payload acyclic.
  cache_->SetEvictionListener([this](const QueryDescriptor& d) {
    // Reuse a per-thread buffer so the listener does not allocate under
    // the shard lock once its capacity covers the longest evicted ID.
    static thread_local std::string id;
    id.assign(d.query_id());
    ErasePayload(id);
  });
}

Timestamp Watchman::NowTick() {
  if (options_.clock) return options_.clock();
  return internal_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

StatusOr<Watchman::ExecutionResult> Watchman::RunExecutor(
    const std::string& query_text, bool run) {
  StatusOr<ExecutionResult> result = ExecutionResult{};
  const Status injected = FaultPoint(Fault::kExecFail, "warehouse executor");
  if (!injected.ok()) {
    result = injected;
  } else {
    try {
      FaultInjector& fi = FaultInjector::Global();
      if (fi.enabled() && fi.Trip(Fault::kExecThrow)) {
        throw std::runtime_error("injected executor exception");
      }
      if (run) result = executor_(query_text);
    } catch (const std::exception& e) {
      result = Status::Internal(std::string("executor threw: ") + e.what());
    } catch (...) {
      result = Status::Internal("executor threw a non-standard exception");
    }
  }
  if (!result.ok()) metrics_.executor_failures.Inc();
  return result;
}

void Watchman::MakeQueryIdInto(const std::string& query_text,
                               std::string* out) const {
  if (options_.normalize_queries) {
    *out = NormalizeQuery(query_text);
  } else {
    CompressQueryIdInto(query_text, out);
  }
}

bool Watchman::StoreAllowed() {
  return store_breaker_.closed() || store_breaker_.Allow(SteadyNowMs());
}

Status Watchman::GetPayloadInto(const std::string& query_id,
                                std::string* out) {
  if (!StoreAllowed()) {
    return Status::IOError("payload store circuit open");
  }
  Status st = FaultPoint(Fault::kStoreGetFail, "payload store Get");
  if (st.ok()) {
    SharedReaderLock lock(payload_mu_);
    st = payloads_->GetInto(query_id, out);
  }
  // NotFound is a normal miss, not a store failure.
  if (st.ok() || st.code() == StatusCode::kNotFound) {
    store_breaker_.RecordSuccess();
  } else {
    store_breaker_.RecordFailure(SteadyNowMs());
    metrics_.store_failures.Inc();
  }
  return st;
}

bool Watchman::HasPayload(const std::string& query_id) const {
  SharedReaderLock lock(payload_mu_);
  return payloads_->Contains(query_id);
}

Status Watchman::PutPayload(const std::string& query_id,
                            const std::string& payload) {
  if (!StoreAllowed()) {
    return Status::IOError("payload store circuit open");
  }
  Status st = FaultPoint(Fault::kStorePutFail, "payload store Put");
  if (st.ok()) {
    SharedMutexLock lock(payload_mu_);
    st = payloads_->Put(query_id, payload);
  }
  if (st.ok()) {
    store_breaker_.RecordSuccess();
  } else {
    store_breaker_.RecordFailure(SteadyNowMs());
    metrics_.store_failures.Inc();
  }
  return st;
}

int Watchman::store_breaker_state() const {
  return static_cast<int>(store_breaker_.state(SteadyNowMs()));
}

void Watchman::ErasePayload(const std::string& query_id) {
  SharedMutexLock lock(payload_mu_);
  payloads_->Erase(query_id);
}

bool Watchman::InvalidatedSince(Signature signature, const RelationTags& tags,
                                uint64_t epoch) const {
  auto raised_after = [epoch](const std::atomic<uint64_t>& slot) {
    return slot.load(std::memory_order_acquire) > epoch;
  };
  if (raised_after(SlotOf(query_epochs_, signature.value))) return true;
  // A flagged set did not keep all its tags: any invalidation counts.
  if (tags.overflow()) return raised_after(invalidation_epoch_);
  for (uint64_t tag : tags) {
    if (raised_after(SlotOf(relation_epochs_, tag))) return true;
  }
  return false;
}

bool Watchman::OfferToCache(const std::string& query_id,
                            QueryDescriptor* desc_out, const Fill& set,
                            uint64_t epoch_at_start, Timestamp now,
                            bool record_reference) {
  QueryDescriptor& desc = *desc_out;
  desc.result_bytes = set.payload.size();
  desc.cost = set.cost;
  if (desc.result_bytes == 0) {
    // Empty retrieved sets are returned but never cached (the cache
    // rejects zero-size sets under every policy).
    if (record_reference) cache_->Reference(desc, now);
    return false;
  }
  // Why these four steps never leave a set that read pre-update data
  // published past the invalidation: Invalidate() and
  // InvalidateRelation() raise their epoch slot BEFORE they erase or
  // walk the shards, and that erase or walk takes the shard lock under
  // which step 1 inserts the entry together with its tags. So either
  // the insertion came first, and the invalidation finds the entry and
  // evicts it; or the invalidation passed the shard first, and step 2,
  // which runs after the insertion, sees the raised slot. Step 3
  // publishes only after step 2 passed, and an entry evicted after step
  // 2 (by an invalidation or for capacity) fired the eviction listener
  // before there was a payload to erase, which step 4 makes up for.
  const RelationTags tags = TagsOf(set.relations);
  // 1. Insert the entry with its tags (under the shard lock).
  using Offered = ShardedQueryCache::OfferResult;
  const Offered offered = cache_->Offer(desc, now, tags, record_reference);
  if (offered == Offered::kNotCached) return false;  // rejected or raced out
  if (offered == Offered::kAlreadyCached && record_reference &&
      HasPayload(query_id)) {
    // Deduplicated follower hitting the leader's already-published set:
    // nothing left to publish.
    return true;
  }
  // 2. Coherence check: a relation this execution read, or the query
  // itself, was invalidated while it ran outside the locks, so the
  // result reflects pre-update data and must not be published.
  if (InvalidatedSince(desc.signature(), tags, epoch_at_start)) {
    cache_->Erase(desc.key);
    return false;
  }
  // 3. Publish the payload.
  Status stored = FaultPoint(Fault::kAllocFail, "cache entry allocation");
  if (stored.ok()) stored = PutPayload(query_id, set.payload);
  if (!stored.ok()) {
    // Storage/allocation failure: keep the cache metadata consistent by
    // dropping the entry; the caller still serves the fresh result
    // uncached (degraded pass-through).
    cache_->Erase(desc.key);
    metrics_.degraded_passthrough.Inc();
    return false;
  }
  // 4. Evicted since step 2: the listener found no payload to erase, so
  // undo the publish rather than leak it. (Should a racing re-admission
  // publish in between, this undo costs it one re-execution on the next
  // access, which re-publishes -- the hit path self-heals on a missing
  // payload.)
  if (!cache_->Contains(desc.key)) {
    ErasePayload(query_id);
    return false;
  }
  if (offered == Offered::kAdmitted && admission_listener_) {
    admission_listener_(query_id);
  }
  return true;
}

StatusOr<std::string> Watchman::Execute(const std::string& query_text) {
  std::string payload;
  bool cache_hit = false;
  const Status status =
      ExecuteInto(query_text, /*fill=*/nullptr, &payload, &cache_hit);
  if (!status.ok()) return status;
  return payload;
}

Status Watchman::ExecuteInto(const std::string& query_text, const Fill* fill,
                             std::string* out, bool* cache_hit) {
  bool referenced = false;
  bool again = false;
  Status status =
      ExecuteOnce(query_text, fill, out, cache_hit, &referenced, &again);
  // Each further round follows another caller's flight for this query
  // that completed in between, so the loop waits on progress, never
  // spins.
  while (again) {
    status = ExecuteOnce(query_text, fill, out, cache_hit, &referenced, &again);
  }
  return status;
}

Status Watchman::ExecuteOnce(const std::string& query_text, const Fill* fill,
                             std::string* out, bool* cache_hit,
                             bool* referenced, bool* again) {
  *cache_hit = false;
  *again = false;
  // Key derivation in per-thread scratch: one compression pass, one
  // signature, no allocation at steady state.
  RequestScratch& scratch = Scratch();
  MakeQueryIdInto(query_text, &scratch.id);
  if (scratch.id.empty()) {
    return Status::InvalidArgument("query text contains no tokens");
  }
  scratch.probe.key.Assign(scratch.id);
  scratch.probe.result_bytes = 0;
  scratch.probe.cost = 0;
  const Timestamp now = NowTick();

  // Fast path: the reference is recorded under the shard lock only when
  // the set is cached (the stored descriptor supplies size and cost). A
  // later round of a call whose reference already counted only looks.
  if (*referenced ? cache_->Contains(scratch.probe.key)
                  : cache_->TryReferenceCached(scratch.probe, now)) {
    *referenced = true;
    if (GetPayloadInto(scratch.id, out).ok()) {
      *cache_hit = true;
      return Status::OK();
    }
    // The payload vanished between the reference and the fetch
    // (concurrent eviction, or an undone racing publish); execute and
    // re-publish below. This call's reference is already counted.
  }

  // Miss path: copy out of the scratch before the executor runs -- it
  // may reenter Execute() on this thread and clobber it.
  const std::string query_id = scratch.id;
  QueryDescriptor probe;
  probe.key = scratch.probe.key;

  // Miss: execute the query (or take the caller's fill) with no lock
  // held; concurrent misses on the same query ID share one flight. The
  // leader offers the set to the cache and publishes the payload before
  // the flight closes, so late arrivals find it on the fast path instead
  // of re-executing.
  bool leader = false;
  const std::shared_ptr<const FlightOutcome> flight = flights_.Do(
      query_id,
      [this, &query_text, fill, &query_id, &probe, now, referenced] {
        auto outcome = std::make_shared<FlightOutcome>();
        outcome->epoch_at_start =
            invalidation_epoch_.load(std::memory_order_acquire);
        outcome->filled = fill != nullptr;
        outcome->result = RunExecutor(query_text, !outcome->filled);
        if (outcome->result.ok()) {
          const Fill set = fill != nullptr ? *fill : SetOf(*outcome->result);
          outcome->cached = OfferToCache(query_id, &probe, set,
                                         outcome->epoch_at_start, now,
                                         /*record_reference=*/!*referenced);
        }
        return std::shared_ptr<const FlightOutcome>(std::move(outcome));
      },
      &leader);
  const bool succeeded = flight != nullptr && flight->result.ok();
  if (succeeded && !leader) {
    // A deduplicated follower still counts as one reference: normally a
    // hit on the leader's freshly admitted set -- exactly the cost the
    // shared execution saved -- and a fresh admission decision when the
    // leader's offer was rejected. A caller whose fast-path reference
    // already counted only repairs the payload. Behind a fill-led flight
    // the follower goes around again instead (below), where the fast
    // path or its own flight records that reference.
    if (options_.metrics) metrics_.dedup_hits.Inc();
    if (!flight->filled) {
      OfferToCache(query_id, &probe, SetOf(*flight->result),
                   flight->epoch_at_start, now,
                   /*record_reference=*/!*referenced);
    }
  }
  if (options_.metrics && leader && succeeded) {
    // The admission outcome of this execution: what the policy kept vs
    // declined, by cost and by the paper's profit (cost/size) in ppm.
    metrics_.executions.Inc();
    const Fill set = fill != nullptr ? *fill : SetOf(*flight->result);
    const uint64_t bytes = set.payload.size();
    const uint64_t profit_ppm =
        bytes == 0 ? 0 : set.cost * 1000000ull / bytes;
    if (flight->cached) {
      metrics_.admitted_cost.Record(set.cost);
      metrics_.admitted_profit_ppm.Record(profit_ppm);
    } else {
      metrics_.rejected_cost.Record(set.cost);
      metrics_.rejected_profit_ppm.Record(profit_ppm);
    }
  }

  if (flight == nullptr) {
    // The leader's executor threw; it propagated the exception and the
    // flight was released without a result.
    return Status::Internal("query execution failed for a waiting caller");
  }
  if (leader) {
    if (!succeeded) return flight->result.status();
    out->assign(fill != nullptr ? fill->payload : flight->result->payload);
    return Status::OK();
  }
  if (succeeded && !flight->filled) {
    out->assign(flight->result->payload);
    *cache_hit = true;  // another caller's execution answered
    return Status::OK();
  }
  // The flight holds no set for this caller: a fill-led flight's bytes
  // stayed with its own caller, and a fill-less flight answered NotFound
  // where this caller's fill would have answered. The flight has closed,
  // so another round finds the leader's set cached or leads its own.
  // (Gated on NotFound so a real warehouse executor's other failures are
  // never re-run.)
  if (succeeded ||
      (fill != nullptr &&
       flight->result.status().code() == StatusCode::kNotFound)) {
    *again = true;
    return Status::OK();
  }
  return flight->result.status();
}

StatusOr<std::string> Watchman::GetCached(const std::string& query_text) {
  std::string payload;
  const Status status = GetCachedInto(query_text, &payload);
  if (!status.ok()) return status;
  return payload;
}

Status Watchman::GetCachedInto(const std::string& query_text,
                               std::string* out) {
  RequestScratch& scratch = Scratch();
  MakeQueryIdInto(query_text, &scratch.id);
  if (scratch.id.empty()) {
    return Status::InvalidArgument("query text contains no tokens");
  }
  scratch.probe.key.Assign(scratch.id);
  scratch.probe.result_bytes = 0;
  scratch.probe.cost = 0;
  if (!cache_->TryReferenceCached(scratch.probe, NowTick())) {
    return Status::NotFound(kNotCachedMessage);
  }
  const Status fetched = GetPayloadInto(scratch.id, out);
  if (!fetched.ok()) {
    // Evicted between the reference and the fetch; report the miss (the
    // recorded reference stands, matching a hit that raced an eviction).
    return Status::NotFound("payload evicted concurrently: " + scratch.id);
  }
  return Status::OK();
}

bool Watchman::IsCached(const std::string& query_text) const {
  RequestScratch& scratch = Scratch();
  MakeQueryIdInto(query_text, &scratch.id);
  scratch.probe.key.Assign(scratch.id);
  return cache_->Contains(scratch.probe.key);
}

bool Watchman::Invalidate(const std::string& query_text) {
  RequestScratch& scratch = Scratch();
  MakeQueryIdInto(query_text, &scratch.id);
  scratch.probe.key.Assign(scratch.id);
  // Raise the query's epoch slot before erasing, so an in-flight
  // execution of this query that started earlier cannot re-cache its
  // pre-update result (see OfferToCache).
  const uint64_t epoch =
      invalidation_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  RaiseEpoch(SlotOf(query_epochs_, scratch.probe.signature().value), epoch);
  const bool erased = cache_->Erase(scratch.probe.key);
  if (erased) invalidations_.fetch_add(1, std::memory_order_relaxed);
  return erased;
}

size_t Watchman::InvalidateRelation(const std::string& relation) {
  // Raise the relation's epoch slot before the walk: an in-flight
  // execution that read `relation` earlier and inserts its entry on a
  // shard the walk already passed sees the raised slot in its coherence
  // check and discards its (pre-update) result (see OfferToCache).
  const uint64_t tag = RelationTags::Of(relation);
  const uint64_t epoch =
      invalidation_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  RaiseEpoch(SlotOf(relation_epochs_, tag), epoch);
  const size_t dropped = cache_->EraseTagged(tag);
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void Watchman::SetAdmissionListener(AdmissionListener listener) {
  admission_listener_ = std::move(listener);
}

}  // namespace watchman

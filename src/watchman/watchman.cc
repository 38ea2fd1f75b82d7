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
/// steady-state hit path derives the key (one compression pass + one
/// signature) with no heap allocation. Only valid until the next
/// Execute()/GetCached()/IsCached() on the same thread -- the miss path
/// copies what it needs before running the executor, which may reenter.
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
  // Runs under the evicting shard's lock; touches only the payload and
  // coherence state (never the cache), keeping the lock order
  // shard -> payload/coherence acyclic.
  cache_->SetEvictionListener([this](const QueryDescriptor& d) {
    // Runs under the evicting shard's lock: reuse a per-thread buffer
    // so the listener does not allocate there once its capacity covers
    // the longest evicted ID.
    static thread_local std::string id;
    id.assign(d.query_id());
    ErasePayload(id);
    ForgetDependencies(id);
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

std::string Watchman::MakeQueryId(const std::string& query_text) const {
  return options_.normalize_queries ? NormalizeQuery(query_text)
                                    : CompressQueryId(query_text);
}

void Watchman::MakeQueryIdInto(const std::string& query_text,
                               std::string* out) const {
  if (options_.normalize_queries) {
    *out = NormalizeQuery(query_text);
  } else {
    CompressQueryIdInto(query_text, out);
  }
}

void Watchman::ForgetDependencies(const std::string& query_id) {
  MutexLock lock(coherence_mu_);
  auto it = reads_.find(query_id);
  if (it == reads_.end()) return;
  for (const std::string& relation : it->second) {
    auto dep = dependents_.find(relation);
    if (dep == dependents_.end()) continue;
    dep->second.erase(query_id);
    if (dep->second.empty()) dependents_.erase(dep);
  }
  reads_.erase(it);
}

void Watchman::RegisterDependencies(
    const std::string& query_id, const std::vector<std::string>& relations) {
  if (relations.empty()) return;
  MutexLock lock(coherence_mu_);
  reads_[query_id] = relations;
  for (const std::string& relation : relations) {
    dependents_[relation].insert(query_id);
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

bool Watchman::InvalidatedSince(const std::string& query_id,
                                const std::vector<std::string>& relations,
                                uint64_t epoch) const {
  MutexLock lock(coherence_mu_);
  auto invalidated_after = [epoch](const auto& map, const std::string& key) {
    auto it = map.find(key);
    return it != map.end() && it->second > epoch;
  };
  if (invalidated_after(query_invalidation_epoch_, query_id)) return true;
  for (const std::string& relation : relations) {
    if (invalidated_after(relation_invalidation_epoch_, relation)) {
      return true;
    }
  }
  return false;
}

void Watchman::OfferToCache(const std::string& query_id,
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
    return;
  }
  bool newly_admitted = false;
  if (record_reference) {
    newly_admitted = !cache_->Reference(desc, now);
  }
  if (!cache_->Contains(desc.key)) return;  // rejected or raced out
  if (record_reference && !newly_admitted && HasPayload(query_id)) {
    // Deduplicated follower hitting the leader's already-published set:
    // nothing left to publish.
    return;
  }
  Status stored = FaultPoint(Fault::kAllocFail, "cache entry allocation");
  if (stored.ok()) stored = PutPayload(query_id, set.payload);
  if (!stored.ok()) {
    // Storage/allocation failure: keep the cache metadata consistent by
    // dropping the entry; the caller still serves the fresh result
    // uncached (degraded pass-through).
    cache_->Erase(desc.key);
    metrics_.degraded_passthrough.Inc();
    return;
  }
  RegisterDependencies(query_id, set.relations);
  // Coherence check AFTER the dependencies are registered: an
  // invalidation that lands before this point is detected here, and one
  // that lands after will find the entry in dependents_ (or the cache
  // itself, for per-query invalidation) and erase it -- no window in
  // between.
  if (InvalidatedSince(query_id, set.relations, epoch_at_start)) {
    // A relation this execution read was invalidated while the query
    // ran outside the locks: the result reflects pre-update data, so it
    // must not stay cached past the invalidation.
    cache_->Erase(desc.key);
    return;
  }
  if (!cache_->Contains(desc.key)) {
    // Evicted concurrently before the payload and dependencies were
    // published, so the eviction listener could not clean them up; undo
    // both rather than leak them. (Should a racing re-admission publish
    // in between, this undo costs it one re-execution on the next
    // access, which re-publishes -- the hit path self-heals on a
    // missing payload.)
    ErasePayload(query_id);
    ForgetDependencies(query_id);
    return;
  }
  if (newly_admitted && admission_listener_) {
    admission_listener_(query_id);
  }
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
  // of re-executing. The in-flight guard keeps the invalidation-epoch
  // records alive until every overlapping offer has checked them.
  inflight_offers_.fetch_add(1, std::memory_order_acq_rel);
  bool leader = false;
  std::shared_ptr<const FlightOutcome> flight;
  try {
    flight = flights_.Do(
        query_id,
        [this, &query_text, fill, &query_id, &probe, now, referenced] {
          auto outcome = std::make_shared<FlightOutcome>();
          outcome->epoch_at_start =
              invalidation_epoch_.load(std::memory_order_acquire);
          outcome->filled = fill != nullptr;
          outcome->result = RunExecutor(query_text, !outcome->filled);
          if (outcome->result.ok()) {
            OfferToCache(query_id, &probe,
                         fill != nullptr ? *fill : SetOf(*outcome->result),
                         outcome->epoch_at_start, now,
                         /*record_reference=*/!*referenced);
          }
          return std::shared_ptr<const FlightOutcome>(std::move(outcome));
        },
        &leader);
  } catch (...) {
    ReleaseInflightOffer();
    throw;
  }
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
    const bool admitted = bytes > 0 && cache_->Contains(probe.key);
    const uint64_t profit_ppm =
        bytes == 0 ? 0 : set.cost * 1000000ull / bytes;
    if (admitted) {
      metrics_.admitted_cost.Record(set.cost);
      metrics_.admitted_profit_ppm.Record(profit_ppm);
    } else {
      metrics_.rejected_cost.Record(set.cost);
      metrics_.rejected_profit_ppm.Record(profit_ppm);
    }
  }
  ReleaseInflightOffer();

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

void Watchman::ReleaseInflightOffer() {
  if (inflight_offers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last overlapping execution finished: every future flight will
    // snapshot an epoch at least as new as anything recorded, so the
    // per-relation records can no longer change a staleness check.
    MutexLock lock(coherence_mu_);
    if (inflight_offers_.load(std::memory_order_acquire) == 0) {
      relation_invalidation_epoch_.clear();
      query_invalidation_epoch_.clear();
    }
  }
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
  const std::string query_id = MakeQueryId(query_text);
  // Stamp the epoch before erasing so an in-flight execution of this
  // query that started earlier cannot re-cache its pre-update result.
  const uint64_t epoch =
      invalidation_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    MutexLock lock(coherence_mu_);
    query_invalidation_epoch_[query_id] = epoch;
  }
  const bool erased = cache_->Erase(query_id);
  if (erased) invalidations_.fetch_add(1, std::memory_order_relaxed);
  return erased;
}

size_t Watchman::InvalidateRelation(const std::string& relation) {
  // Stamp the invalidation epoch first: any in-flight execution that
  // read `relation` before this point will see the newer epoch when it
  // tries to cache its (pre-update) result and discard it.
  const uint64_t epoch =
      invalidation_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Snapshot the dependent IDs, then erase without holding the
  // coherence lock (Erase takes the shard lock and fires the listener,
  // which re-acquires the coherence lock).
  std::vector<std::string> ids;
  {
    MutexLock lock(coherence_mu_);
    relation_invalidation_epoch_[relation] = epoch;
    auto it = dependents_.find(relation);
    if (it == dependents_.end()) return 0;
    ids.assign(it->second.begin(), it->second.end());
  }
  size_t dropped = 0;
  for (const std::string& id : ids) {
    if (cache_->Erase(id)) ++dropped;
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void Watchman::SetAdmissionListener(AdmissionListener listener) {
  admission_listener_ = std::move(listener);
}

}  // namespace watchman

// Tests of cache coherence (invalidation) and the facade's extended
// options: normalization and secondary-storage payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/counting_alloc.h"
#include "watchman/payload_store.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

StatusOr<Watchman::ExecutionResult> Execute(
    const std::string& text, uint64_t cost,
    std::vector<std::string> relations) {
  Watchman::ExecutionResult r;
  r.payload = "rows for: " + text;
  r.cost = cost;
  r.relations = std::move(relations);
  return r;
}

TEST(CoherenceTest, InvalidateSingleQuery) {
  int executions = 0;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    ++executions;
    return Execute(text, 100, {});
  });
  ASSERT_TRUE(wm.Query("select sum(v) from sales").ok());
  ASSERT_TRUE(wm.Query("select sum(v) from sales").ok());
  EXPECT_EQ(executions, 1);
  EXPECT_TRUE(wm.Invalidate("select sum(v) from sales"));
  EXPECT_FALSE(wm.IsCached("select sum(v) from sales"));
  ASSERT_TRUE(wm.Query("select sum(v) from sales").ok());
  EXPECT_EQ(executions, 2);  // re-executed after invalidation
  EXPECT_EQ(wm.invalidations(), 1u);
  EXPECT_FALSE(wm.Invalidate("never seen"));
}

TEST(CoherenceTest, InvalidateRelationEvictsDependents) {
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    if (text.find("lineitem") != std::string::npos) {
      return Execute(text, 100, {"lineitem", "orders"});
    }
    return Execute(text, 100, {"customer"});
  });
  ASSERT_TRUE(wm.Query("select a from lineitem q1").ok());
  ASSERT_TRUE(wm.Query("select b from lineitem q2").ok());
  ASSERT_TRUE(wm.Query("select c from customer q3").ok());
  EXPECT_EQ(wm.cached_set_count(), 3u);

  EXPECT_EQ(wm.InvalidateRelation("lineitem"), 2u);
  EXPECT_FALSE(wm.IsCached("select a from lineitem q1"));
  EXPECT_FALSE(wm.IsCached("select b from lineitem q2"));
  EXPECT_TRUE(wm.IsCached("select c from customer q3"));
  // Unknown relation is a no-op.
  EXPECT_EQ(wm.InvalidateRelation("nation"), 0u);
  // Repeating the update finds nothing left.
  EXPECT_EQ(wm.InvalidateRelation("lineitem"), 0u);
}

TEST(CoherenceTest, DependencyIndexSurvivesEvictions) {
  // When the cache evicts a set for capacity, its relation tags leave
  // with the entry, so InvalidateRelation does not double-count.
  Watchman::Options opts;
  opts.capacity_bytes = 4096;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    Watchman::ExecutionResult r;
    r.payload = std::string(1500, 'p');
    r.cost = 1000;
    r.relations = {"shared"};
    (void)text;
    return StatusOr<Watchman::ExecutionResult>(std::move(r));
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wm.Query("select slice " + std::to_string(i)).ok());
  }
  // Capacity fits only 2 sets of 1500 bytes; invalidation must reflect
  // what is actually cached.
  EXPECT_LE(wm.InvalidateRelation("shared"), 2u);
}

TEST(CoherenceTest, RetainedHistorySpeedsReadmissionAfterInvalidation) {
  // Invalidation keeps the reference history (the reference pattern is
  // still valid; only the payload changed), so a hot invalidated query
  // comes back with its rate estimate intact.
  Timestamp now = 0;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.clock = [&now] { return now += kSecond; };
  Watchman wm(std::move(opts), [&](const std::string& text) {
    return Execute(text, 5000, {"facts"});
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wm.Query("select hot aggregate from facts").ok());
  }
  EXPECT_EQ(wm.InvalidateRelation("facts"), 1u);
  EXPECT_GT(wm.retained_info_count(), 0u);
}

/// The executor of a facade that only ever takes fills.
StatusOr<Watchman::ExecutionResult> FillsOnly(const std::string&) {
  return Status::NotFound("fills only");
}

/// A memory store that counts Put() calls.
class CountingPutStore : public MemoryPayloadStore {
 public:
  explicit CountingPutStore(std::atomic<int>* puts) : puts_(puts) {}
  Status Put(const std::string& key, const std::string& payload) override {
    puts_->fetch_add(1);
    return MemoryPayloadStore::Put(key, payload);
  }

 private:
  std::atomic<int>* puts_;
};

/// Holds an executor that already took its epoch snapshot until the
/// test releases it.
class Latch {
 public:
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

/// Runs one execution of `query` that reads "lineitem", parks it after
/// its epoch snapshot, runs `invalidate` to completion and releases it.
/// Returns the Put() calls the payload store saw; the set must not be
/// cached afterwards.
int PutsOfExecutionOverlapping(
    const std::string& query,
    const std::function<void(Watchman&)>& invalidate) {
  std::atomic<int> puts{0};
  Latch latch;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.payload_store = std::make_unique<CountingPutStore>(&puts);
  Watchman wm(std::move(opts), [&](const std::string& text) {
    // The facade snapshots the invalidation epoch before it runs the
    // executor, so the data read here predates the update below.
    latch.ArriveAndWait();
    return Execute(text, 100, {"lineitem"});
  });
  StatusOr<std::string> answer = Status::Internal("not run");
  std::thread reader([&] { answer = wm.Query(query); });
  latch.WaitParked();
  invalidate(wm);
  latch.Release();
  reader.join();
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(wm.IsCached(query));
  EXPECT_EQ(wm.payload_store().count(), 0u);
  return puts.load();
}

TEST(CoherenceTest, ExecutionOverlappingInvalidationIsNeverPublished) {
  // The coherence check runs before the payload is published: a result
  // read before an update reaches the payload store neither for a GET
  // to find nor for a later check to take back.
  const std::string query = "select l from lineitem where k = 7";
  auto update_lineitem = [](Watchman& wm) {
    wm.InvalidateRelation("lineitem");
  };
  auto invalidate_query = [&query](Watchman& wm) { wm.Invalidate(query); };
  EXPECT_EQ(PutsOfExecutionOverlapping(query, update_lineitem), 0);
  EXPECT_EQ(PutsOfExecutionOverlapping(query, invalidate_query), 0);
}

TEST(CoherenceTest, InvalidationsOfAbsentNamesAllocateNothing) {
  // Coherence metadata is bounded by construction: with an execution in
  // flight (the state in which the epochs matter), invalidating names
  // nothing cached reported records nothing per name.
  Latch latch;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.num_shards = 8;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    if (text.find("parked") != std::string::npos) latch.ArriveAndWait();
    return Execute(text, 100, {"cached_rel"});
  });
  auto cached_query = [](int i) {
    return "select v from cached_rel where k = " + std::to_string(i);
  };
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(wm.Query(cached_query(i)).ok());
  std::thread parked([&] { ASSERT_TRUE(wm.Query("select parked").ok()); });
  latch.WaitParked();

  constexpr int kCalls = 100000;
  std::vector<std::string> relations;
  std::vector<std::string> queries;
  relations.reserve(kCalls);
  queries.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    relations.push_back("absent_relation_" + std::to_string(1000000 + i));
    queries.push_back("select v from absent where k = " +
                      std::to_string(1000000 + i));
  }
  // Warm the per-thread scratch.
  wm.InvalidateRelation(relations[0]);
  wm.Invalidate(queries[0]);

  uint64_t allocations = 0;
  size_t dropped = 0;
  {
    testsupport::CountingScope scope;
    for (const std::string& relation : relations) {
      dropped += wm.InvalidateRelation(relation);
    }
    for (const std::string& query : queries) {
      dropped += wm.Invalidate(query) ? 1 : 0;
    }
    allocations = scope.count();
  }
  latch.Release();
  parked.join();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(dropped, 0u);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(wm.IsCached(cached_query(i)));
}

TEST(CoherenceTest, RelationsAddNoAllocationsToAnAdmittedFill) {
  // Two facades take the same fills, one reporting seven relations and
  // one none. The tags live inline in the cache entry, so every call
  // allocates exactly as often on both.
  auto make = [] {
    Watchman::Options opts;
    opts.capacity_bytes = 1 << 20;
    opts.num_shards = 8;
    return std::make_unique<Watchman>(std::move(opts), FillsOnly);
  };
  auto tagged = make();
  auto untagged = make();
  const std::string payload(2048, 'p');
  std::vector<std::string> seven;
  for (int i = 0; i < 7; ++i) seven.push_back("relation" + std::to_string(i));
  const std::vector<std::string> none;
  const Watchman::Fill tagged_fill{payload, 900, seven};
  const Watchman::Fill untagged_fill{payload, 900, none};
  std::vector<std::string> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back("select sum(v) from lineitem where k = " +
                      std::to_string(100000 + i));
  }
  std::string tagged_out;
  std::string untagged_out;
  bool cache_hit = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    uint64_t tagged_allocations = 0;
    uint64_t untagged_allocations = 0;
    {
      testsupport::CountingScope scope;
      const Status st = tagged->ExecuteInto(queries[i], &tagged_fill,
                                            &tagged_out, &cache_hit);
      tagged_allocations = scope.count();
      testsupport::SetThreadCounting(false);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    {
      testsupport::CountingScope scope;
      const Status st = untagged->ExecuteInto(queries[i], &untagged_fill,
                                              &untagged_out, &cache_hit);
      untagged_allocations = scope.count();
      testsupport::SetThreadCounting(false);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    ASSERT_TRUE(tagged->IsCached(queries[i]));
    ASSERT_TRUE(untagged->IsCached(queries[i]));
    // The first calls grow per-thread scratch; compare once warm.
    if (i >= 8) {
      EXPECT_EQ(tagged_allocations, untagged_allocations) << "fill " << i;
    }
  }
  EXPECT_EQ(tagged->InvalidateRelation("relation6"), queries.size());
  EXPECT_EQ(untagged->InvalidateRelation("relation6"), 0u);
}

TEST(CoherenceTest, RandomOperationsMatchModel) {
  // Fills with random relation lists, capacity evictions, per-query and
  // per-relation invalidations on a small 8-shard facade, checked after
  // every step against a model of which sets are cached and what they
  // reported.
  Watchman::Options opts;
  opts.capacity_bytes = 16 << 10;
  opts.num_shards = 8;
  Watchman wm(std::move(opts), FillsOnly);
  ASSERT_EQ(wm.num_shards(), 8u);

  struct ModelSet {
    std::set<std::string> relations;
    std::string payload;
    bool flagged() const { return relations.size() > 8; }
  };
  std::map<std::string, ModelSet> model;
  std::vector<std::string> queries;
  for (int i = 0; i < 48; ++i) {
    queries.push_back("select c" + std::to_string(i) + " from t");
  }
  std::vector<std::string> names;  // the ~12 usual relations
  for (int i = 0; i < 12; ++i) names.push_back("rel" + std::to_string(i));
  std::vector<std::string> minted;  // fresh names some fill reported
  int next_fresh = 0;
  std::mt19937_64 rng(20240917);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };

  auto check_model = [&](int step) {
    for (const std::string& q : queries) {
      ASSERT_EQ(wm.IsCached(q), model.count(q) == 1)
          << "step " << step << ": " << q;
    }
    ASSERT_EQ(wm.cached_set_count(), model.size()) << "step " << step;
  };

  int flagged_fills = 0;
  int evicting_fills = 0;
  uint64_t fill_id = 0;
  for (int step = 0; step < 4000; ++step) {
    const size_t op = pick(100);
    if (op < 50) {
      // A fill with 0-4 relations, drawn with repeats, sometimes with a
      // never-seen name; one in ten reports 9-11 distinct relations.
      const std::string& q = queries[pick(queries.size())];
      std::vector<std::string> relations;
      if (pick(10) == 0) {
        relations = names;
        std::shuffle(relations.begin(), relations.end(), rng);
        relations.resize(9 + pick(3));
      } else {
        const size_t n = pick(5);
        for (size_t i = 0; i < n; ++i) {
          relations.push_back(names[pick(names.size())]);
        }
        if (pick(8) == 0) {
          minted.push_back("fresh" + std::to_string(next_fresh++));
          relations.push_back(minted.back());
        }
      }
      std::string payload = "fill " + std::to_string(++fill_id) + " ";
      payload.resize(64 + pick(900), 'x');
      const Watchman::Fill fill{payload, 100 + pick(5000), relations};
      std::string out;
      bool cache_hit = false;
      const bool was_cached = model.count(q) == 1;
      ASSERT_TRUE(wm.ExecuteInto(q, &fill, &out, &cache_hit).ok());
      ASSERT_EQ(cache_hit, was_cached) << "step " << step;
      if (was_cached) {
        ASSERT_EQ(out, model[q].payload) << "step " << step;
      } else {
        ASSERT_EQ(out, payload) << "step " << step;
        const bool admitted = wm.IsCached(q);
        size_t evicted = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (!wm.IsCached(it->first)) {
            it = model.erase(it);
            ++evicted;
          } else {
            ++it;
          }
        }
        // Only an admission makes room.
        ASSERT_TRUE(evicted == 0 || admitted) << "step " << step;
        if (evicted > 0) ++evicting_fills;
        if (admitted) {
          ModelSet& set = model[q];
          set.relations = {relations.begin(), relations.end()};
          set.payload = payload;
          if (set.flagged()) ++flagged_fills;
        }
      }
    } else if (op < 60) {
      const std::string& q = queries[pick(queries.size())];
      ASSERT_EQ(wm.Invalidate(q), model.erase(q) == 1) << "step " << step;
    } else if (op < 80) {
      // A usual relation, a minted one, or one never seen.
      std::string relation;
      const size_t kind = pick(10);
      if (kind < 7 || minted.empty()) {
        relation = names[pick(names.size())];
      } else if (kind < 9) {
        relation = minted[pick(minted.size())];
      } else {
        relation = "unseen" + std::to_string(step);
      }
      size_t expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.flagged() || it->second.relations.count(relation)) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(wm.InvalidateRelation(relation), expected)
          << "step " << step << ": " << relation;
    } else {
      const std::string& q = queries[pick(queries.size())];
      std::string out;
      const Status st = wm.GetCachedInto(q, &out);
      if (model.count(q) == 1) {
        ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
        ASSERT_EQ(out, model[q].payload) << "step " << step;
      } else {
        ASSERT_EQ(st.code(), StatusCode::kNotFound) << "step " << step;
      }
    }
    check_model(step);
    if (HasFatalFailure()) return;
  }
  // The random walk reached the cases it is meant to cover.
  EXPECT_GT(flagged_fills, 0);
  EXPECT_GT(evicting_fills, 0);
  EXPECT_TRUE(wm.cache().CheckInvariants().ok());
}

TEST(NormalizationOptionTest, ReorderedPredicatesHitSameEntry) {
  int executions = 0;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.normalize_queries = true;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    ++executions;
    return Execute(text, 100, {});
  });
  ASSERT_TRUE(
      wm.Query("select * from t where a = 1 and b = 2 and c = 3").ok());
  ASSERT_TRUE(
      wm.Query("select * from t where c = 3 and a = 1 and b = 2").ok());
  ASSERT_TRUE(
      wm.Query("SELECT * FROM t WHERE b = 2 AND c = 3 AND a = 1").ok());
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(wm.stats().hits, 2u);
}

TEST(NormalizationOptionTest, OffByDefault) {
  int executions = 0;
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    ++executions;
    return Execute(text, 100, {});
  });
  ASSERT_TRUE(wm.Query("select * from t where a = 1 and b = 2").ok());
  ASSERT_TRUE(wm.Query("select * from t where b = 2 and a = 1").ok());
  EXPECT_EQ(executions, 2);  // exact match only, like the paper's base
}

TEST(FileBackedWatchmanTest, PayloadsOnSecondaryStorage) {
  auto store = FilePayloadStore::Open(testing::TempDir() +
                                      "/watchman_facade_payloads.log");
  ASSERT_TRUE(store.ok());
  Watchman::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.payload_store = std::move(store).value();
  int executions = 0;
  Watchman wm(std::move(opts), [&](const std::string& text) {
    ++executions;
    return Execute(text, 2000, {});
  });
  ASSERT_TRUE(wm.Query("select report 1").ok());
  auto repeat = wm.Query("select report 1");
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(*repeat, "rows for: select report 1");
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(wm.payload_store().count(), wm.cached_set_count());
}

}  // namespace
}  // namespace watchman

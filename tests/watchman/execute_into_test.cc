// Tests of Watchman::ExecuteInto(), the facade entry point that takes a
// caller-computed miss-fill as an argument and answers into a
// caller-owned buffer (the daemon's EXECUTE handler).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/server.h"
#include "watchman/payload_store.h"
#include "watchman/watchman.h"

namespace watchman {
namespace {

Watchman::Options SmallOptions() {
  Watchman::Options options;
  options.capacity_bytes = 1 << 20;
  return options;
}

TEST(ExecuteIntoTest, FillIsAdmittedAndEchoedAsMiss) {
  Watchman wm(SmallOptions(), WatchmanServer::MissFillExecutor());
  const std::string payload(4096, 'f');
  const std::vector<std::string> relations = {"lineitem"};
  const Watchman::Fill fill{payload, 500, relations};
  std::string out = "stale bytes";
  bool cache_hit = true;
  ASSERT_TRUE(wm.ExecuteInto("select f from t", &fill, &out, &cache_hit).ok());
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(cache_hit);
  EXPECT_TRUE(wm.IsCached("select f from t"));
  EXPECT_EQ(wm.stats().lookups, 1u);
  EXPECT_EQ(wm.stats().hits, 0u);
  EXPECT_EQ(wm.facade_metrics().executions.Value(), 1u);
  // The fill's relations tag the entry: an update evicts the set.
  EXPECT_EQ(wm.InvalidateRelation("lineitem"), 1u);
  EXPECT_FALSE(wm.IsCached("select f from t"));
}

TEST(ExecuteIntoTest, CachedSetWinsOverFill) {
  Watchman wm(SmallOptions(), WatchmanServer::MissFillExecutor());
  const std::vector<std::string> none;
  const std::string first(512, 'a');
  const Watchman::Fill first_fill{first, 500, none};
  std::string out;
  bool cache_hit = false;
  ASSERT_TRUE(
      wm.ExecuteInto("select a from t", &first_fill, &out, &cache_hit).ok());
  ASSERT_FALSE(cache_hit);

  const std::string second(512, 'b');
  const Watchman::Fill second_fill{second, 500, none};
  ASSERT_TRUE(
      wm.ExecuteInto("SELECT  a FROM t", &second_fill, &out, &cache_hit).ok());
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(out, first);  // the cached set, not the new fill
  EXPECT_EQ(wm.stats().hits, 1u);
  auto cached = wm.GetCached("select a from t");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, first);
}

TEST(ExecuteIntoTest, ExecuteWithoutFillOnMissFillFacadeIsNotFound) {
  Watchman wm(SmallOptions(), WatchmanServer::MissFillExecutor());
  std::string out;
  bool cache_hit = true;
  const Status status =
      wm.ExecuteInto("select nothing from t", nullptr, &out, &cache_hit);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_FALSE(cache_hit);
  EXPECT_FALSE(wm.IsCached("select nothing from t"));
  EXPECT_EQ(wm.facade_metrics().executions.Value(), 0u);
}

TEST(ExecuteIntoTest, FillDedupedBehindFillLessFlightLandsOnItsRetry) {
  // A latch executor stands in for the miss-fill executor answering a
  // fill-less EXECUTE: it fails NotFound, but only once the filling
  // caller has reached the facade, so that caller joins the fill-less
  // flight as a follower and gets no usable result from it.
  static thread_local bool t_filler = false;
  std::mutex mu;
  std::condition_variable cv;
  bool leader_executing = false;
  bool filler_arrived = false;
  std::atomic<int> filler_rounds{0};
  std::atomic<Timestamp> ticks{0};

  Watchman::Options options = SmallOptions();
  // The facade reads its clock once per round, right before it joins
  // the flight: the filler's reads count its rounds.
  options.clock = [&]() -> Timestamp {
    if (t_filler && filler_rounds.fetch_add(1) == 0) {
      {
        std::lock_guard<std::mutex> lock(mu);
        filler_arrived = true;
      }
      cv.notify_all();
    }
    return ticks.fetch_add(1) + 1;
  };
  Watchman wm(std::move(options), [&](const std::string&)
                  -> StatusOr<Watchman::ExecutionResult> {
    std::unique_lock<std::mutex> lock(mu);
    leader_executing = true;
    cv.notify_all();
    cv.wait(lock, [&] { return filler_arrived; });
    lock.unlock();
    // The filler is past its clock read and blocks in the flight within
    // microseconds; give it ample time to get there.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Status::NotFound("cache miss and no miss-fill attached");
  });

  const std::string query = "select latched from t";
  Status fill_less_status;
  std::thread fill_less([&] {
    std::string out;
    bool cache_hit = false;
    fill_less_status = wm.ExecuteInto(query, nullptr, &out, &cache_hit);
  });
  // Start the filler only once the fill-less caller leads the flight.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_executing; });
  }

  const std::string payload(1024, 'r');
  const std::vector<std::string> none;
  const Watchman::Fill fill{payload, 800, none};
  std::string out;
  bool cache_hit = true;
  t_filler = true;
  const Status status = wm.ExecuteInto(query, &fill, &out, &cache_hit);
  t_filler = false;
  fill_less.join();

  EXPECT_EQ(fill_less_status.code(), StatusCode::kNotFound);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(cache_hit);
  EXPECT_TRUE(wm.IsCached(query));
  // The fill went around a second time: it followed the failed flight,
  // then led its own.
  EXPECT_EQ(filler_rounds.load(), 2);
  EXPECT_EQ(wm.facade_metrics().executions.Value(), 1u);
  EXPECT_EQ(wm.facade_metrics().dedup_hits.Value(), 0u);
}

/// A memory store whose next GetInto() reports the payload missing once
/// armed: the "payload vanished between reference and fetch" race.
class VanishOnceStore : public MemoryPayloadStore {
 public:
  Status GetInto(const std::string& key, std::string* out) override {
    if (vanish_.exchange(false)) return Status::NotFound("vanished");
    return MemoryPayloadStore::GetInto(key, out);
  }
  void ArmVanish() { vanish_.store(true); }

 private:
  std::atomic<bool> vanish_{false};
};

TEST(ExecuteIntoTest, FillDedupedBehindFillLedFlightIsServedTheCachedSet) {
  // A fill-led flight keeps its bytes with its own caller, so a fill
  // deduplicated behind it goes around again and is served the set the
  // leader admitted. The admission listener runs inside the leader's
  // flight and holds it open; the follower's fast-path fetch is made to
  // miss once, so it joins that flight with its reference already
  // counted, and the second round must not count it again.
  static thread_local bool t_follower = false;
  std::mutex mu;
  std::condition_variable cv;
  bool leader_admitting = false;
  bool follower_arrived = false;
  std::atomic<int> follower_rounds{0};
  std::atomic<Timestamp> ticks{0};

  auto store = std::make_unique<VanishOnceStore>();
  VanishOnceStore* vanish = store.get();
  Watchman::Options options = SmallOptions();
  options.payload_store = std::move(store);
  options.clock = [&]() -> Timestamp {
    if (t_follower && follower_rounds.fetch_add(1) == 0) {
      {
        std::lock_guard<std::mutex> lock(mu);
        follower_arrived = true;
      }
      cv.notify_all();
    }
    return ticks.fetch_add(1) + 1;
  };
  Watchman wm(std::move(options), WatchmanServer::MissFillExecutor());
  wm.SetAdmissionListener([&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    leader_admitting = true;
    cv.notify_all();
    cv.wait(lock, [&] { return follower_arrived; });
    lock.unlock();
    // The follower is past its clock read and blocks in the flight
    // within microseconds; give it ample time to get there.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });

  const std::string query = "select shared from t";
  const std::vector<std::string> none;
  const std::string leader_payload(1024, 'l');
  std::string leader_out;
  bool leader_hit = true;
  Status leader_status;
  std::thread leader([&] {
    const Watchman::Fill fill{leader_payload, 800, none};
    leader_status = wm.ExecuteInto(query, &fill, &leader_out, &leader_hit);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_admitting; });
  }

  const std::string follower_payload(1024, 'f');
  const Watchman::Fill fill{follower_payload, 800, none};
  std::string out;
  bool cache_hit = false;
  vanish->ArmVanish();
  t_follower = true;
  const Status status = wm.ExecuteInto(query, &fill, &out, &cache_hit);
  t_follower = false;
  leader.join();

  ASSERT_TRUE(leader_status.ok()) << leader_status.ToString();
  EXPECT_EQ(leader_out, leader_payload);
  EXPECT_FALSE(leader_hit);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, leader_payload);  // the cached set, not its own fill
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(follower_rounds.load(), 2);
  // One reference per call: the leader's miss and the follower's hit.
  EXPECT_EQ(wm.stats().lookups, 2u);
  EXPECT_EQ(wm.stats().hits, 1u);
  EXPECT_EQ(wm.facade_metrics().executions.Value(), 1u);
  EXPECT_EQ(wm.facade_metrics().dedup_hits.Value(), 1u);
}

}  // namespace
}  // namespace watchman

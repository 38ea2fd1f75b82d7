#include "util/circuit_breaker.h"

#include <gtest/gtest.h>

namespace watchman {
namespace {

CircuitBreaker::Options Opts(int threshold, int64_t cooldown_ms) {
  CircuitBreaker::Options o;
  o.failure_threshold = threshold;
  o.cooldown_ms = cooldown_ms;
  return o;
}

TEST(CircuitBreakerTest, StartsClosedAndAllows) {
  CircuitBreaker cb(Opts(3, 100));
  EXPECT_TRUE(cb.enabled());
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.closed());
  EXPECT_TRUE(cb.Allow(0));
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreakerTest, TripsAtThreshold) {
  CircuitBreaker cb(Opts(3, 100));
  cb.RecordFailure(10);
  cb.RecordFailure(10);
  EXPECT_EQ(cb.state(10), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.Allow(10));
  EXPECT_TRUE(cb.closed());
  cb.RecordFailure(10);  // third consecutive failure trips it
  EXPECT_EQ(cb.state(10), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.closed());
  EXPECT_FALSE(cb.Allow(10));
  EXPECT_EQ(cb.trips(), 1u);
  EXPECT_EQ(cb.rejected(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  CircuitBreaker cb(Opts(3, 100));
  cb.RecordFailure(0);
  cb.RecordFailure(0);
  cb.RecordSuccess();
  cb.RecordFailure(0);
  cb.RecordFailure(0);
  // Never three in a row, so still closed.
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreakerTest, CooldownAdmitsSingleProbe) {
  CircuitBreaker cb(Opts(1, 100));
  cb.RecordFailure(0);  // opens until t=100
  EXPECT_FALSE(cb.Allow(50));
  EXPECT_EQ(cb.state(99), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.state(100), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.closed());  // half-open: the caller must read its clock
  // First caller after the cooldown wins the probe slot ...
  EXPECT_TRUE(cb.Allow(100));
  // ... and everyone else is rejected until the probe reports back.
  EXPECT_FALSE(cb.Allow(100));
  EXPECT_FALSE(cb.Allow(150));
}

TEST(CircuitBreakerTest, ProbeSuccessCloses) {
  CircuitBreaker cb(Opts(1, 100));
  cb.RecordFailure(0);
  ASSERT_TRUE(cb.Allow(100));
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(100), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.closed());
  EXPECT_TRUE(cb.Allow(100));
  EXPECT_TRUE(cb.Allow(100));  // no probe gating once closed
  EXPECT_EQ(cb.trips(), 1u);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndCountsTrip) {
  CircuitBreaker cb(Opts(1, 100));
  cb.RecordFailure(0);  // trip 1, open until 100
  ASSERT_TRUE(cb.Allow(100));
  cb.RecordFailure(100);  // probe failed: trip 2, open until 200
  EXPECT_EQ(cb.state(150), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.Allow(150));
  EXPECT_EQ(cb.trips(), 2u);
  // Next cooldown admits a fresh probe.
  EXPECT_TRUE(cb.Allow(200));
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(200), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ThresholdZeroDisables) {
  CircuitBreaker cb(Opts(0, 100));
  EXPECT_FALSE(cb.enabled());
  for (int i = 0; i < 10; ++i) cb.RecordFailure(0);
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.closed());
  EXPECT_TRUE(cb.Allow(0));
  EXPECT_EQ(cb.trips(), 0u);
  EXPECT_EQ(cb.rejected(), 0u);
}

TEST(CircuitBreakerTest, RejectedCounterAccumulates) {
  CircuitBreaker cb(Opts(1, 1000));
  cb.RecordFailure(0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(cb.Allow(10));
  EXPECT_EQ(cb.rejected(), 5u);
}

TEST(CircuitBreakerTest, DefaultConstructedUsesDefaults) {
  CircuitBreaker cb;
  EXPECT_TRUE(cb.enabled());  // default threshold is 5
  for (int i = 0; i < 4; ++i) cb.RecordFailure(0);
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kClosed);
  cb.RecordFailure(0);
  EXPECT_EQ(cb.state(0), CircuitBreaker::State::kOpen);
}

}  // namespace
}  // namespace watchman

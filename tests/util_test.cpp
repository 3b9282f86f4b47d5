// Unit tests for the util substrate: strings, event scheduler, token
// bucket, RNG and histogram.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "net/packet.hpp"
#include "util/event.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/token_bucket.hpp"

namespace escape {
namespace {

using strings::parse_i64;
using strings::parse_scaled_u64;
using strings::parse_u64;

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitTrimmedDropsEmptiesAndTrims) {
  auto parts = strings::split_trimmed("  a ; ;b; ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  x  "), "x");
  EXPECT_EQ(strings::trim("\t\n"), "");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("no-ws"), "no-ws");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::starts_with("openflow", "open"));
  EXPECT_FALSE(strings::starts_with("open", "openflow"));
  EXPECT_TRUE(strings::ends_with("vnf_agent", "agent"));
  EXPECT_FALSE(strings::ends_with("agent", "vnf_agent"));
}

TEST(Strings, CaseHelpers) {
  EXPECT_TRUE(strings::iequals("NETCONF", "netconf"));
  EXPECT_FALSE(strings::iequals("click", "clack"));
  EXPECT_EQ(strings::to_lower("MiXeD"), "mixed");
  EXPECT_EQ(strings::to_upper("MiXeD"), "MIXED");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_EQ(parse_u64("  42  "), 42u);  // trimmed
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("+5"), 5);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(parse_i64("9223372036854775808"));
  EXPECT_FALSE(parse_i64("--3"));
}

TEST(Strings, ParseScaled) {
  EXPECT_EQ(parse_scaled_u64("10"), 10u);
  EXPECT_EQ(parse_scaled_u64("10k"), 10'000u);
  EXPECT_EQ(parse_scaled_u64("5M"), 5'000'000u);
  EXPECT_EQ(parse_scaled_u64("2G"), 2'000'000'000u);
  EXPECT_FALSE(parse_scaled_u64("k"));
  EXPECT_FALSE(parse_scaled_u64("10T"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(strings::replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(strings::replace_all("x", "", "y"), "x");  // empty pattern = no-op
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::format("%d/%s", 7, "up"), "7/up");
  EXPECT_EQ(strings::format("%05.1f", 2.25), "002.2");
}

// --- EventScheduler -------------------------------------------------------------

TEST(EventScheduler, RunsInTimestampOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(30, [&] { order.push_back(3); });
  sched.schedule(10, [&] { order.push_back(1); });
  sched.schedule(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(EventScheduler, FifoTieBreakAtEqualTime) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, FifoTieBreakSurvivesNestedSchedulingAndCancellation) {
  // The batched link model relies on insertion order being preserved at
  // equal timestamps even when handlers schedule more work *at the
  // current time* and other same-time events are cancelled in between.
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule(50, [&] {
    order.push_back(0);
    // Scheduled from inside a handler at the already-reached timestamp:
    // must run after everything previously queued for t=50.
    sched.schedule_at(50, [&] { order.push_back(3); });
  });
  auto cancelled = sched.schedule(50, [&] { order.push_back(99); });
  sched.schedule(50, [&] { order.push_back(1); });
  sched.schedule(50, [&] { order.push_back(2); });
  cancelled.cancel();
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sched.now(), 50u);
}

TEST(EventScheduler, CancelPreventsExecutionAndUpdatesCount) {
  EventScheduler sched;
  bool ran = false;
  auto handle = sched.schedule(10, [&] { ran = true; });
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(EventScheduler, CancelIsIdempotent) {
  EventScheduler sched;
  auto handle = sched.schedule(10, [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(EventScheduler, HandleReportsNotPendingAfterFire) {
  EventScheduler sched;
  auto handle = sched.schedule(5, [] {});
  sched.run();
  EXPECT_FALSE(handle.pending());
}

TEST(EventScheduler, RunUntilAdvancesClockToDeadline) {
  EventScheduler sched;
  int fired = 0;
  sched.schedule(50, [&] { ++fired; });
  sched.schedule(150, [&] { ++fired; });
  sched.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 100u);
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 150u);
}

TEST(EventScheduler, EventsScheduledDuringRunExecute) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule(1, recurse);
  };
  sched.schedule(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), 4u);
}

TEST(EventScheduler, SchedulingIntoThePastThrows) {
  EventScheduler sched;
  sched.schedule(100, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(50, [] {}), std::logic_error);
}

TEST(EventScheduler, MaxEventsGuard) {
  EventScheduler sched;
  std::function<void()> forever = [&] { sched.schedule(1, forever); };
  sched.schedule(0, forever);
  std::size_t ran = sched.run(1000);
  EXPECT_EQ(ran, 1000u);
  EXPECT_EQ(sched.executed_events(), 1000u);
}

// --- EventHandle contract -----------------------------------------------------

TEST(EventHandle, StaleHandleCannotReachTheSlotsNextEvent) {
  EventScheduler sched;
  int first = 0, second = 0;
  EventHandle fired = sched.schedule(10, [&] { ++first; });
  sched.run();
  // Records are recycled last-in first-out, so this event reuses the
  // slot of the one that just fired.
  EventHandle next = sched.schedule(10, [&] { ++second; });
  EXPECT_FALSE(fired.pending());
  EXPECT_TRUE(next.pending());
  fired.cancel();
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(sched.pending_events(), 1u);

  // Same after a cancel: once the cancelled entry is reaped and its slot
  // reused, the old handle stays inert.
  EventHandle cancelled = sched.schedule(5, [&] { ++first; });
  cancelled.cancel();
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EventHandle reused = sched.schedule(10, [&] { ++second; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(reused.pending());
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST(EventHandle, SafeNoOpAfterSchedulerDestroyed) {
  auto tracker = std::make_shared<int>(0);
  EventHandle pending, fired;
  {
    EventScheduler sched;
    fired = sched.schedule(1, [] {});
    sched.run();
    pending = sched.schedule(10, [tracker] { ++*tracker; });
    EXPECT_EQ(tracker.use_count(), 2);
  }
  // The destroyed scheduler released the queued callback...
  EXPECT_EQ(tracker.use_count(), 1);
  // ...and its handles are inert, even once a new scheduler reuses the
  // freed slots.
  EXPECT_FALSE(pending.pending());
  pending.cancel();
  fired.cancel();
  EventScheduler next;
  bool ran = false;
  EventHandle fresh = next.schedule(10, [&] { ran = true; });
  pending.cancel();
  fired.cancel();
  EXPECT_FALSE(pending.pending());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(next.pending_events(), 1u);
  next.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(*tracker, 0);
}

TEST(EventCallback, MoveOnlyCapturesRun) {
  EventScheduler sched;
  auto value = std::make_unique<int>(41);
  int seen = 0;
  sched.schedule(1, [&seen, v = std::move(value)] { seen = *v + 1; });

  net::Packet packet(std::vector<std::uint8_t>(64, 0xab));
  packet.set_seq(7);
  std::uint64_t seq = 0;
  std::size_t size = 0;
  sched.schedule(2, [&, p = std::move(packet)]() mutable {
    net::Packet owned = std::move(p);
    seq = owned.seq();
    size = owned.size();
  });
  sched.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(size, 64u);
}

// A callable larger than the inline buffer that counts how often a live
// (not moved-from) instance is destroyed and how often it ran.
struct BigCapture {
  std::uint64_t words[16] = {};  // 128 bytes
  int* runs;
  int* destroyed;
  bool live = true;
  BigCapture(int* r, int* d) : runs(r), destroyed(d) { words[15] = 0xfeed; }
  BigCapture(BigCapture&& o) noexcept : runs(o.runs), destroyed(o.destroyed) {
    std::copy(std::begin(o.words), std::end(o.words), words);
    o.live = false;
  }
  BigCapture(const BigCapture&) = delete;
  ~BigCapture() {
    if (live) ++*destroyed;
  }
  void operator()() { *runs += words[15] == 0xfeed ? 1 : 100; }
};

TEST(EventCallback, OversizedCaptureRunsAndIsDestroyedOnce) {
  static_assert(sizeof(BigCapture) > EventCallback::kInlineBytes);
  int runs = 0, destroyed = 0;
  {
    EventScheduler sched;
    sched.schedule(1, BigCapture(&runs, &destroyed));
    sched.schedule(3, BigCapture(&runs, &destroyed));
    EventHandle cancelled = sched.schedule(5, BigCapture(&runs, &destroyed));
    sched.schedule(7, BigCapture(&runs, &destroyed));
    cancelled.cancel();
    sched.run_until(1);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);
    sched.run_until(6);  // runs t=3, then reaps the cancelled t=5
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(destroyed, 3);
    // The t=7 one is still queued when the scheduler goes away.
  }
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(destroyed, 4);
}

TEST(EventScheduler, PendingCountExactWhenCancelledFromSameTimeCallback) {
  EventScheduler sched;
  std::vector<int> order;
  EventHandle victim;
  std::size_t pending_inside = 0;
  sched.schedule(10, [&] {
    order.push_back(0);
    victim.cancel();
    pending_inside = sched.pending_events();
  });
  victim = sched.schedule(10, [&] { order.push_back(1); });
  sched.schedule(10, [&] { order.push_back(2); });
  EXPECT_EQ(sched.pending_events(), 3u);
  sched.run();
  EXPECT_EQ(pending_inside, 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

// A standalone scheduler's handles may be cancelled from another thread
// while it runs: each event either fires or is cancelled, never both, so
// the pending count ends at exactly zero (a double decrement would wrap).
// The canceller aims just past the last event that fired, so its CAS
// races the runner's claim.
TEST(EventHandle, CancelFromAnotherThreadRacingAStandaloneRunIsExact) {
  constexpr int kEvents = 200000;
  EventScheduler sched;
  std::atomic<int> last{-1};
  int fired = 0;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(sched.schedule(static_cast<SimTime>(i + 1), [&last, &fired, i] {
      ++fired;
      last.store(i, std::memory_order_release);
    }));
  }
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    int ahead = 0;
    while (!done.load(std::memory_order_acquire)) {
      // The runner moves on while `last` crosses cores, so aim a varying
      // distance ahead to land some cancels right on its claim.
      ahead = ahead % 8 + 1;
      const int target = last.load(std::memory_order_acquire) + ahead;
      if (target < kEvents) handles[target].cancel();
    }
  });
  sched.run();
  done.store(true, std::memory_order_release);
  canceller.join();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_LE(fired, kEvents);
  for (const EventHandle& h : handles) EXPECT_FALSE(h.pending());
}

// Fixed standalone scenario whose executed-event count and order digest
// are pinned to literal values: any change to sequence assignment, FIFO
// tie-breaking, cancellation or run_until/step semantics shows up here.
// The scenario mixes nested same-time scheduling, cancels (including
// cancels of events that already fired), run_until deadlines, single
// steps and captures larger than any small-buffer optimisation.
TEST(EventScheduler, PinnedOrderDigestReference) {
  EventScheduler sched;
  Rng rng(0x5eed);
  std::vector<EventHandle> handles;
  std::uint64_t checksum = 0;
  struct Payload {
    std::uint64_t words[12];  // 96 bytes
  };
  std::function<void(int)> spawn = [&](int depth) {
    Payload payload{};
    for (auto& w : payload.words) w = rng.next_u64();
    const SimDuration delay = rng.next_below(4) == 0 ? 0 : rng.next_below(40);
    handles.push_back(sched.schedule(delay, [&, payload, depth] {
      checksum = (checksum ^ payload.words[depth % 12]) * 1099511628211ull;
      if (depth < 6) {
        const std::uint64_t children = rng.next_below(3);
        for (std::uint64_t c = 0; c < children; ++c) spawn(depth + 1);
      }
      if (rng.next_below(3) == 0 && !handles.empty()) {
        handles[rng.next_below(handles.size())].cancel();
      }
    }));
  };
  for (int i = 0; i < 64; ++i) spawn(0);
  EXPECT_EQ(sched.run_until(60), 152u);
  EXPECT_EQ(sched.pending_events(), 29u);
  sched.run_until(61);
  for (int i = 0; i < 5; ++i) sched.step();
  EXPECT_EQ(sched.now(), 63u);
  EXPECT_EQ(sched.run_until(150), 118u);
  EXPECT_EQ(sched.pending_events(), 6u);
  sched.run();
  EXPECT_EQ(sched.executed_events(), 282u);
  EXPECT_EQ(sched.order_digest(), 2467874808157545663ull);
  EXPECT_EQ(checksum, 6503487339497904403ull);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(handles.size(), 304u);
}

// --- TokenBucket ------------------------------------------------------------------

TEST(TokenBucket, StartsFullAndRefills) {
  TokenBucket bucket(1000, 10);  // 1000/s, burst 10
  EXPECT_TRUE(bucket.try_consume(0, 10));
  EXPECT_FALSE(bucket.try_consume(0, 1));
  // After 1 ms, one token accrued.
  EXPECT_TRUE(bucket.try_consume(timeunit::kMillisecond, 1));
  EXPECT_FALSE(bucket.try_consume(timeunit::kMillisecond, 1));
}

TEST(TokenBucket, NextAvailableComputesExactWait) {
  TokenBucket bucket(1000, 1);
  EXPECT_TRUE(bucket.try_consume(0, 1));
  // 1 token needs 1/1000 s = 1 ms.
  EXPECT_EQ(bucket.next_available(0, 1), timeunit::kMillisecond);
}

TEST(TokenBucket, BurstCapsAccumulation) {
  TokenBucket bucket(1000, 5);
  // Wait far longer than needed; only burst tokens available.
  EXPECT_EQ(bucket.available(10 * timeunit::kSecond), 5u);
}

TEST(TokenBucket, ConsumeRecordsDeficit) {
  TokenBucket bucket(1000, 1);
  bucket.consume(0, 3);  // 2 token deficit at 1000/s -> 2 ms to recover
  EXPECT_FALSE(bucket.try_consume(timeunit::kMillisecond, 1));
  EXPECT_TRUE(bucket.try_consume(3 * timeunit::kMillisecond, 1));
}

// --- Rng ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// --- Histogram ----------------------------------------------------------------------

TEST(Histogram, BasicStatistics) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.p50(), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p95(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.record(1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(4.0);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

/// Property sweep: nearest-rank percentile of 1..N.
class PercentileSweep : public ::testing::TestWithParam<int> {};

TEST_P(PercentileSweep, NearestRankMatchesFormula) {
  const int n = GetParam();
  Histogram h;
  for (int i = 1; i <= n; ++i) h.record(i);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const double expected = static_cast<double>(rank == 0 ? 1 : rank);
    EXPECT_DOUBLE_EQ(h.percentile(p), expected) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep, ::testing::Values(1, 2, 3, 10, 100, 1000));

}  // namespace
}  // namespace escape

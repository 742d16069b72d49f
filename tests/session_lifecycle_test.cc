// SessionManager lifecycle edge cases: idle-TTL eviction (including its
// race with in-flight requests), per-user session quotas, and the
// per-session in-flight cap behind graceful shedding — the contracts the
// serving front end (src/net) is built on. TTL tests drive a fake clock via
// set_clock_for_testing, so nothing here sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/session_manager.h"
#include "data/profiles.h"

namespace seesaw {
namespace {

data::DatasetProfile SmallBdd() {
  auto p = data::BddLikeProfile(0.05);
  p.embedding_dim = 32;
  return p;
}

struct ServiceFixture {
  ServiceFixture() {
    auto ds = data::Dataset::Generate(SmallBdd());
    SEESAW_CHECK(ds.ok());
    dataset = std::make_unique<data::Dataset>(std::move(*ds));
    core::ServiceOptions options;
    options.preprocess.md.k = 5;
    options.session_threads = 2;
    auto svc = core::SeeSawService::Create(*dataset, options);
    SEESAW_CHECK(svc.ok());
    service = std::make_unique<core::SeeSawService>(std::move(*svc));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
};

ServiceFixture& Fixture() {
  static ServiceFixture* fixture = new ServiceFixture();
  return *fixture;
}

/// A manager with the given limits and a manually advanced clock.
struct ManagerWithClock {
  explicit ManagerWithClock(const core::SessionLimits& limits)
      : manager(*Fixture().service, /*num_threads=*/2, limits) {
    manager.set_clock_for_testing([this] { return now_ns.load(); });
  }
  void AdvanceSeconds(double s) {
    now_ns.fetch_add(static_cast<int64_t>(s * 1e9));
  }
  std::atomic<int64_t> now_ns{0};
  core::SessionManager manager;
};

TEST(SessionTtlTest, IdleSessionIsEvicted) {
  core::SessionLimits limits;
  limits.idle_ttl_seconds = 10.0;
  ManagerWithClock m(limits);

  auto id = m.manager.CreateSession("car");
  ASSERT_TRUE(id.ok());

  m.AdvanceSeconds(5);
  EXPECT_EQ(m.manager.SweepIdle(), 0u);  // not idle long enough
  EXPECT_NE(m.manager.Find(*id), nullptr);

  m.AdvanceSeconds(6);
  EXPECT_EQ(m.manager.SweepIdle(), 1u);
  EXPECT_EQ(m.manager.Find(*id), nullptr);
  EXPECT_EQ(m.manager.lifecycle_stats().evicted, 1u);
}

TEST(SessionTtlTest, TouchAndAcquireRefreshTheClock) {
  core::SessionLimits limits;
  limits.idle_ttl_seconds = 10.0;
  ManagerWithClock m(limits);

  auto touched = m.manager.CreateSession("car");
  auto acquired = m.manager.CreateSession("car");
  ASSERT_TRUE(touched.ok());
  ASSERT_TRUE(acquired.ok());

  m.AdvanceSeconds(8);
  EXPECT_TRUE(m.manager.Touch(*touched));
  {
    auto lease = m.manager.Acquire(*acquired);
    ASSERT_TRUE(lease.ok());
  }
  m.AdvanceSeconds(8);  // 16s since create, 8s since refresh
  EXPECT_EQ(m.manager.SweepIdle(), 0u);

  m.AdvanceSeconds(3);  // 11s since refresh
  EXPECT_EQ(m.manager.SweepIdle(), 2u);
  EXPECT_FALSE(m.manager.Touch(*touched));
}

TEST(SessionTtlTest, InFlightLeaseBlocksEviction) {
  // The eviction/in-flight race: a session whose NextBatch is mid-request
  // when the sweep fires must not be evicted out from under it.
  core::SessionLimits limits;
  limits.idle_ttl_seconds = 10.0;
  ManagerWithClock m(limits);

  auto id = m.manager.CreateSession("car");
  ASSERT_TRUE(id.ok());

  auto lease = m.manager.Acquire(*id);
  ASSERT_TRUE(lease.ok());
  m.AdvanceSeconds(100);  // way past the TTL, but a request is in flight
  EXPECT_EQ(m.manager.SweepIdle(), 0u);
  EXPECT_NE(m.manager.Find(*id), nullptr);

  // The in-flight request still works mid-sweep-attempt.
  EXPECT_FALSE((*lease)->NextBatch(3).empty());

  // Release; now idle-since-last-Acquire is 100s and the sweep takes it.
  lease->Reset();
  EXPECT_EQ(m.manager.SweepIdle(), 1u);
  EXPECT_EQ(m.manager.Find(*id), nullptr);
}

TEST(SessionTtlTest, EvictedSessionStaysValidForHeldPointers) {
  core::SessionLimits limits;
  limits.idle_ttl_seconds = 1.0;
  ManagerWithClock m(limits);

  auto id = m.manager.CreateSession("car");
  ASSERT_TRUE(id.ok());
  std::shared_ptr<core::SeeSawSearcher> held = m.manager.Find(*id);
  ASSERT_NE(held, nullptr);

  m.AdvanceSeconds(5);
  EXPECT_EQ(m.manager.SweepIdle(), 1u);
  // Eviction unregisters; it never frees a session someone still holds.
  EXPECT_FALSE(held->NextBatch(3).empty());
}

TEST(SessionTtlTest, ZeroTtlNeverEvicts) {
  ManagerWithClock m({});  // all limits off
  auto id = m.manager.CreateSession("car");
  ASSERT_TRUE(id.ok());
  m.AdvanceSeconds(1e6);
  EXPECT_EQ(m.manager.SweepIdle(), 0u);
  EXPECT_NE(m.manager.Find(*id), nullptr);
}

TEST(SessionQuotaTest, PerUserQuotaIsTypedAndReleased) {
  core::SessionLimits limits;
  limits.max_sessions_per_user = 2;
  core::SessionManager manager(*Fixture().service, 2, limits);

  auto a = manager.CreateSession("car", "alice");
  auto b = manager.CreateSession("car", "alice");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(manager.SessionsForUser("alice"), 2u);

  // Third for the same user: typed ResourceExhausted, counted in stats.
  auto c = manager.CreateSession("car", "alice");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.lifecycle_stats().quota_rejected, 1u);

  // A different user is unaffected.
  auto d = manager.CreateSession("car", "bob");
  EXPECT_TRUE(d.ok());

  // Closing releases the slot.
  ASSERT_TRUE(manager.Close(*a).ok());
  EXPECT_EQ(manager.SessionsForUser("alice"), 1u);
  EXPECT_TRUE(manager.CreateSession("car", "alice").ok());
}

TEST(SessionQuotaTest, EvictionReleasesQuotaSlots) {
  core::SessionLimits limits;
  limits.max_sessions_per_user = 1;
  limits.idle_ttl_seconds = 10.0;
  ManagerWithClock m(limits);

  ASSERT_TRUE(m.manager.CreateSession("car", "alice").ok());
  ASSERT_FALSE(m.manager.CreateSession("car", "alice").ok());

  m.AdvanceSeconds(60);
  EXPECT_EQ(m.manager.SweepIdle(), 1u);
  // The TTL eviction freed alice's quota slot.
  EXPECT_TRUE(m.manager.CreateSession("car", "alice").ok());
}

TEST(SessionBusyTest, InFlightCapShedsAndRecovers) {
  core::SessionLimits limits;
  limits.max_inflight_per_session = 1;
  core::SessionManager manager(*Fixture().service, 2, limits);

  auto id = manager.CreateSession("car");
  ASSERT_TRUE(id.ok());

  auto first = manager.Acquire(*id);
  ASSERT_TRUE(first.ok());

  // Second concurrent request: typed busy rejection (the server maps this
  // to RETRY_LATER), nothing queued, nothing blocked.
  auto second = manager.Acquire(*id);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.lifecycle_stats().busy_rejected, 1u);

  // Shed-then-retry: once the first request finishes, the retry is admitted.
  first->Reset();
  auto retry = manager.Acquire(*id);
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE((*retry)->NextBatch(3).empty());
}

TEST(SessionBusyTest, LeaseMoveTransfersTheSlot) {
  core::SessionLimits limits;
  limits.max_inflight_per_session = 1;
  core::SessionManager manager(*Fixture().service, 2, limits);

  auto id = manager.CreateSession("car");
  ASSERT_TRUE(id.ok());

  core::SessionLease moved;
  {
    auto lease = manager.Acquire(*id);
    ASSERT_TRUE(lease.ok());
    moved = std::move(*lease);
  }  // the moved-from lease must NOT release the slot
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(manager.Acquire(*id).ok());  // still held by `moved`

  moved.Reset();
  EXPECT_TRUE(manager.Acquire(*id).ok());
}

TEST(SessionBusyTest, AcquireUnknownIsNotFound) {
  core::SessionManager manager(*Fixture().service, 2);
  auto lease = manager.Acquire(999999);
  ASSERT_FALSE(lease.ok());
  EXPECT_TRUE(lease.status().IsNotFound());
  EXPECT_FALSE(manager.Touch(999999));
}

TEST(SessionLifecycleConcurrencyTest, LeaseCounterBalancedUnderChurn) {
  // Stress coverage for the CHECK-enforced balance invariant in
  // SessionLease::Reset (the relaxed fetch_sub must never underflow): many
  // threads churning acquire/move/reset/destroy against a cap-2 session.
  // Any double release trips SEESAW_CHECK_GT inside Reset and aborts the
  // test; at the end the counter must read exactly zero — a stuck slot
  // would brick the session as "forever busy".
  core::SessionLimits limits;
  limits.max_inflight_per_session = 2;
  core::SessionManager manager(*Fixture().service, 2, limits);
  auto id = manager.CreateSession("car");
  ASSERT_TRUE(id.ok());

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 400;
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> shed{0};
  std::vector<std::thread> churn;
  for (int t = 0; t < kThreads; ++t) {
    churn.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto lease = manager.Acquire(*id);
        if (!lease.ok()) {
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
        switch ((t + i) % 3) {
          case 0:
            lease->Reset();       // explicit early release
            lease->Reset();       // second Reset on an empty lease: no-op
            break;
          case 1: {
            core::SessionLease moved = std::move(*lease);
            moved.Reset();        // release through the move target
            break;
          }
          default:
            break;                // release via ~SessionLease
        }
      }
    });
  }
  for (auto& th : churn) th.join();

  // Balanced: every admitted lease released exactly once, so the session
  // admits `max_inflight_per_session` fresh leases again.
  EXPECT_GT(admitted.load(), 0u);
  auto a = manager.Acquire(*id);
  auto b = manager.Acquire(*id);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(manager.Acquire(*id).ok());  // cap still enforced exactly
}

TEST(SessionLifecycleConcurrencyTest, SweepsRaceCreatesAndAcquires) {
  // Hammer create/acquire/sweep from several threads under a TTL so short
  // every sweep evicts something; TSan (this suite carries the concurrency
  // label) checks the registry locking, and the counters must balance.
  core::SessionLimits limits;
  limits.idle_ttl_seconds = 1e-9;  // everything not in flight is evictable
  limits.max_inflight_per_session = 1;
  core::SessionManager manager(*Fixture().service, 2, limits);

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<size_t> created{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &created] {
      for (int i = 0; i < kIters; ++i) {
        auto id = manager.CreateSession("car");
        if (!id.ok()) continue;
        created.fetch_add(1);
        auto lease = manager.Acquire(*id);
        if (lease.ok()) {
          (*lease)->NextBatch(2);
        }
        manager.SweepIdle();
      }
    });
  }
  for (auto& th : threads) th.join();
  manager.SweepIdle();

  auto stats = manager.lifecycle_stats();
  EXPECT_EQ(stats.created, created.load());
  // Every created session was either evicted or is still live.
  EXPECT_EQ(stats.created, stats.evicted + manager.num_sessions());
}

}  // namespace
}  // namespace seesaw

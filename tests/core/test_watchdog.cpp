// Control-plane watchdog: ECMP fallback on degradation, re-engage on
// recovery.
#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/collector.hpp"
#include "core/watchdog.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"

namespace pythia::core {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  sdn::Controller controller;
  Allocator allocator{controller};
  net::NodeId src, dst;

  explicit Fixture(sdn::ControllerConfig ccfg = {})
      : controller(sim, fabric, topo, ccfg) {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }

  WatchdogConfig quick_config() const {
    WatchdogConfig cfg;
    cfg.staleness_threshold = Duration::seconds_i(2);
    cfg.recovery_grace = Duration::seconds_i(1);
    return cfg;
  }
};

TEST(Watchdog, StaysEngagedWhileNotificationsFlow) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  f.sim.after(Duration::seconds_i(1), [&] {
    wd.note_emission(f.sim.now());
    wd.note_notification(f.sim.now());
  });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 0u);
}

TEST(Watchdog, UnansweredEmissionTripsFallback) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  // Give the controller an active rule so the fallback's clear is visible.
  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  f.controller.install_path(f.src, f.dst, paths[0]);

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  f.sim.run();

  EXPECT_FALSE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 1u);
  EXPECT_TRUE(wd.notifications_stale());
  EXPECT_TRUE(f.allocator.suspended());
  EXPECT_EQ(f.controller.active_rule(f.src, f.dst), nullptr);
  EXPECT_EQ(f.controller.rules_cleared(), 1u);
}

TEST(Watchdog, NotificationResetsStalenessClock) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  // Notification lands 1.5 s after the emission — under the 2 s threshold.
  f.sim.after(Duration::millis(2500),
              [&] { wd.note_notification(f.sim.now()); });
  f.sim.after(Duration::seconds_i(60), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_FALSE(wd.notifications_stale());
}

TEST(Watchdog, InstallFailureRateTripsFallback) {
  sdn::ControllerConfig ccfg;
  ccfg.install_reject_probability = 1.0;  // every attempt rejected
  Fixture f(ccfg);
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  wd.evaluate();  // establish the failure-sampling window at t=0
  // Two rules, each burning its full retry ladder: enough attempts to clear
  // the watchdog's min_install_samples bar.
  const net::NodeId src2 = f.topo.hosts()[1];
  f.controller.install_path(f.src, f.dst,
                            f.controller.routing().paths(f.src, f.dst)[0],
                            Bytes{1000});
  f.controller.install_path(src2, f.dst,
                            f.controller.routing().paths(src2, f.dst)[0],
                            Bytes{1000});
  f.sim.run();  // drain the retry/backoff ladders
  ASSERT_GE(f.controller.install_attempts(), 8u);
  ASSERT_EQ(f.controller.installs_abandoned(), 2u);

  wd.evaluate();
  EXPECT_FALSE(wd.engaged());
  EXPECT_GE(wd.recent_install_failure_rate(), 0.99);
}

TEST(Watchdog, ReengagesAfterRecoveryGrace) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  // Outstanding volume so the resume path has something to reinstall.
  f.allocator.add_predicted_volume(f.src, f.dst, Bytes{5'000'000});

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  // Channel heals: notifications resume.
  f.sim.after(Duration::seconds_i(11),
              [&] { wd.note_notification(f.sim.now()); });
  f.sim.after(Duration::seconds_i(12), [&] { wd.evaluate(); });  // streak start
  f.sim.after(Duration::seconds_i(14), [&] { wd.evaluate(); });  // > grace
  f.sim.run();

  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 1u);
  EXPECT_EQ(wd.reengagements(), 1u);
  EXPECT_FALSE(f.allocator.suspended());
}

TEST(Watchdog, DisabledWatchdogNeverIntervenes) {
  Fixture f;
  WatchdogConfig cfg = f.quick_config();
  cfg.enabled = false;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, cfg);

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(100), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 0u);
  EXPECT_FALSE(f.allocator.suspended());
}

TEST(Watchdog, SuspendedAllocatorSuppressesInstallsAndResumeReinstalls) {
  Fixture f;
  f.allocator.suspend();
  f.allocator.add_predicted_volume(f.src, f.dst, Bytes{1'000'000});
  EXPECT_EQ(f.allocator.installs_suppressed(), 1u);
  EXPECT_EQ(f.controller.rules_installed(), 0u);
  EXPECT_GT(f.allocator.pair_outstanding(f.src, f.dst).count(), 0);

  f.allocator.resume();
  f.sim.run();
  EXPECT_EQ(f.controller.rules_installed(), 1u);
  EXPECT_NE(f.controller.active_rule(f.src, f.dst), nullptr);
}

TEST(Watchdog, FailureRateIsIntentWeighted) {
  // flow_table_capacity = 1: one large single-intent aggregate takes the
  // table; a three-intent coalesced aggregate (smaller volume, so no
  // eviction) is refused. Intent-weighted accounting must see 3 stranded
  // predictions out of 4 — 0.75 — where per-batch accounting would report
  // 1 failed install out of 2 events (0.5) and miss the fallback bar.
  const net::Topology topo = net::make_two_rack({});
  const auto hosts = topo.hosts();
  sim::Simulation sim(7);
  net::Fabric fabric(sim, topo);
  sdn::ControllerConfig ctcfg;
  ctcfg.flow_table_capacity = 1;
  sdn::Controller controller(sim, fabric, topo, ctcfg);
  Allocator allocator(controller);
  Collector collector(sim, allocator);  // windowed pipeline: batch coalescing
  ControlPlaneWatchdog watchdog(sim, controller, allocator);

  collector.reducer_located(0, 0, hosts[5]);
  collector.reducer_located(0, 1, hosts[6]);
  auto intent = [&](std::size_t reduce_index, std::size_t map_index,
                    std::int64_t bytes) {
    ShuffleIntent i;
    i.job_serial = 0;
    i.map_index = map_index;
    i.reduce_index = reduce_index;
    i.src_server = hosts[0];
    i.predicted_wire_bytes = Bytes{bytes};
    collector.ingest(i);
  };
  intent(0, 0, 10'000'000);  // installs; attempt weight 1
  intent(1, 0, 1'000'000);   // coalesce into one 3-intent aggregate...
  intent(1, 1, 1'000'000);
  intent(1, 2, 1'000'000);  // ...refused by the full table: weight 3
  sim.run();

  EXPECT_EQ(controller.install_attempt_intents(), 1u);
  EXPECT_EQ(controller.table_reject_intents(), 3u);
  EXPECT_DOUBLE_EQ(watchdog.recent_install_failure_rate(), 0.75);
}

}  // namespace
}  // namespace pythia::core

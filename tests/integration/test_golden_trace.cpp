// Golden-trace regression test: the seed scenario's full event trace — flow
// starts/completions, map outputs, reducer starts, fetch lifecycle, rule
// installs, watchdog transitions — serialized and diffed against a
// checked-in golden file. A behavior-preserving refactor (like PR 2's
// incremental rate engine) keeps the trace byte-identical; any engine change
// that shifts an event shows up as a one-line diff here instead of as an
// ad-hoc differential test per subsystem.
//
// Regenerate after an *intentional* behavior change with:
//   PYTHIA_REGEN_GOLDEN=1 ./build/tests/test_golden_trace
// (see docs/testing.md), then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "experiments/scenario.hpp"
#include "experiments/trace.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

constexpr const char* kGoldenRelPath = "/integration/golden/seed_trace.txt";
constexpr const char* kHierGoldenRelPath =
    "/integration/golden/hier_fabric_k8_trace.txt";

std::string golden_path() { return std::string(PYTHIA_TEST_DIR) + kGoldenRelPath; }

/// The pinned seed scenario: quickstart shape (2-rack, 1:10 background,
/// Pythia scheduler) with a small sort so the trace stays reviewable.
std::string record_seed_trace() {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  Scenario scenario(cfg);
  EventTraceRecorder recorder(scenario);
  scenario.run_job(
      workloads::sort_job(util::Bytes{2LL * 1000 * 1000 * 1000}, 4));
  return recorder.text();
}

/// Shared golden-file protocol: regenerate under PYTHIA_REGEN_GOLDEN=1
/// (skipping the test so the diff gets reviewed), otherwise diff against the
/// checked-in file and pinpoint the first diverging line.
void check_against_golden(const std::string& trace, const std::string& path) {
  ASSERT_FALSE(trace.empty());
  const char* regen = std::getenv("PYTHIA_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0' && std::string(regen) != "0") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << trace;
    GTEST_SKIP() << "golden trace regenerated at " << path
                 << " — review the diff before committing";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << " — regenerate with PYTHIA_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  if (trace == golden) {
    SUCCEED();
    return;
  }
  // Pinpoint the first diverging line for a readable failure.
  std::istringstream got(trace);
  std::istringstream want(golden);
  std::string got_line;
  std::string want_line;
  std::size_t line_no = 0;
  while (true) {
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    ++line_no;
    if (!has_got && !has_want) break;
    ASSERT_EQ(has_want, has_got) << "trace length diverges at line "
                                 << line_no;
    ASSERT_EQ(want_line, got_line) << "trace diverges at line " << line_no;
  }
  FAIL() << "traces differ but no diverging line found (line endings?)";
}

TEST(GoldenTrace, SeedScenarioMatchesGoldenFile) {
  check_against_golden(record_seed_trace(), golden_path());
}

TEST(GoldenTrace, TraceIsDeterministicAcrossRuns) {
  EXPECT_EQ(record_seed_trace(), record_seed_trace());
}

/// Builds one up/down fat-tree path src→dst without running Yen: host up to
/// its edge, across an aggregation (and, cross-pod, core) switch, back down.
/// Mirrors the construction the scaling bench uses, so the golden scenario
/// exercises the same cross-pod core coupling the bench times.
std::vector<net::LinkId> fat_tree_path(const net::Topology& topo,
                                       net::NodeId src, net::NodeId dst,
                                       util::Xoshiro256& rng) {
  const auto edge_of = [&](net::NodeId host) {
    return topo.link(topo.out_links(host)[0]).dst;
  };
  const auto neighbors = [&](net::NodeId sw, const char* prefix) {
    std::vector<net::NodeId> out;
    for (net::LinkId l : topo.out_links(sw)) {
      const auto& n = topo.node(topo.link(l).dst);
      if (n.kind == net::NodeKind::kSwitch && n.name.starts_with(prefix)) {
        out.push_back(n.id);
      }
    }
    return out;
  };
  const net::NodeId e1 = edge_of(src);
  const net::NodeId e2 = edge_of(dst);
  std::vector<net::LinkId> path{*topo.find_link(src, e1)};
  if (e1 == e2) {
    path.push_back(*topo.find_link(e1, dst));
    return path;
  }
  const auto aggs = neighbors(e1, "agg-");
  const std::size_t pick = rng.below(aggs.size());
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const net::NodeId agg = aggs[(pick + i) % aggs.size()];
    if (const auto down = topo.find_link(agg, e2)) {
      path.push_back(*topo.find_link(e1, agg));
      path.push_back(*down);
      path.push_back(*topo.find_link(e2, dst));
      return path;
    }
  }
  const net::NodeId agg1 = aggs[pick];
  const auto cores = neighbors(agg1, "core-");
  const net::NodeId core = cores[rng.below(cores.size())];
  for (net::LinkId l : topo.out_links(core)) {
    const net::NodeId agg2 = topo.link(l).dst;
    if (agg2 == agg1) continue;
    if (const auto down = topo.find_link(agg2, e2)) {
      path.push_back(*topo.find_link(e1, agg1));
      path.push_back(*topo.find_link(agg1, core));
      path.push_back(l);
      path.push_back(*down);
      path.push_back(*topo.find_link(e2, dst));
      return path;
    }
  }
  ADD_FAILURE() << "no fat-tree path";
  return path;
}

/// The pinned fabric scenario: fat-tree k=8, a steady backdrop plus three
/// shuffle waves of simultaneous arrivals. Every start, completion, and the
/// final settled state image go into the trace, so a fill change that moves
/// any event time — or any allocation bit — shows up as an explicit golden
/// diff. The header's `engine=hierarchical` is part of the pinned file.
std::string record_hier_fabric_trace() {
  net::FatTreeConfig topo_cfg;
  topo_cfg.k = 8;
  const net::Topology topo = net::make_fat_tree(topo_cfg);
  sim::Simulation sim(1234);
  net::Fabric fabric(sim, topo);
  util::Xoshiro256 rng(1234);
  const auto hosts = topo.hosts();

  std::ostringstream trace;
  trace << "hier_fabric_k8 seed=1234 engine=hierarchical\n";
  auto on_done = [&trace](net::FlowId id, util::SimTime t) {
    trace << "done t=" << t.ns() << " flow=" << id.value() << "\n";
  };
  auto start_one = [&](std::int64_t bytes) {
    const net::NodeId src = hosts[rng.below(hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    net::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = util::Bytes{bytes};
    spec.path = fat_tree_path(topo, src, dst, rng);
    const net::FlowId id = fabric.start_flow(spec, on_done);
    trace << "start t=" << sim.now().ns() << " flow=" << id.value() << " src="
          << src.value() << " dst=" << dst.value() << " bytes=" << bytes
          << "\n";
  };

  // Backdrop: 16 medium flows at t=0, then three waves of 8
  // simultaneous shuffle arrivals 10 ms apart.
  for (int i = 0; i < 16; ++i) {
    start_one(20'000'000 + static_cast<std::int64_t>(rng.below(30'000'000)));
  }
  for (int wave = 1; wave <= 3; ++wave) {
    sim.at(util::SimTime{wave * 10'000'000LL}, [&, wave] {
      for (int i = 0; i < 8; ++i) {
        start_one(5'000'000 +
                  static_cast<std::int64_t>(rng.below(10'000'000)));
      }
    });
  }
  while (sim.queue().run_one()) {
  }

  sim::StateEncoder enc;
  fabric.encode_state(enc);
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : enc.bytes()) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  trace << "end t=" << sim.now().ns() << " completed="
        << fabric.flows_completed() << " state_fnv=" << std::hex << h
        << std::dec << "\n";
  return trace.str();
}

TEST(GoldenTrace, HierFabricK8MatchesGoldenFile) {
  check_against_golden(record_hier_fabric_trace(),
                       std::string(PYTHIA_TEST_DIR) + kHierGoldenRelPath);
}

TEST(GoldenTrace, HierFabricTraceIsDeterministicAcrossRuns) {
  EXPECT_EQ(record_hier_fabric_trace(), record_hier_fabric_trace());
}

}  // namespace
}  // namespace pythia::exp

// Property-based validation of the fluid max-min allocator: on randomized
// leaf-spine and k=4 fat-tree topologies with randomized flow sets and CBR
// background, the computed rates must satisfy the defining properties of a
// max-min fair allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;

enum class Shape { kLeafSpine, kFatTreeK4 };

struct Params {
  Shape shape;
  std::uint64_t seed;
  std::size_t spines;  // leaf-spine only; the fat-tree routes over k = 4
  std::size_t flows;
  double cbr_fraction;  // of one 10 Gb/s link's capacity
  bool weighted = false;  // draw per-flow weights in [0.5, 4]
};

/// Two racks of three hosts over `spines` spines, or a canonical k=4
/// fat-tree; every link is 10 Gb/s.
Topology make_topology(const Params& p) {
  if (p.shape == Shape::kFatTreeK4) {
    FatTreeConfig cfg;
    cfg.k = 4;
    return make_fat_tree(cfg);
  }
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 3;
  cfg.spines = p.spines;
  cfg.host_link = BitsPerSec{10e9};
  cfg.uplink = BitsPerSec{10e9};
  return make_leaf_spine(cfg);
}

class MaxMinProperty : public ::testing::TestWithParam<Params> {};

TEST_P(MaxMinProperty, AllocationIsMaxMinFair) {
  const Params p = GetParam();
  const Topology topo = make_topology(p);
  const RoutingGraph routing(
      topo, p.shape == Shape::kFatTreeK4 ? std::size_t{4} : p.spines);

  sim::Simulation sim(p.seed);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(p.seed);

  const auto hosts = topo.hosts();
  // Optional CBR on a cross-rack (leaf-spine) or cross-pod (fat-tree) path.
  const NodeId cbr_dst =
      p.shape == Shape::kFatTreeK4 ? hosts.back() : hosts[4];
  if (p.cbr_fraction > 0.0) {
    const auto& paths = routing.paths(hosts[0], cbr_dst);
    ASSERT_FALSE(paths.empty());
    fabric.start_cbr(paths[0].links, BitsPerSec{10e9 * p.cbr_fraction});
  }

  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < p.flows; ++i) {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    ASSERT_FALSE(paths.empty());
    const auto& path = paths[rng.below(paths.size())];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{static_cast<std::int64_t>(1e12)};  // long-lived
    spec.path = path.links;
    spec.tuple = FiveTuple{static_cast<std::uint32_t>(i), 0, 0,
                           static_cast<std::uint16_t>(i), 6};
    spec.weight = p.weighted ? rng.uniform(0.5, 4.0) : 1.0;
    flows.push_back(fabric.start_flow(spec));
  }

  // Property 1: every rate is nonnegative.
  for (FlowId f : flows) {
    EXPECT_GE(fabric.flow(f).rate.bps(), 0.0);
  }

  // Property 2: no link carries more elastic traffic than its residual
  // capacity (capacity minus CBR, floored at zero).
  constexpr double kEps = 1e-3;  // absolute bps tolerance
  for (const auto& link : topo.links()) {
    const double residual = fabric.link_residual_capacity(link.id).bps();
    EXPECT_LE(fabric.link_elastic_rate(link.id).bps(), residual + kEps)
        << "link " << link.id.value();
  }

  // Property 3 (weighted max-min): every flow has a bottleneck link — a
  // link on its path that is saturated and on which no other flow has a
  // strictly larger *weight-normalized* rate. (Weight 1 everywhere makes
  // this the standard max-min characterization.)
  for (FlowId f : flows) {
    const auto& flow = fabric.flow(f);
    bool has_bottleneck = false;
    for (LinkId l : flow.spec.path) {
      const double residual = fabric.link_residual_capacity(l).bps();
      const double used = fabric.link_elastic_rate(l).bps();
      const bool saturated = used >= residual - 1.0;  // 1 bps slack
      if (!saturated) continue;
      bool is_max_on_link = true;
      const double norm = flow.rate.bps() / flow.spec.weight;
      for (FlowId g : flows) {
        if (g == f) continue;
        const auto& other = fabric.flow(g);
        const bool crosses = std::find(other.spec.path.begin(),
                                       other.spec.path.end(),
                                       l) != other.spec.path.end();
        if (crosses &&
            other.rate.bps() / other.spec.weight > norm + kEps) {
          is_max_on_link = false;
          break;
        }
      }
      if (is_max_on_link) {
        has_bottleneck = true;
        break;
      }
    }
    // Starved flows (zero residual somewhere on the path) trivially satisfy
    // max-min; otherwise a bottleneck must exist.
    if (flow.rate.bps() > kEps) {
      EXPECT_TRUE(has_bottleneck) << "flow " << f.value();
    }
  }

  // Property 4: determinism — rebuilding the identical scenario yields
  // identical rates.
  sim::Simulation sim2(p.seed);
  Fabric fabric2(sim2, topo);
  util::Xoshiro256 rng2(p.seed);
  if (p.cbr_fraction > 0.0) {
    const auto& paths = routing.paths(hosts[0], cbr_dst);
    fabric2.start_cbr(paths[0].links, BitsPerSec{10e9 * p.cbr_fraction});
  }
  std::vector<FlowId> flows2;
  for (std::size_t i = 0; i < p.flows; ++i) {
    const NodeId src = hosts[rng2.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng2.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto& path = paths[rng2.below(paths.size())];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{static_cast<std::int64_t>(1e12)};
    spec.path = path.links;
    spec.tuple = FiveTuple{static_cast<std::uint32_t>(i), 0, 0,
                           static_cast<std::uint16_t>(i), 6};
    spec.weight = p.weighted ? rng2.uniform(0.5, 4.0) : 1.0;
    flows2.push_back(fabric2.start_flow(spec));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(fabric.flow(flows[i]).rate.bps(),
                     fabric2.flow(flows2[i]).rate.bps());
  }
}

constexpr Shape kLS = Shape::kLeafSpine;
constexpr Shape kFT = Shape::kFatTreeK4;

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaxMinProperty,
    ::testing::Values(
        Params{kLS, 1, 2, 4, 0.0}, Params{kLS, 2, 2, 12, 0.0},
        Params{kLS, 3, 2, 12, 0.6}, Params{kLS, 4, 3, 20, 0.0},
        Params{kLS, 5, 3, 20, 0.9}, Params{kLS, 6, 4, 40, 0.5},
        Params{kLS, 7, 2, 1, 0.95}, Params{kLS, 8, 4, 64, 0.0},
        Params{kLS, 9, 4, 64, 0.8}, Params{kLS, 10, 2, 30, 0.3},
        Params{kLS, 11, 2, 20, 0.0, true}, Params{kLS, 12, 3, 40, 0.6, true},
        Params{kLS, 13, 4, 64, 0.5, true},
        // Fat-tree k=4: pods coupled through the core.
        Params{kFT, 1, 0, 8, 0.0}, Params{kFT, 2, 0, 40, 0.0},
        Params{kFT, 3, 0, 40, 0.6}, Params{kFT, 4, 0, 96, 0.0},
        Params{kFT, 5, 0, 96, 0.8, true}, Params{kFT, 6, 0, 64, 0.5, true},
        Params{kFT, 7, 0, 64, 0.0}, Params{kFT, 8, 0, 96, 0.5, true}),
    [](const auto& info) {
      const Params& p = info.param;
      if (p.shape == Shape::kFatTreeK4) {
        return "fattree4_seed" + std::to_string(p.seed) + "_flows" +
               std::to_string(p.flows) + "_cbr" +
               std::to_string(static_cast<int>(p.cbr_fraction * 100)) +
               (p.weighted ? "_weighted" : "");
      }
      return "seed" + std::to_string(p.seed) + "_spines" +
             std::to_string(p.spines) + "_flows" + std::to_string(p.flows) +
             "_cbr" + std::to_string(static_cast<int>(p.cbr_fraction * 100)) +
             (p.weighted ? "_weighted" : "");
    });

}  // namespace
}  // namespace pythia::net

// Fabric oracle: a frozen, self-contained copy of the original weighted
// max-min progressive fill, kept here so the production fill in
// src/net/fabric.cpp is checked against an independent implementation —
// one that shares none of the Fabric's per-link flow index, arena path rows
// or component bookkeeping — rather than against itself. Do not "fix" or
// speed this up: its operation order is the contract the production fill
// must reproduce bit for bit:
//
//  - flows are visited in ascending id order at every step (weight sums,
//    freezing, per-link rate sums);
//  - the bottleneck is the first link, scanning ascending link ids, whose
//    share residual / max(weight, 1e-12) is strictly below the best so far;
//  - every subtraction is clamped with max(0, ·).
//
// Also holds the whole-fabric check: every active flow's rate and every
// link's elastic and per-class rate must equal an oracle fill over the
// fabric's public state (capacities, up flags, CBR loads, flow specs).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace pythia::net {

struct OracleFlow {
  std::uint32_t id = 0;
  std::vector<LinkId> path;
  double weight = 1.0;
  FlowClass cls = FlowClass::kOther;
};

struct OracleInput {
  std::vector<double> capacity_bps;  // per link
  std::vector<char> up;              // per link
  std::vector<double> cbr_load_bps;  // per link
  std::vector<OracleFlow> flows;     // any order
};

struct OracleResult {
  std::vector<std::uint32_t> flow_ids;  // ascending
  std::vector<double> flow_rate_bps;    // parallel to flow_ids
  std::vector<double> link_elastic_bps;
  std::vector<std::array<double, 4>> link_class_bps;
};

/// Weighted max-min progressive fill over every link and flow.
inline OracleResult oracle_max_min(const OracleInput& in) {
  const std::size_t links = in.capacity_bps.size();
  assert(in.up.size() == links && in.cbr_load_bps.size() == links);
  std::vector<const OracleFlow*> flows;
  for (const OracleFlow& f : in.flows) flows.push_back(&f);
  std::sort(flows.begin(), flows.end(),
            [](const OracleFlow* a, const OracleFlow* b) {
              return a->id < b->id;
            });

  std::vector<double> residual(links);
  std::vector<double> unfixed_weight(links, 0.0);
  std::vector<std::uint32_t> unfixed_count(links, 0);
  for (std::size_t l = 0; l < links; ++l) {
    residual[l] =
        in.up[l] ? std::max(0.0, in.capacity_bps[l] - in.cbr_load_bps[l])
                 : 0.0;
  }
  for (const OracleFlow* f : flows) {
    for (LinkId l : f->path) {
      unfixed_weight[l.value()] += f->weight;
      ++unfixed_count[l.value()];
    }
  }

  std::vector<double> rate(flows.size(), 0.0);
  std::vector<char> fixed(flows.size(), 0);
  std::size_t remaining = flows.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = links;
    for (std::size_t l = 0; l < links; ++l) {
      if (unfixed_count[l] == 0) continue;
      const double share = residual[l] / std::max(unfixed_weight[l], 1e-12);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    assert(best_link != links);
    if (best_share < 0.0) best_share = 0.0;

    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (fixed[i]) continue;
      const OracleFlow& f = *flows[i];
      const bool crosses =
          std::any_of(f.path.begin(), f.path.end(),
                      [best_link](LinkId l) { return l.value() == best_link; });
      if (!crosses) continue;
      rate[i] = best_share * f.weight;
      fixed[i] = 1;
      --remaining;
      for (LinkId l : f.path) {
        residual[l.value()] = std::max(0.0, residual[l.value()] - rate[i]);
        unfixed_weight[l.value()] =
            std::max(0.0, unfixed_weight[l.value()] - f.weight);
        assert(unfixed_count[l.value()] > 0);
        --unfixed_count[l.value()];
      }
    }
  }

  OracleResult out;
  out.link_elastic_bps.assign(links, 0.0);
  out.link_class_bps.assign(links, {0.0, 0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    out.flow_ids.push_back(flows[i]->id);
    out.flow_rate_bps.push_back(rate[i]);
    for (LinkId l : flows[i]->path) {
      out.link_elastic_bps[l.value()] += rate[i];
      out.link_class_bps[l.value()][static_cast<std::size_t>(flows[i]->cls)] +=
          rate[i];
    }
  }
  return out;
}

/// The oracle's input, read from a fabric's public state. Paths come from
/// each flow's spec (not the arena row the fill walks).
inline OracleInput oracle_input(const Fabric& fabric) {
  const Topology& topo = fabric.topology();
  OracleInput in;
  for (const Link& link : topo.links()) {
    in.capacity_bps.push_back(link.capacity.bps());
    in.up.push_back(fabric.link_up(link.id) ? 1 : 0);
    in.cbr_load_bps.push_back(fabric.link_cbr_load(link.id).bps());
  }
  for (FlowId id : fabric.active_flows()) {
    const FlowSpec& spec = fabric.flow(id).spec;
    in.flows.push_back(OracleFlow{id.value(), spec.path, spec.weight, spec.cls});
  }
  return in;
}

/// Checks every active flow's rate and every link's elastic and per-class
/// rate against an oracle fill, by IEEE-754 bit pattern.
inline void expect_fabric_matches_oracle(const Fabric& fabric,
                                         const std::string& what) {
  const OracleResult want = oracle_max_min(oracle_input(fabric));
  const auto active = fabric.active_flows();
  ASSERT_EQ(active.size(), want.flow_ids.size()) << what;
  for (std::size_t i = 0; i < active.size(); ++i) {
    ASSERT_EQ(active[i].value(), want.flow_ids[i]) << what;
    const double got = fabric.flow(active[i]).rate.bps();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want.flow_rate_bps[i]))
        << what << ": rate of flow " << active[i].value() << " is " << got
        << ", oracle " << want.flow_rate_bps[i];
  }
  const auto& links = fabric.topology().links();
  for (const Link& link : links) {
    const std::uint32_t l = link.id.value();
    const double got = fabric.link_elastic_rate(link.id).bps();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want.link_elastic_bps[l]))
        << what << ": elastic rate of link " << l << " is " << got
        << ", oracle " << want.link_elastic_bps[l];
    for (std::size_t c = 0; c < 4; ++c) {
      const double got_c =
          fabric.link_class_rate(link.id, static_cast<FlowClass>(c)).bps();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got_c),
                std::bit_cast<std::uint64_t>(want.link_class_bps[l][c]))
          << what << ": class " << c << " rate of link " << l << " is "
          << got_c << ", oracle " << want.link_class_bps[l][c];
    }
  }
}

/// Fires every pending event one at a time, checking the fabric against the
/// oracle after each; stops at the first fatal mismatch. Returns the number
/// of events fired.
inline std::uint64_t run_checking_oracle(sim::Simulation& sim,
                                         const Fabric& fabric,
                                         const std::string& what) {
  std::uint64_t events = 0;
  while (sim.queue().run_one()) {
    ++events;
    expect_fabric_matches_oracle(
        fabric, what + " after event " + std::to_string(events));
    if (::testing::Test::HasFatalFailure()) break;
  }
  return events;
}

}  // namespace pythia::net

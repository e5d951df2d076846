#include "net/fabric.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::net {

namespace {
/// A flow whose settled remainder drops below this is considered delivered;
/// sub-byte residue is floating-point noise from rate integration.
constexpr double kDoneEpsilonBytes = 0.5;
constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
}  // namespace

Fabric::Fabric(sim::Simulation& sim, const Topology& topo)
    : sim_(&sim),
      topo_(&topo),
      link_flows_(topo.link_count()),
      cbr_load_bps_(topo.link_count(), 0.0),
      link_up_(topo.link_count(), 1),
      elastic_rate_bps_(topo.link_count(), 0.0),
      class_rate_bps_(topo.link_count(), {0.0, 0.0, 0.0, 0.0}),
      link_dirty_(topo.link_count(), 0),
      residual_(topo.link_count(), 0.0),
      unfixed_weight_(topo.link_count(), 0.0),
      unfixed_count_(topo.link_count(), 0),
      link_rank_(topo.link_count(), 0),
      link_touched_(topo.link_count(), 0),
      comp_bits_((topo.link_count() + 63) / 64, 0),
      last_settle_(sim.now()) {}

std::uint32_t Fabric::SpanArena::acquire(std::uint32_t len,
                                         std::uint8_t& bucket) {
  std::uint8_t b = 0;
  while ((1u << b) < std::max(len, 1u)) ++b;
  bucket = b;
  auto& list = free_[b];
  if (!list.empty()) {
    const std::uint32_t off = list.back();
    list.pop_back();
    return off;
  }
  const auto off = static_cast<std::uint32_t>(size_);
  size_ += (1u << b);
  return off;
}

std::uint32_t Fabric::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(flows_.size());
  flows_.emplace_back();
  callbacks_.emplace_back();
  active_pos_.push_back(kNoPos);
  flow_fixed_.push_back(0);
  arena_weight_.push_back(0.0);
  arena_rate_bps_.push_back(0.0);
  arena_eta_ns_.push_back(-1);
  arena_cls_.push_back(0);
  path_off_.push_back(kNoPos);
  path_len_.push_back(0);
  path_bucket_.push_back(0);
  flow_mark_.push_back(0);
  return slot;
}

void Fabric::release_slot(std::uint32_t slot) {
  // The completed Flow record stays readable until the slot is reused.
  callbacks_[slot] = nullptr;
  free_path_row(slot);
  free_slots_.push_back(slot);
}

void Fabric::arena_admit(std::uint32_t slot) {
  const Flow& f = flows_[slot];
  arena_weight_[slot] = f.spec.weight;
  arena_cls_[slot] = static_cast<std::uint8_t>(f.spec.cls);
  arena_rate_bps_[slot] = f.rate.bps();
  arena_eta_ns_[slot] = -1;
  const auto len = static_cast<std::uint32_t>(f.spec.path.size());
  const std::uint32_t off = path_arena_.acquire(len, path_bucket_[slot]);
  if (path_pool_.size() < path_arena_.size()) {
    path_pool_.resize(path_arena_.size());
  }
  path_off_[slot] = off;
  path_len_[slot] = len;
  std::copy(f.spec.path.begin(), f.spec.path.end(), path_pool_.begin() + off);
}

void Fabric::free_path_row(std::uint32_t slot) {
  if (path_off_[slot] == kNoPos) return;
#ifndef NDEBUG
  // Poison the freed row: a straggler holding this slot's span reads
  // invalid link ids, not a successor flow's path.
  for (std::uint32_t i = 0; i < path_len_[slot]; ++i) {
    path_pool_[path_off_[slot] + i] = LinkId{};
  }
#endif
  path_arena_.release(path_off_[slot], path_bucket_[slot]);
  path_off_[slot] = kNoPos;
  // path_len_ deliberately survives: flow_path() distinguishes "row was
  // recycled" (len > 0, fatal in debug) from "never had one" (zero-byte
  // flow, empty span). The length resets when the slot is reused.
}

void Fabric::insert_link_flow(LinkId l, FlowId id) {
  auto& v = link_flows_[l.value()];
  v.insert(std::upper_bound(v.begin(), v.end(), id,
                            [](FlowId a, FlowId b) {
                              return a.value() < b.value();
                            }),
           id);
}

void Fabric::remove_link_flow(LinkId l, FlowId id) {
  auto& v = link_flows_[l.value()];
  const auto it = std::lower_bound(v.begin(), v.end(), id,
                                   [](FlowId a, FlowId b) {
                                     return a.value() < b.value();
                                   });
  assert(it != v.end() && *it == id);
  v.erase(it);
}

void Fabric::mark_dirty(LinkId l) {
  if (link_dirty_[l.value()]) return;
  link_dirty_[l.value()] = 1;
  dirty_links_.push_back(l.value());
}

void Fabric::clear_dirty() {
  for (std::uint32_t l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
}

double Fabric::elastic_headroom(std::uint32_t l) const {
  if (!link_up_[l]) return 0.0;
  return std::max(
      0.0, topo_->link(LinkId{l}).capacity.bps() - cbr_load_bps_[l]);
}

FlowId Fabric::start_flow(FlowSpec spec, FlowCompleteFn on_complete) {
  assert(topo_->validate_path(spec.src, spec.dst, spec.path) &&
         "flow path must connect src to dst");
  assert(spec.size >= util::Bytes::zero());
  const std::uint32_t slot = acquire_slot();
  Flow& f = flows_[slot];
  f = Flow{};
  path_len_[slot] = 0;  // slot reuse ends the stale-read detection window
  f.id = FlowId{slot};
  f.spec = std::move(spec);
  f.started = sim_->now();
  f.remaining_bytes = f.spec.size.as_double();
  const FlowId id = f.id;
  ++flows_started_;
  callbacks_[slot] = std::move(on_complete);

  if (f.remaining_bytes <= kDoneEpsilonBytes) {
    // Zero-byte flow: complete immediately (still async via the queue so that
    // callers never re-enter themselves synchronously). The start event fires
    // first so observers that pair start/complete state stay consistent.
    f.completed = true;
    f.completed_at = sim_->now();
    f.reported_bytes = f.spec.size.count();
    ++flows_completed_;
    bytes_delivered_ += f.spec.size;
    for (auto* obs : observers_) {
      obs->on_flow_started(*this, id, sim_->now());
    }
    sim_->after(util::Duration::zero(), [this, slot] {
      const FlowId done{slot};
      for (auto* obs : observers_) {
        obs->on_flow_completed(*this, done, sim_->now());
      }
      auto fn = std::move(callbacks_[slot]);
      callbacks_[slot] = nullptr;
      if (fn) fn(done, sim_->now());
      release_slot(slot);
    });
    return id;
  }

  assert(!f.spec.path.empty() && "a non-local flow needs a link path");
  active_pos_[slot] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(id);
  for (LinkId l : f.spec.path) {
    insert_link_flow(l, id);
    mark_dirty(l);
  }
  arena_admit(slot);
  settle_and_recompute();
  for (auto* obs : observers_) {
    obs->on_flow_started(*this, id, sim_->now());
  }
  return id;
}

void Fabric::set_flow_weight(FlowId id, double weight) {
  assert(id.value() < flows_.size());
  assert(weight > 0.0);
  Flow& f = flows_[id.value()];
  if (f.completed || f.spec.weight == weight) return;
  settle();
  f.spec.weight = weight;
  arena_weight_[id.value()] = weight;
  for (LinkId l : f.spec.path) mark_dirty(l);
  after_mutation();
}

void Fabric::reroute_flow(FlowId id, std::vector<LinkId> new_path) {
  assert(id.value() < flows_.size());
  Flow& f = flows_[id.value()];
  if (f.completed) return;
  assert(topo_->validate_path(f.spec.src, f.spec.dst, new_path) &&
         "reroute path must connect the flow's endpoints");
  settle();  // account bytes moved on the old path first
  for (LinkId l : f.spec.path) {
    remove_link_flow(l, id);
    mark_dirty(l);
  }
  free_path_row(id.value());
  f.spec.path = std::move(new_path);
  for (LinkId l : f.spec.path) {
    insert_link_flow(l, id);
    mark_dirty(l);
  }
  arena_admit(id.value());
  after_mutation();
}

CbrId Fabric::start_cbr(std::vector<LinkId> path, util::BitsPerSec rate) {
  assert(rate.bps() >= 0.0);
  const CbrId id{static_cast<std::uint32_t>(cbrs_.size())};
  for (LinkId l : path) {
    assert(l.value() < cbr_load_bps_.size());
    cbr_load_bps_[l.value()] += rate.bps();
    mark_dirty(l);
  }
  cbrs_.push_back(CbrStream{std::move(path), rate.bps(), true});
  settle_and_recompute();
  return id;
}

void Fabric::stop_cbr(CbrId id) {
  assert(id.value() < cbrs_.size());
  CbrStream& s = cbrs_[id.value()];
  assert(s.active && "CBR stream already stopped");
  for (LinkId l : s.path) {
    cbr_load_bps_[l.value()] -= s.rate_bps;
    if (cbr_load_bps_[l.value()] < 0.0) cbr_load_bps_[l.value()] = 0.0;
    mark_dirty(l);
  }
  s.active = false;
  settle_and_recompute();
}

util::BitsPerSec Fabric::link_cbr_load(LinkId l) const {
  return util::BitsPerSec{cbr_load_bps_[l.value()]};
}

util::BitsPerSec Fabric::link_elastic_rate(LinkId l) const {
  return util::BitsPerSec{elastic_rate_bps_[l.value()]};
}

util::BitsPerSec Fabric::link_class_rate(LinkId l, FlowClass cls) const {
  return util::BitsPerSec{
      class_rate_bps_[l.value()][static_cast<std::size_t>(cls)]};
}

double Fabric::link_utilization(LinkId l) const {
  if (!link_up_[l.value()]) return 0.0;  // a dead port serves nothing
  const double cap = topo_->link(l).capacity.bps();
  if (cap <= 0.0) return 0.0;
  const double used =
      std::min(cbr_load_bps_[l.value()], cap) + elastic_rate_bps_[l.value()];
  return std::clamp(used / cap, 0.0, 1.0);
}

util::BitsPerSec Fabric::link_residual_capacity(LinkId l) const {
  return util::BitsPerSec{elastic_headroom(l.value())};
}

void Fabric::fail_link(LinkId l) {
  assert(l.value() < link_up_.size());
  if (!link_up_[l.value()]) return;
  link_up_[l.value()] = 0;
  mark_dirty(l);
  settle_and_recompute();
}

void Fabric::restore_link(LinkId l) {
  assert(l.value() < link_up_.size());
  if (link_up_[l.value()]) return;
  link_up_[l.value()] = 1;
  mark_dirty(l);
  settle_and_recompute();
}

const Flow& Fabric::flow(FlowId id) const {
  assert(id.value() < flows_.size());
  return flows_[id.value()];
}

std::span<const LinkId> Fabric::flow_path(FlowId id) const {
  assert(id.value() < flows_.size());
  const std::uint32_t slot = id.value();
  const std::uint32_t off = path_off_[slot];
  assert((off != kNoPos || path_len_[slot] == 0) &&
         "stale FlowId: arena path row was recycled");
  if (off == kNoPos) return {};
  return {path_pool_.data() + off, path_len_[slot]};
}

bool Fabric::flow_active(FlowId id) const {
  return id.value() < flows_.size() && !flows_[id.value()].completed;
}

std::vector<FlowId> Fabric::active_flows() const {
  std::vector<FlowId> out = active_;
  std::sort(out.begin(), out.end(),
            [](FlowId a, FlowId b) { return a.value() < b.value(); });
  return out;
}

void Fabric::settle() {
  const util::SimTime now = sim_->now();
  const util::Duration dt = now - last_settle_;
  if (dt <= util::Duration::zero()) {
    last_settle_ = now;
    return;
  }
  ++counters_.settles;
  const double secs = dt.seconds();
  for (FlowId id : active_) {
    Flow& f = flows_[id.value()];
    const double moved =
        std::min(f.remaining_bytes, f.rate.bytes_per_sec() * secs);
    if (moved > 0.0) f.remaining_bytes -= moved;
    // Report integer bytes with a carried fractional residue: observers see
    // floor(delivered) cumulatively and exactly spec.size once the flow is
    // done, so probe totals never drift from the delivered volume.
    const std::int64_t target =
        f.remaining_bytes <= kDoneEpsilonBytes
            ? f.spec.size.count()
            : static_cast<std::int64_t>(f.spec.size.as_double() -
                                        f.remaining_bytes);
    const std::int64_t whole = target - f.reported_bytes;
    if (whole > 0) {
      f.reported_bytes = target;
      for (auto* obs : observers_) {
        obs->on_bytes_moved(*this, id, util::Bytes{whole}, last_settle_, now);
      }
    }
  }
  last_settle_ = now;
}

void Fabric::recompute_rates() {
  ++counters_.recomputes;
  if (dirty_links_.empty()) return;  // probe-forced accounting point
  collect_component();
  clear_dirty();
  fill_component();
}

void Fabric::after_mutation() {
  recompute_rates();
  schedule_next_completion();
}

void Fabric::collect_component() {
  // Exact flow-connected component of the dirty links: a BFS over the
  // flow<->link bipartite graph. Any flow crossing a collected link, and any
  // link such a flow crosses, can see its allocation change; everything
  // outside the component provably cannot (max-min decomposes exactly over
  // connected components). Dirty links that carry no flow any more stay in
  // the component, so the fill zeroes their elastic and class rates.
  //
  // Link membership is a bitset; flow membership an epoch stamp. Visiting a
  // link sums its unfixed weight and count over link_flows_ (ascending flow
  // id, the oracle's accumulation order), so the fill never walks the index
  // to initialise. Most (link, flow) entries name a flow already collected,
  // unpredictably, so flows are queued branch-free: the slot is always
  // written and the queue length advances only for a fresh one. comp_links_
  // is the link queue, then the bitset's word-by-word readout: ascending
  // link order without a comparison sort, which the fill's
  // first-rank-at-min tie-break needs. Both buffers keep one spare entry
  // for the branch-free write.
  ++comp_epoch_;
  comp_links_.resize(link_flows_.size() + 1);
  comp_flows_.resize(flows_.size() + 1);
  std::uint32_t* links = comp_links_.data();
  std::uint32_t* flows = comp_flows_.data();
  std::size_t nl = 0;
  std::size_t nf = 0;
  std::size_t lo_word = comp_bits_.size();
  std::size_t hi_word = 0;
  auto visit = [&](std::uint32_t l) {
    const std::size_t w = l / 64;
    const std::uint64_t bit = std::uint64_t{1} << (l % 64);
    if (comp_bits_[w] & bit) return;
    comp_bits_[w] |= bit;
    links[nl++] = l;
    lo_word = std::min(lo_word, w);
    hi_word = std::max(hi_word, w);
  };
  for (std::uint32_t l : dirty_links_) visit(l);
  std::size_t link_head = 0;
  std::size_t flow_head = 0;
  while (link_head < nl) {
    for (; link_head < nl; ++link_head) {
      const std::uint32_t l = links[link_head];
      double weight = 0.0;
      for (FlowId fid : link_flows_[l]) {
        const std::uint32_t slot = fid.value();
        weight += arena_weight_[slot];
        const bool fresh = flow_mark_[slot] != comp_epoch_;
        flow_mark_[slot] = comp_epoch_;
        flows[nf] = slot;
        nf += fresh ? 1 : 0;
      }
      unfixed_weight_[l] = weight;
      unfixed_count_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
    }
    for (; flow_head < nf; ++flow_head) {
      const std::uint32_t slot = flows[flow_head];
      const LinkId* path = path_pool_.data() + path_off_[slot];
      for (std::uint32_t i = 0; i < path_len_[slot]; ++i) {
        visit(path[i].value());
      }
    }
  }
  comp_flows_.resize(nf);
  std::size_t n = 0;
  for (std::size_t w = lo_word; w <= hi_word && w < comp_bits_.size(); ++w) {
    std::uint64_t bits = comp_bits_[w];
    comp_bits_[w] = 0;
    while (bits != 0) {
      links[n++] = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
  comp_links_.resize(n);
  counters_.links_touched += comp_links_.size();
  counters_.flows_touched += comp_flows_.size();
  if (comp_links_.size() == link_flows_.size()) ++counters_.full_fills;
}

void Fabric::fill_component() {
  // Weighted progressive filling over the collected component: repeatedly
  // saturate the link with the smallest fair share per unit weight, freeze
  // its flows at weight x share, and subtract them everywhere. Weight 1 on
  // every flow degenerates to the classic max-min allocation. Flow data is
  // read from the dense arena mirrors (weights, classes, path rows) and the
  // per-round bottleneck search is flattened into a rank-indexed share
  // array. Links that empty out are parked at +inf, so the scan is a pure
  // branch-free min over contiguous doubles — the compiler vectorizes it —
  // and a second pass recovers the first rank holding the min, which is
  // exactly the link a strict `share < best` scan over ascending link ids
  // would pick (ranks follow comp_links_ order). Every share that feeds
  // arithmetic is still residual / max(weight, 1e-12), so allocations stay
  // bit-identical to the whole-fabric fill in tests/net/fabric_oracle.hpp.
  const std::size_t n = comp_links_.size();
  share_dense_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t l = comp_links_[r];
    link_rank_[l] = static_cast<std::uint32_t>(r);
    elastic_rate_bps_[l] = 0.0;
    class_rate_bps_[l].fill(0.0);
    residual_[l] = elastic_headroom(l);
    share_dense_[r] =
        unfixed_count_[l] == 0
            ? std::numeric_limits<double>::infinity()
            : residual_[l] / std::max(unfixed_weight_[l], 1e-12);
  }
  for (std::uint32_t slot : comp_flows_) flow_fixed_[slot] = 0;

  std::size_t remaining_flows = comp_flows_.size();
  touched_links_.clear();
  while (remaining_flows > 0) {
    // Pass 1: plain min over the dense share array. min is associative and
    // commutative here (no NaNs, and shares are never negative zero, so
    // evaluation order cannot change the value) — four independent chains
    // hide the minsd latency. Pass 2: first rank at the min, which is the
    // link a strict `share < best` scan would pick (ranks follow
    // comp_links_ order).
    const double* shares = share_dense_.data();
    double m0 = std::numeric_limits<double>::infinity();
    double m1 = m0;
    double m2 = m0;
    double m3 = m0;
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      m0 = std::min(m0, shares[r]);
      m1 = std::min(m1, shares[r + 1]);
      m2 = std::min(m2, shares[r + 2]);
      m3 = std::min(m3, shares[r + 3]);
    }
    for (; r < n; ++r) m0 = std::min(m0, shares[r]);
    double best_share = std::min(std::min(m0, m1), std::min(m2, m3));
    std::size_t best_rank = 0;
    while (shares[best_rank] != best_share) ++best_rank;
    const std::uint32_t best_link = comp_links_[best_rank];
    assert(unfixed_count_[best_link] > 0);
    if (best_share < 0.0) best_share = 0.0;

    // Freeze every unfixed flow crossing the bottleneck (ascending by id —
    // the order the oracle visits them).
    for (FlowId fid : link_flows_[best_link]) {
      const std::uint32_t slot = fid.value();
      if (flow_fixed_[slot]) continue;
      const double w = arena_weight_[slot];
      const double rate = best_share * w;
      set_rate(slot, rate);
      flow_fixed_[slot] = 1;
      --remaining_flows;
      const std::uint32_t off = path_off_[slot];
      const std::uint32_t len = path_len_[slot];
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t lv = path_pool_[off + i].value();
        residual_[lv] = std::max(0.0, residual_[lv] - rate);
        unfixed_weight_[lv] = std::max(0.0, unfixed_weight_[lv] - w);
        assert(unfixed_count_[lv] > 0);
        --unfixed_count_[lv];
        // Share refresh is deferred below: nothing reads share_dense_ until
        // the next round's min pass, and the refreshed value is a pure
        // function of the final residual_/unfixed_weight_, so one division
        // per touched link replaces one per (flow, link) touch without
        // moving a single bit of the result.
        if (!link_touched_[lv]) {
          link_touched_[lv] = 1;
          touched_links_.push_back(lv);
        }
      }
    }

    for (std::uint32_t lv : touched_links_) {
      link_touched_[lv] = 0;
      share_dense_[link_rank_[lv]] =
          unfixed_count_[lv] == 0
              ? std::numeric_limits<double>::infinity()
              : residual_[lv] / std::max(unfixed_weight_[lv], 1e-12);
    }
    touched_links_.clear();
  }

  for (std::uint32_t l : comp_links_) {
    for (FlowId fid : link_flows_[l]) {
      const std::uint32_t slot = fid.value();
      const double r = arena_rate_bps_[slot];
      elastic_rate_bps_[l] += r;
      class_rate_bps_[l][arena_cls_[slot]] += r;
    }
  }
}

void Fabric::set_rate(std::uint32_t slot, double rate_bps) {
  // The mirror always equals flows_[slot].rate, so the no-change test can
  // stay on the dense 8-byte-per-slot array — refreezing a flow at its old
  // rate (the common case) never faults in the cold Flow record.
  if (arena_rate_bps_[slot] == rate_bps) return;
  Flow& f = flows_[slot];
  f.rate = util::BitsPerSec{rate_bps};
  arena_rate_bps_[slot] = rate_bps;
  push_eta(slot, f);
}

void Fabric::push_eta(std::uint32_t slot, const Flow& f) {
  if (f.rate.bps() <= 0.0) {
    arena_eta_ns_[slot] = -1;  // starved: re-examined on the next change
    return;
  }
  // Ceil to the next nanosecond so the settled remainder at the event is
  // never still above the epsilon. Deadlines anchor at last_settle_, the
  // instant the remaining volume was settled to (rates change only right
  // after a settle).
  const double secs = f.remaining_bytes / f.rate.bytes_per_sec();
  arena_eta_ns_[slot] =
      last_settle_.ns() + static_cast<std::int64_t>(std::ceil(secs * 1e9));
}

void Fabric::schedule_next_completion() {
  // Dense min over the active set; a flat 8-byte-per-flow scan beats heap
  // maintenance once most rates change on every fill. The min alone decides
  // the event time, so no ordering state needs maintaining.
  std::int64_t eta = -1;
  for (FlowId id : active_) {
    const std::int64_t e = arena_eta_ns_[id.value()];
    if (e >= 0 && (eta < 0 || e < eta)) eta = e;
  }
  if (eta < 0) {
    completion_event_.cancel();
    scheduled_eta_ns_ = -1;
    return;
  }
  if (eta == scheduled_eta_ns_ && completion_event_.valid() &&
      !completion_event_.cancelled()) {
    return;  // already armed for this instant
  }
  completion_event_.cancel();
  scheduled_eta_ns_ = eta;
  completion_event_ =
      sim_->at(util::SimTime{eta}, [this] { on_completion_event(); });
}

void Fabric::complete_flow(std::uint32_t slot) {
  Flow& f = flows_[slot];
  const std::uint32_t pos = active_pos_[slot];
  assert(pos != kNoPos);
  active_[pos] = active_.back();
  active_pos_[active_.back().value()] = pos;
  active_.pop_back();
  active_pos_[slot] = kNoPos;
  for (LinkId l : f.spec.path) {
    remove_link_flow(l, f.id);
    mark_dirty(l);
  }
  arena_rate_bps_[slot] = 0.0;
  arena_eta_ns_[slot] = -1;
  f.completed = true;
  f.completed_at = sim_->now();
  f.remaining_bytes = 0.0;
  f.rate = util::BitsPerSec::zero();
  ++flows_completed_;
  bytes_delivered_ += f.spec.size;
  PYTHIA_LOG(kDebug, "fabric")
      << "flow " << slot << " completed at " << sim_->now().seconds() << "s ("
      << f.spec.size.count() << " bytes)";
}

void Fabric::on_completion_event() {
  scheduled_eta_ns_ = -1;
  settle();
  ++counters_.completion_events;
  const std::int64_t now_ns = sim_->now().ns();
  // Collect finished flows first: callbacks may start new flows, which
  // mutates active_ and triggers nested recomputes.
  std::vector<FlowId> done;
  // Scan the dense deadline array for due flows, then process in
  // (eta, slot) order.
  due_slots_.clear();
  for (FlowId id : active_) {
    const std::uint32_t slot = id.value();
    const std::int64_t e = arena_eta_ns_[slot];
    if (e >= 0 && e <= now_ns) due_slots_.push_back(slot);
  }
  std::sort(due_slots_.begin(), due_slots_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (arena_eta_ns_[a] != arena_eta_ns_[b]) {
                return arena_eta_ns_[a] < arena_eta_ns_[b];
              }
              return a < b;
            });
  for (std::uint32_t slot : due_slots_) {
    Flow& f = flows_[slot];
    if (f.remaining_bytes > kDoneEpsilonBytes) {
      push_eta(slot, f);  // defensive: deadline drifted, re-arm
      continue;
    }
    done.push_back(f.id);
    complete_flow(slot);
  }
  recompute_rates();
  schedule_next_completion();
  // Observer + user callbacks run after the fabric is consistent.
  for (FlowId id : done) {
    for (auto* obs : observers_) {
      obs->on_flow_completed(*this, id, sim_->now());
    }
  }
  for (FlowId id : done) {
    auto fn = std::move(callbacks_[id.value()]);
    callbacks_[id.value()] = nullptr;
    if (fn) fn(id, sim_->now());
  }
  // Slots recycle only after the whole batch has run its callbacks, so a
  // callback-started flow can never shadow a not-yet-notified sibling.
  for (FlowId id : done) release_slot(id.value());
}

void Fabric::settle_and_recompute() {
  settle();
  after_mutation();
}

void Fabric::encode_counters(sim::StateEncoder& enc) const {
  // Fill work counters: deterministic, but observability rather than
  // behaviour (how much state a fill touches is an implementation detail),
  // which is why this lives in its own snapshot section the cross-arm
  // bisection skips.
  enc.put_u64(counters_.recomputes);
  enc.put_u64(counters_.full_fills);
  enc.put_u64(counters_.links_touched);
  enc.put_u64(counters_.flows_touched);
  enc.put_u64(counters_.completion_events);
  enc.put_u64(counters_.settles);
}

void Fabric::encode_state(sim::StateEncoder& enc) const {
  enc.put_u64(flows_started_);
  enc.put_u64(flows_completed_);
  enc.put_i64(bytes_delivered_.count());
  enc.put_time(last_settle_);
  enc.put_i64(scheduled_eta_ns_);

  const auto active = active_flows();  // ascending by id
  enc.put_u32(static_cast<std::uint32_t>(active.size()));
  for (FlowId id : active) {
    const Flow& f = flows_[id.value()];
    enc.put_u32(id.value());
    enc.put_u32(f.spec.src.value());
    enc.put_u32(f.spec.dst.value());
    enc.put_i64(f.spec.size.count());
    enc.put_u8(static_cast<std::uint8_t>(f.spec.cls));
    enc.put_f64(f.spec.weight);
    enc.put_u32(f.spec.tuple.src_ip);
    enc.put_u32(f.spec.tuple.dst_ip);
    enc.put_u32(f.spec.tuple.src_port);
    enc.put_u32(f.spec.tuple.dst_port);
    enc.put_u8(f.spec.tuple.proto);
    enc.put_u32(static_cast<std::uint32_t>(f.spec.path.size()));
    for (LinkId l : f.spec.path) enc.put_u32(l.value());
    enc.put_time(f.started);
    enc.put_f64(f.remaining_bytes);
    enc.put_f64(f.rate.bps());
    enc.put_i64(f.reported_bytes);
  }

  enc.put_u32(static_cast<std::uint32_t>(cbrs_.size()));
  for (const CbrStream& cbr : cbrs_) {
    enc.put_bool(cbr.active);
    enc.put_f64(cbr.rate_bps);
    enc.put_u32(static_cast<std::uint32_t>(cbr.path.size()));
    for (LinkId l : cbr.path) enc.put_u32(l.value());
  }

  enc.put_u32(static_cast<std::uint32_t>(topo_->link_count()));
  for (std::size_t l = 0; l < topo_->link_count(); ++l) {
    enc.put_bool(link_up_[l] != 0);
    enc.put_f64(cbr_load_bps_[l]);
    enc.put_f64(elastic_rate_bps_[l]);
    for (double cls_rate : class_rate_bps_[l]) enc.put_f64(cls_rate);
  }
}

}  // namespace pythia::net

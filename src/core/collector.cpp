#include "core/collector.hpp"

#include <algorithm>

#include "core/allocator.hpp"
#include "core/watchdog.hpp"
#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::core {

Collector::Collector(sim::Simulation& sim, Allocator& allocator,
                     CollectorConfig cfg)
    : sim_(&sim), allocator_(&allocator), cfg_(cfg) {}

void Collector::purge_expired() {
  if (cfg_.intent_ttl <= util::Duration::zero()) return;
  const util::SimTime now = sim_->now();
  if (now < next_expiry_) return;

  next_expiry_ = util::SimTime::max();
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    auto& held = it->second;
    std::erase_if(held, [&](const HeldIntent& h) {
      if (now - h.held_at >= cfg_.intent_ttl) {
        ++expired_;
        return true;
      }
      next_expiry_ = std::min(next_expiry_, h.held_at + cfg_.intent_ttl);
      return false;
    });
    it = held.empty() ? waiting_.erase(it) : ++it;
  }
}

void Collector::ingest(const ShuffleIntent& intent) {
  ++received_;
  if (watchdog_ != nullptr) watchdog_->note_notification(sim_->now());
  purge_expired();
  const ReducerKey key{intent.job_serial, intent.reduce_index};
  const auto located = reducer_location_.find(key);
  if (located == reducer_location_.end()) {
    // Destination unknown until the reducer initializes (paper §III).
    waiting_[key].push_back(HeldIntent{intent, sim_->now()});
    ++held_;
    if (cfg_.intent_ttl > util::Duration::zero()) {
      next_expiry_ = std::min(next_expiry_, sim_->now() + cfg_.intent_ttl);
    }
    return;
  }
  enqueue_update(intent.src_server, located->second,
                 intent.predicted_wire_bytes);
}

void Collector::reducer_located(std::size_t job_serial,
                                std::size_t reduce_index,
                                net::NodeId server) {
  if (watchdog_ != nullptr) watchdog_->note_notification(sim_->now());
  purge_expired();
  const ReducerKey key{job_serial, reduce_index};
  reducer_location_[key] = server;
  const auto it = waiting_.find(key);
  if (it == waiting_.end()) return;
  for (const auto& held : it->second) {
    enqueue_update(held.intent.src_server, server,
                   held.intent.predicted_wire_bytes);
  }
  waiting_.erase(it);
}

void Collector::job_completed(std::size_t job_serial) {
  const ReducerKey lo{job_serial, 0};
  const ReducerKey hi{job_serial + 1, 0};
  for (auto it = waiting_.lower_bound(lo);
       it != waiting_.end() && it->first.job_serial == job_serial;) {
    purged_on_completion_ += it->second.size();
    it = waiting_.erase(it);
  }
  reducer_location_.erase(reducer_location_.lower_bound(lo),
                          reducer_location_.lower_bound(hi));
}

std::size_t Collector::intents_waiting() const {
  std::size_t total = 0;
  for (const auto& [_, held] : waiting_) total += held.size();
  return total;
}

const std::vector<PredictionPoint>& Collector::predicted_curve(
    net::NodeId server) const {
  const auto it = curves_.find(server);
  return it == curves_.end() ? empty_curve_ : it->second;
}

void Collector::enqueue_update(net::NodeId src, net::NodeId dst,
                               util::Bytes wire) {
  if (src == dst) return;  // server-local copy, never touches the network
  auto& total = predicted_totals_[src];
  total += wire.count();
  auto& curve = curves_[src];
  if (!curve.empty() && curve.back().at == sim_->now()) {
    curve.back().cumulative = util::Bytes{total};
  } else {
    curve.push_back(PredictionPoint{sim_->now(), util::Bytes{total}});
  }
  const auto key = std::pair{src.value(), dst.value()};
  pair_seen_[key] = true;
  dst_outstanding_[dst] += wire.count();
  auto& pending = batch_[key];
  pending.bytes += wire.count();
  pending.intents += 1;
  if (!flush_pending_) {
    flush_pending_ = true;
    sim_->after(cfg_.batch_window, [this] { flush_batch(); });
  }
}

void Collector::flush_batch() {
  flush_pending_ = false;
  if (batch_.empty()) return;
  ++batches_;

  // First-fit decreasing. With criticality on, the primary sort key is the
  // destination server's total outstanding predicted volume: aggregates
  // feeding the barrier-critical reducer are packed first and get the best
  // paths (the criterion the paper adds over FlowComb's volumes-only view).
  std::vector<
      std::pair<std::pair<std::uint32_t, std::uint32_t>, PendingUpdate>>
      updates(batch_.begin(), batch_.end());
  batch_.clear();
  std::sort(updates.begin(), updates.end(), [this](const auto& a,
                                                   const auto& b) {
    if (cfg_.criticality_aware) {
      const auto crit = [this](const auto& u) {
        const auto it = dst_outstanding_.find(net::NodeId{u.first.second});
        return it == dst_outstanding_.end() ? std::int64_t{0} : it->second;
      };
      const std::int64_t ca = crit(a);
      const std::int64_t cb = crit(b);
      if (ca != cb) return ca > cb;
    }
    if (a.second.bytes != b.second.bytes) return a.second.bytes > b.second.bytes;
    return a.first < b.first;
  });
  for (const auto& [pair, pending] : updates) {
    allocator_->add_predicted_volume(net::NodeId{pair.first},
                                     net::NodeId{pair.second},
                                     util::Bytes{pending.bytes},
                                     pending.intents);
  }
}

void Collector::fetch_completed(net::NodeId src_server, net::NodeId dst_server,
                                util::Bytes payload) {
  if (src_server == dst_server) return;
  // Retire the wire-volume estimate this fetch contributed when predicted.
  const util::Bytes wire = retire_model_.predict_wire_bytes(payload);
  allocator_->retire_volume(src_server, dst_server, wire);
  auto& dst_total = dst_outstanding_[dst_server];
  // Actual wire bytes can exceed what was predicted (the prediction may have
  // been lost in transit, or under-estimated under skew); clamp at zero so
  // the criticality proxy never goes negative, and count the desync.
  if (dst_total < wire.count()) ++underflows_;
  dst_total = std::max<std::int64_t>(0, dst_total - wire.count());
}

util::Bytes Collector::destination_outstanding(net::NodeId dst) const {
  const auto it = dst_outstanding_.find(dst);
  return it == dst_outstanding_.end() ? util::Bytes::zero()
                                      : util::Bytes{it->second};
}

util::Bytes Collector::mean_destination_outstanding() const {
  std::int64_t total = 0;
  std::int64_t live = 0;
  // pythia-lint: allow(unordered-iter) commutative integer sum/count over
  // all entries; order-insensitive by construction
  for (const auto& [_, bytes] : dst_outstanding_) {
    if (bytes <= 0) continue;
    total += bytes;
    ++live;
  }
  return live == 0 ? util::Bytes::zero() : util::Bytes{total / live};
}

void Collector::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(reducer_location_.size()));
  for (const auto& [key, server] : reducer_location_) {
    enc.put_u64(key.job_serial);
    enc.put_u64(key.reduce_index);
    enc.put_u32(server.value());
  }

  enc.put_u32(static_cast<std::uint32_t>(waiting_.size()));
  for (const auto& [key, held] : waiting_) {
    enc.put_u64(key.job_serial);
    enc.put_u64(key.reduce_index);
    enc.put_u32(static_cast<std::uint32_t>(held.size()));
    for (const HeldIntent& h : held) {
      enc.put_u64(h.intent.job_serial);
      enc.put_u64(h.intent.map_index);
      enc.put_u64(h.intent.reduce_index);
      enc.put_u32(h.intent.src_server.value());
      enc.put_i64(h.intent.predicted_wire_bytes.count());
      enc.put_time(h.intent.emitted_at);
      enc.put_time(h.held_at);
    }
  }
  enc.put_time(next_expiry_);

  enc.put_u32(static_cast<std::uint32_t>(pair_seen_.size()));
  for (const auto& [pair, seen] : pair_seen_) {
    enc.put_u32(pair.first);
    enc.put_u32(pair.second);
    enc.put_bool(seen);
  }

  auto encode_node_map = [&enc](const auto& map, auto&& encode_value) {
    std::vector<std::uint32_t> nodes;
    nodes.reserve(map.size());
    // Key collection only (the generic param hides the unordered type from
    // pythia-lint); order is fixed by the sort below.
    for (const auto& [node, value] : map) nodes.push_back(node.value());
    std::sort(nodes.begin(), nodes.end());
    enc.put_u32(static_cast<std::uint32_t>(nodes.size()));
    for (std::uint32_t n : nodes) {
      enc.put_u32(n);
      encode_value(map.at(net::NodeId{n}));
    }
  };
  encode_node_map(dst_outstanding_,
                  [&enc](std::int64_t v) { enc.put_i64(v); });
  encode_node_map(curves_, [&enc](const std::vector<PredictionPoint>& curve) {
    enc.put_u32(static_cast<std::uint32_t>(curve.size()));
    for (const PredictionPoint& p : curve) {
      enc.put_time(p.at);
      enc.put_i64(p.cumulative.count());
    }
  });
  encode_node_map(predicted_totals_,
                  [&enc](std::int64_t v) { enc.put_i64(v); });

  enc.put_u64(received_);
  enc.put_u64(held_);
  enc.put_u64(batches_);
  enc.put_u64(expired_);
  enc.put_u64(purged_on_completion_);
  enc.put_u64(underflows_);

  enc.put_u32(static_cast<std::uint32_t>(batch_.size()));
  for (const auto& [pair, pending] : batch_) {
    enc.put_u32(pair.first);
    enc.put_u32(pair.second);
    enc.put_i64(pending.bytes);
    enc.put_u64(pending.intents);
  }
  enc.put_bool(flush_pending_);
}

}  // namespace pythia::core

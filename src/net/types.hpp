// Identifier and flow-descriptor types shared across the network stack.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace pythia::net {

/// Strongly typed 32-bit index; Tag distinguishes id spaces at compile time.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint32_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }
  [[nodiscard]] constexpr bool valid() const { return v_ != kInvalid; }
  friend constexpr auto operator<=>(Id, Id) = default;

  static constexpr std::uint32_t kInvalid =
      std::numeric_limits<std::uint32_t>::max();

 private:
  std::uint32_t v_ = kInvalid;
};

using NodeId = Id<struct NodeTag>;
using LinkId = Id<struct LinkTag>;
using FlowId = Id<struct FlowTag>;
using CbrId = Id<struct CbrTag>;

/// Index into a PathPool (net/routing.hpp); interned paths are immutable and
/// ids stay valid for the lifetime of the routing graph that minted them,
/// across every rebuild.
using PathId = Id<struct PathTag>;

/// Classic 5-tuple; ECMP hashes it, Pythia cannot know dst_port in advance
/// (paper §IV) which is why it aggregates at server granularity instead.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 6;  // TCP

  friend constexpr auto operator<=>(const FiveTuple&, const FiveTuple&) = default;
};

/// Traffic class carried by a flow; used by NetFlow filtering (the paper's
/// probes filter on the Hadoop shuffle port) and by scheduler bookkeeping.
enum class FlowClass : std::uint8_t { kShuffle, kBackground, kControl, kOther };

/// Well-known ports in the model, mirroring the Hadoop 1.x defaults.
inline constexpr std::uint16_t kShufflePort = 50060;   // tasktracker HTTP
inline constexpr std::uint16_t kCollectorPort = 9090;  // Pythia collector

}  // namespace pythia::net

template <typename Tag>
struct std::hash<pythia::net::Id<Tag>> {
  std::size_t operator()(pythia::net::Id<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

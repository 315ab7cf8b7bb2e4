// Wire formats for the runtime's control messages.
//
// ACTIVATE carries one or more activation records (aggregation, §4.3).
// Each record describes one produced flow a destination must fetch, plus
// the multicast-subtree ranks that destination is responsible for
// forwarding to once the data lands.  GET DATA carries the requester's
// receive registration; the put's remote-completion callback data carries
// the flow identity back.
//
// Decoders treat the bytes as untrusted: every count and length read from
// the wire is checked against the bytes that remain before it is used,
// and a message that does not decode exactly is rejected (std::nullopt)
// for the caller to drop and count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "ce/comm_engine.hpp"
#include "des/time.hpp"
#include "amt/config.hpp"
#include "amt/task_key.hpp"

namespace amt::wire {

// AM tags registered by the runtime.
inline constexpr ce::Tag kTagActivate = 0x10;
inline constexpr ce::Tag kTagGetData = 0x11;
inline constexpr ce::Tag kTagDataArrived = 0x12;  ///< put r_tag

/// Causal trace identity carried on every control message of a flow's
/// lifecycle.  `trace_id` names the flow (stable across multicast hops,
/// aggregation, and retransmission — it is derived from the root FlowKey);
/// `span_id` names one message leg and changes at each hop.  Rides inside
/// the runtime's wire payloads, which both CE backends and the reliable
/// sublayer treat as opaque bytes, so retransmissions resend the context
/// intact.
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct ActivationRecord {
  FlowKey flow;
  std::uint64_t size = 0;      ///< data bytes to fetch
  std::int32_t src_rank = -1;  ///< who holds the data (tree parent)
  double priority = 0.0;
  des::Time root_ts = 0;       ///< multicast-root send time (local clock)
  des::Time enqueue_ts = 0;    ///< when this hop queued the record (local)
  des::Time send_ts = 0;       ///< this hop's send time (local clock)
  std::uint8_t real = 0;       ///< 1 = data has real bytes (receiver
                               ///< allocates a real buffer)
  TraceCtx trace;              ///< causal identity of this ACTIVATE leg
  PathSums path;               ///< producer-chain sums (critical path)
  std::vector<std::int32_t> subtree;  ///< ranks this destination forwards to
};

namespace detail {

template <typename T>
void append(std::vector<std::byte>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t off = buf.size();
  buf.resize(off + sizeof v);
  std::memcpy(buf.data() + off, &v, sizeof v);
}

}  // namespace detail

inline std::size_t record_wire_size(const ActivationRecord& r) {
  return sizeof(FlowKey) + sizeof(std::uint64_t) + sizeof(std::int32_t) +
         sizeof(double) + 3 * sizeof(des::Time) + sizeof(std::uint8_t) +
         sizeof(TraceCtx) + sizeof(PathSums) +
         sizeof(std::uint16_t) + r.subtree.size() * sizeof(std::int32_t);
}

inline void pack_record(std::vector<std::byte>& buf,
                        const ActivationRecord& r) {
  detail::append(buf, r.flow);
  detail::append(buf, r.size);
  detail::append(buf, r.src_rank);
  detail::append(buf, r.priority);
  detail::append(buf, r.root_ts);
  detail::append(buf, r.enqueue_ts);
  detail::append(buf, r.send_ts);
  detail::append(buf, r.real);
  detail::append(buf, r.trace);
  detail::append(buf, r.path);
  detail::append(buf, static_cast<std::uint16_t>(r.subtree.size()));
  for (const auto rank : r.subtree) detail::append(buf, rank);
}

/// Packs `count` records preceded by a count header.
inline std::vector<std::byte> pack_activate(
    const std::vector<ActivationRecord>& records) {
  std::vector<std::byte> buf;
  detail::append(buf, static_cast<std::uint16_t>(records.size()));
  for (const auto& r : records) pack_record(buf, r);
  return buf;
}

/// Decodes a pack_activate message; std::nullopt when it is truncated,
/// a count or length overruns the bytes present, or bytes are left over.
inline std::optional<std::vector<ActivationRecord>> unpack_activate(
    const void* msg, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(msg);
  std::size_t left = size;
  const auto read = [&](auto& v) {  // checks the bytes remain first
    if (left < sizeof v) return false;
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    left -= sizeof v;
    return true;
  };
  std::uint16_t count = 0;
  if (!read(count)) return std::nullopt;
  // A corrupt count must not size the allocation: each record takes at
  // least its fixed part on the wire.
  std::vector<ActivationRecord> out;
  out.reserve(std::min<std::size_t>(
      count, left / record_wire_size(ActivationRecord{})));
  for (std::uint16_t c = 0; c < count; ++c) {
    ActivationRecord r;
    std::uint16_t n = 0;
    if (!read(r.flow) || !read(r.size) || !read(r.src_rank) ||
        !read(r.priority) || !read(r.root_ts) || !read(r.enqueue_ts) ||
        !read(r.send_ts) || !read(r.real) || !read(r.trace) ||
        !read(r.path) || !read(n) || left < n * sizeof(std::int32_t)) {
      return std::nullopt;
    }
    r.subtree.resize(n);
    for (auto& rank : r.subtree) read(rank);
    out.push_back(std::move(r));
  }
  if (left != 0) return std::nullopt;
  return out;
}

struct GetDataMsg {
  FlowKey flow;
  std::uint64_t rbase = 0;  ///< requester's registration (0 = virtual)
  std::uint64_t rsize = 0;
  des::Time send_ts = 0;    ///< requester's GET DATA send time (local clock)
  TraceCtx trace;           ///< causal identity of this GET DATA leg
};

struct DataArrivedMsg {
  FlowKey flow;
  des::Time put_ts = 0;     ///< holder's put-issue time (local clock)
  TraceCtx trace;           ///< causal identity of the data leg
};

/// Decodes a fixed-size message (GET DATA, DATA ARRIVED); std::nullopt
/// unless `size` is exactly sizeof(T).
template <typename T>
std::optional<T> unpack_pod(const void* msg, std::size_t size) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (size != sizeof(T)) return std::nullopt;
  T v;
  std::memcpy(&v, msg, sizeof v);
  return v;
}

}  // namespace amt::wire

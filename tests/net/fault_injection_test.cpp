// Deterministic fault injection in the fabric: config validation, byte
// conservation, per-link FIFO under duplication/drops/jitter, seeded
// reproducibility, corruption discipline, brownouts, NIC stalls, and
// crash accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "net/fabric.hpp"

namespace {

using des::Engine;
using net::Fabric;
using net::FabricConfig;
using net::Message;

// Round numbers: 10 GB/s links, 1 us wire latency, no hop cost, 10M msg/s.
FabricConfig simple_config() {
  FabricConfig cfg;
  cfg.link_bandwidth_Bps = 10e9;
  cfg.wire_latency = 1000;
  cfg.per_hop_latency = 0;
  cfg.nodes_per_switch = 1024;
  cfg.nic_msg_rate = 10e6;
  return cfg;
}

Message msg(net::NodeId src, net::NodeId dst, std::uint64_t bytes,
            std::uint64_t seq = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.wire_bytes = bytes;
  m.hdr.seq = seq;
  return m;
}

// ---------------------------------------------------------------------------
// Config validation

TEST(FabricValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(net::validate(FabricConfig{}));
}

TEST(FabricValidate, RejectsNanBandwidth) {
  FabricConfig cfg = simple_config();
  cfg.link_bandwidth_Bps = std::nan("");
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, RejectsZeroBandwidth) {
  FabricConfig cfg = simple_config();
  cfg.loopback_bandwidth_Bps = 0;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, RejectsNegativeLatency) {
  FabricConfig cfg = simple_config();
  cfg.wire_latency = -1;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, RejectsZeroNodesPerSwitch) {
  FabricConfig cfg = simple_config();
  cfg.nodes_per_switch = 0;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, RejectsOutOfRangeProbability) {
  FabricConfig cfg = simple_config();
  cfg.faults.drop_prob = 1.5;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
  cfg.faults.drop_prob = -0.1;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, RejectsNegativeFaultWindow) {
  FabricConfig cfg = simple_config();
  cfg.faults.spike_max = -5;
  EXPECT_THROW(net::validate(cfg), std::invalid_argument);
}

TEST(FabricValidate, ErrorNamesTheField) {
  FabricConfig cfg = simple_config();
  cfg.faults.corrupt_prob = 2.0;
  try {
    net::validate(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt_prob"), std::string::npos);
  }
}

TEST(FabricValidate, ConstructorRejectsBadConfigAndNodeCount) {
  Engine eng;
  FabricConfig bad = simple_config();
  bad.nic_msg_rate = -1;
  EXPECT_THROW(Fabric(eng, 2, bad), std::invalid_argument);
  EXPECT_THROW(Fabric(eng, 0, simple_config()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault mechanics

TEST(FaultInjection, OffByDefaultAndStatsZero) {
  Engine eng;
  Fabric fab(eng, 2, simple_config());
  EXPECT_FALSE(fab.config().faults.any());
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  for (int i = 0; i < 50; ++i) fab.nic(0).send(msg(0, 1, 1000));
  eng.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(fab.fault_stats().drops, 0u);
  EXPECT_EQ(fab.fault_stats().dups, 0u);
  EXPECT_EQ(fab.fault_stats().corruptions, 0u);
}

TEST(FaultInjection, BytesConservedUnderDropAndDup) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.drop_prob = 0.2;
  cfg.faults.dup_prob = 0.2;
  cfg.faults.jitter_max = 500;
  Fabric fab(eng, 4, cfg);
  for (int n = 0; n < 4; ++n) {
    fab.nic(n).set_deliver_handler([](Message&&) {});
  }
  for (int i = 0; i < 200; ++i) {
    const int src = i % 4;
    const int dst = (i + 1 + i / 4) % 4;
    if (src == dst) continue;
    fab.nic(src).send(msg(src, dst, 64 + 97 * (i % 11)));
  }
  eng.run();
  const net::FaultStats& fs = fab.fault_stats();
  EXPECT_GT(fs.drops, 0u);
  EXPECT_GT(fs.dups, 0u);
  std::uint64_t received = 0;
  for (int n = 0; n < 4; ++n) received += fab.nic(n).stats().bytes_received;
  // Injected duplicates occupy the wire like any frame, so they are part
  // of the fabric totals: every counted byte is either delivered or
  // accounted as dropped.  (dup_bytes still reports the injected volume.)
  EXPECT_EQ(received, fab.total_bytes() - fs.dropped_bytes);
  EXPECT_GT(fs.dup_bytes, 0u);
  EXPECT_LE(fs.dup_bytes, fab.total_bytes());
}

TEST(FaultInjection, FabricCountersReconcileUnderDupAndDrop) {
  // The fabric's own ledger must balance when fault injection is on:
  // every frame that entered the wire (originals + injected duplicates)
  // either reached a NIC or died as a counted drop.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.drop_prob = 0.1;
  cfg.faults.dup_prob = 0.3;
  Fabric fab(eng, 3, cfg);
  std::uint64_t delivered = 0;
  for (int n = 0; n < 3; ++n) {
    fab.nic(n).set_deliver_handler([&](Message&&) { ++delivered; });
  }
  const int kMsgs = 400;
  for (int i = 0; i < kMsgs; ++i) {
    const int src = i % 3;
    fab.nic(src).send(msg(src, (src + 1) % 3, 128 + 64 * (i % 5)));
  }
  eng.run();
  const net::FaultStats& fs = fab.fault_stats();
  ASSERT_GT(fs.dups, 0u);
  ASSERT_GT(fs.drops, 0u);
  EXPECT_EQ(fab.total_messages(),
            static_cast<std::uint64_t>(kMsgs) + fs.dups);
  EXPECT_EQ(fab.total_messages(), delivered + fs.drops);
  // The per-NIC receive ledger agrees with the handler count.
  std::uint64_t nic_received = 0;
  for (int n = 0; n < 3; ++n) {
    nic_received += fab.nic(n).stats().msgs_received;
  }
  EXPECT_EQ(nic_received, delivered);
}

TEST(FaultInjection, PerLinkFifoHoldsUnderDupDropAndJitter) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.drop_prob = 0.15;
  cfg.faults.dup_prob = 0.25;
  cfg.faults.jitter_max = 2000;
  Fabric fab(eng, 2, cfg);
  std::vector<std::uint64_t> seqs;
  fab.nic(1).set_deliver_handler(
      [&](Message&& m) { seqs.push_back(m.hdr.seq); });
  fab.nic(0).set_deliver_handler([](Message&&) {});
  const int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) {
    fab.nic(0).send(msg(0, 1, 256, static_cast<std::uint64_t>(i)));
  }
  eng.run();
  const net::FaultStats& fs = fab.fault_stats();
  EXPECT_EQ(seqs.size(),
            static_cast<std::size_t>(kMsgs) - fs.drops + fs.dups);
  // FIFO per link: the sequence is non-decreasing (an injected duplicate
  // trails its original immediately, never jumping ahead of later sends).
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_GE(seqs[i], seqs[i - 1]) << "reordered at index " << i;
  }
}

TEST(FaultInjection, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    Engine eng;
    FabricConfig cfg = simple_config();
    cfg.faults.seed = seed;
    cfg.faults.drop_prob = 0.1;
    cfg.faults.dup_prob = 0.1;
    cfg.faults.corrupt_prob = 0.1;
    cfg.faults.jitter_max = 1000;
    cfg.faults.spike_prob = 0.05;
    cfg.faults.spike_max = 10 * des::kMicrosecond;
    Fabric fab(eng, 3, cfg);
    std::vector<std::pair<std::uint64_t, des::Time>> log;
    for (int n = 0; n < 3; ++n) {
      fab.nic(n).set_deliver_handler(
          [&log, &eng](Message&& m) { log.emplace_back(m.hdr.seq, eng.now()); });
    }
    for (int i = 0; i < 120; ++i) {
      const int src = i % 3;
      fab.nic(src).send(
          msg(src, (src + 1) % 3, 128, static_cast<std::uint64_t>(i)));
    }
    eng.run();
    return std::make_tuple(log, fab.fault_stats().drops,
                           fab.fault_stats().dups,
                           fab.fault_stats().corruptions);
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b) << "identical seeds must give identical schedules";
  EXPECT_NE(std::get<0>(a), std::get<0>(c))
      << "different seeds should perturb the schedule";
}

TEST(FaultInjection, CorruptionFlipsExactlyOnePayloadBit) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.corrupt_prob = 1.0;
  Fabric fab(eng, 2, cfg);
  std::vector<std::byte> original(64);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::byte>(i * 7 + 1);
  }
  Message m = msg(0, 1, 64);
  m.payload = net::make_payload(original.data(), original.size());
  const net::PayloadPtr sender_copy = m.payload;  // sender keeps a reference
  net::PayloadPtr received;
  fab.nic(1).set_deliver_handler(
      [&](Message&& d) { received = d.payload; });
  fab.nic(0).send(std::move(m));
  eng.run();
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(fab.fault_stats().corruptions, 1u);
  int bits_flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>((*received)[i]) ^
                        static_cast<std::uint8_t>(original[i]);
    while (diff != 0) {
      bits_flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_flipped, 1);
  // The sender's buffer must not be touched (payloads are shared).
  EXPECT_EQ(*sender_copy, original);
}

TEST(FaultInjection, CorruptionOfVirtualPayloadHitsSpareImmediate) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.corrupt_prob = 1.0;
  Fabric fab(eng, 2, cfg);
  Message received;
  fab.nic(1).set_deliver_handler([&](Message&& d) { received = d; });
  Message m = msg(0, 1, 4096, 77);  // virtual payload: wire bytes only
  fab.nic(0).send(std::move(m));
  eng.run();
  // Routing and protocol fields are untouched; only imm[3] differs by one
  // bit, so a checksum detects the damage without breaking dispatch.
  EXPECT_EQ(received.hdr.seq, 77u);
  EXPECT_EQ(__builtin_popcountll(received.hdr.imm[3]), 1);
}

TEST(FaultInjection, BrownoutDropsEverythingInWindow) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.brownout_node = 1;
  cfg.faults.brownout_start = 10 * des::kMicrosecond;
  cfg.faults.brownout_duration = 100 * des::kMicrosecond;
  Fabric fab(eng, 3, cfg);
  int to_1 = 0, to_2 = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++to_1; });
  fab.nic(2).set_deliver_handler([&](Message&&) { ++to_2; });
  // Before the window: delivered.
  fab.nic(0).send(msg(0, 1, 64));
  // Inside the window: node 1 traffic eaten in both directions; node 2
  // unaffected.
  eng.schedule_at(20 * des::kMicrosecond, [&] {
    fab.nic(0).send(msg(0, 1, 64));
    fab.nic(1).send(msg(1, 2, 64));
    fab.nic(0).send(msg(0, 2, 64));
  });
  // After the window: delivered again.
  eng.schedule_at(200 * des::kMicrosecond,
                  [&] { fab.nic(0).send(msg(0, 1, 64)); });
  eng.run();
  EXPECT_EQ(to_1, 2);
  EXPECT_EQ(to_2, 1);
  EXPECT_EQ(fab.fault_stats().brownout_drops, 2u);
  EXPECT_EQ(fab.fault_stats().drops, 2u);  // brownouts count as drops
}

TEST(FaultInjection, StallFreezesEgressWindow) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.stall_node = 0;
  cfg.faults.stall_start = 0;
  cfg.faults.stall_duration = 50 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  des::Time delivered = -1;
  fab.nic(1).set_deliver_handler([&](Message&&) { delivered = eng.now(); });
  // 100000 B = 10 us serialization + 1 us latency, but egress can only
  // start once the stall window ends at 50 us.
  fab.nic(0).send(msg(0, 1, 100000));
  eng.run();
  EXPECT_EQ(delivered, 61 * des::kMicrosecond);
  EXPECT_EQ(fab.fault_stats().stalled_msgs, 1u);
}

TEST(FaultInjection, StallFreezesInFlightEgressMidTransfer) {
  // Regression: a transfer already on the wire when the stall window
  // opens used to keep transmitting straight through it.  100000 B
  // starts at t=0 (10 us serialization); the window [5 us, 55 us)
  // freezes the NIC mid-transfer, inserting the full 50 us: egress ends
  // at 60 us, delivery at 61 us.  Pre-fix delivery was 11 us.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.stall_node = 0;
  cfg.faults.stall_start = 5 * des::kMicrosecond;
  cfg.faults.stall_duration = 50 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  des::Time delivered = -1;
  fab.nic(1).set_deliver_handler([&](Message&&) { delivered = eng.now(); });
  fab.nic(0).send(msg(0, 1, 100000));
  eng.run();
  EXPECT_EQ(delivered, 61 * des::kMicrosecond);
  EXPECT_EQ(fab.fault_stats().stalled_msgs, 1u);
}

TEST(FaultInjection, StallFreezesIngressToo) {
  // A stalled NIC stops draining its receive port as well: a frame
  // arriving during node 1's stall window [5 us, 55 us) completes
  // reception only after the window ends.  Sent at 10 us (64 B, 100 ns
  // occupancy): nominal arrival 11.1 us, actual completion 55.1 us.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.stall_node = 1;
  cfg.faults.stall_start = 5 * des::kMicrosecond;
  cfg.faults.stall_duration = 50 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  des::Time delivered = -1;
  fab.nic(1).set_deliver_handler([&](Message&&) { delivered = eng.now(); });
  eng.schedule_at(10 * des::kMicrosecond,
                  [&] { fab.nic(0).send(msg(0, 1, 64)); });
  eng.run();
  EXPECT_EQ(delivered, 55 * des::kMicrosecond + 100);
  EXPECT_EQ(fab.fault_stats().stalled_msgs, 1u);
}

TEST(FaultInjection, BrownoutCatchesMessageQueuedBeforeButSentInWindow) {
  // Regression: brownout used to be judged at queue-entry time, so a
  // message parked behind a long transfer escaped a window it actually
  // transmitted inside.  A (90000 B) occupies egress [0, 9 us) and
  // finishes before the window [10 us, 110 us) — delivered.  B (64000
  // B), queued at t=0 behind A, transmits [9 us, 15.4 us) overlapping
  // the window — eaten.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.brownout_node = 0;
  cfg.faults.brownout_start = 10 * des::kMicrosecond;
  cfg.faults.brownout_duration = 100 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  fab.nic(0).send(msg(0, 1, 90000));
  fab.nic(0).send(msg(0, 1, 64000));
  eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(fab.fault_stats().brownout_drops, 1u);
}

TEST(FaultInjection, BrownoutCatchesArrivalInsideWindow) {
  // Destination-side brownout is judged at the modeled arrival time: a
  // 64 B frame sent at 9.5 us arrives at 10.6 us, inside node 1's
  // window [10 us, 110 us) — eaten, even though it was sent before the
  // window opened (the pre-fix escape).
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.brownout_node = 1;
  cfg.faults.brownout_start = 10 * des::kMicrosecond;
  cfg.faults.brownout_duration = 100 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  eng.schedule_at(9500, [&] { fab.nic(0).send(msg(0, 1, 64)); });
  eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fab.fault_stats().brownout_drops, 1u);
}

TEST(FaultInjection, BrownoutWindowBoundariesAreHalfOpen) {
  // Pin the boundary semantics: a transmission ending exactly at the
  // window start escapes, and one starting exactly at the window end
  // escapes — [start, end) on the source side, arrival in [start, end)
  // on the destination side.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.brownout_node = 0;
  cfg.faults.brownout_start = 10 * des::kMicrosecond;
  cfg.faults.brownout_duration = 100 * des::kMicrosecond;
  Fabric fab(eng, 2, cfg);
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  // 100000 B from t=0: egress exactly [0, 10 us) — last byte leaves as
  // the window opens; half-open means it escapes.
  fab.nic(0).send(msg(0, 1, 100000));
  // Egress starts exactly at the window end: escapes.
  eng.schedule_at(110 * des::kMicrosecond,
                  [&] { fab.nic(0).send(msg(0, 1, 64)); });
  eng.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(fab.fault_stats().brownout_drops, 0u);
}

TEST(FaultInjection, CrashMidIngressCountsTheCancelledFrame) {
  // Two 100000 B frames converge on node 1, so the second one's ingress
  // queues behind the first: its last byte is available at ~11 us
  // (before the 15 us crash, so the send-time test lets it through) but
  // its ingress ends at ~21 us, after the crash cancelled node 1's
  // pending events.  The cancelled frame must be counted as a crash drop
  // and its delivery slot returned.
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.crashes.push_back(net::CrashEvent{1, 15 * des::kMicrosecond, 0});
  Fabric fab(eng, 3, cfg);
  int delivered = 0;
  fab.nic(1).set_deliver_handler([&](Message&&) { ++delivered; });
  fab.nic(0).send(msg(0, 1, 100000));
  fab.nic(2).send(msg(2, 1, 100000));
  eng.run();
  const net::FaultStats& fs = fab.fault_stats();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(fs.crash_drops, 1u);
  EXPECT_EQ(fab.total_messages(),
            static_cast<std::uint64_t>(delivered) + fs.drops);
  EXPECT_EQ(fs.dropped_bytes, 100000u);
  EXPECT_EQ(fab.nic(1).pending_deliveries(), 0u);
}

TEST(FaultInjection, LoopbackIsNeverFaulted) {
  Engine eng;
  FabricConfig cfg = simple_config();
  cfg.faults.drop_prob = 1.0;
  cfg.faults.corrupt_prob = 1.0;
  Fabric fab(eng, 2, cfg);
  int delivered = 0;
  fab.nic(0).set_deliver_handler([&](Message&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) fab.nic(0).send(msg(0, 0, 512));
  eng.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(fab.fault_stats().drops, 0u);
  EXPECT_EQ(fab.fault_stats().corruptions, 0u);
}

}  // namespace

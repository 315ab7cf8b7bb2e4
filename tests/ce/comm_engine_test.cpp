// Cross-backend tests of the PaRSEC communication-engine API: every
// behavioural test runs against both the MPI backend (§4.2) and the LCI
// backend (§5.3) via a parameterized fixture, plus backend-specific tests
// for the mechanisms unique to each design.
#include "ce/comm_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ce/lci_backend.hpp"
#include "ce/mpi_backend.hpp"
#include "ce/put_protocol.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/poll_loop.hpp"
#include "des/sim_thread.hpp"
#include "net/fabric.hpp"

namespace ce {

/// Reads MpiBackend's transfer accounting and recounts it from the array.
struct MpiBackendTestPeer {
  static int counted(const MpiBackend& b) { return b.data_active_; }
  static int recounted(const MpiBackend& b) {
    int n = 0;
    for (const MpiBackend::Entry& e : b.entries_) {
      if (e.kind != MpiBackend::Entry::Kind::AmRecv) ++n;
    }
    return n;
  }
};

}  // namespace ce

namespace {

using ce::BackendKind;
using ce::CeConfig;
using ce::CommEngine;
using ce::CommWorld;
using ce::MemReg;
using ce::Tag;

constexpr Tag kActivate = 1;
constexpr Tag kGetData = 2;
constexpr Tag kPutDone = 3;

/// Test world: a fabric, a CommWorld, and one "communication thread"
/// (SimThread + PollLoop over progress()) per node, wired to the engine
/// wake callbacks — the same shape the AMT runtime uses.
struct CeWorld {
  des::Engine eng;
  net::Fabric fab;
  CommWorld world;
  std::vector<std::unique_ptr<des::SimThread>> threads;
  std::vector<std::unique_ptr<des::PollLoop>> loops;

  CeWorld(int nodes, BackendKind kind, CeConfig cfg = {},
          mmpi::Config mpi_cfg = {}, mlci::Config lci_cfg = {})
      : fab(eng, nodes), world(fab, kind, cfg, mpi_cfg, lci_cfg) {
    for (int n = 0; n < nodes; ++n) {
      threads.push_back(std::make_unique<des::SimThread>(
          eng, "comm-" + std::to_string(n)));
      auto& engine = world.engine(n);
      loops.push_back(std::make_unique<des::PollLoop>(
          *threads.back(), 25, [&engine]() { return engine.progress() > 0; }));
      engine.set_wake_callback(
          [loop = loops.back().get()]() { loop->wake(); });
      loops.back()->start();
    }
  }

  ~CeWorld() {
    for (auto& l : loops) l->stop();
  }

  CommEngine& engine(int n) { return world.engine(n); }

  /// Nudges every comm loop (after driver-initiated sends) and runs the
  /// simulation until quiescent.
  void run() {
    for (auto& l : loops) l->wake();
    eng.run();
  }
};

class CeBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CeBackends, ActiveMessageDelivery) {
  CeWorld w(2, GetParam());
  std::string got;
  int got_src = -1;
  int cookie = 7;
  void* got_cookie = nullptr;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int src,
          void* cb_data) {
        got.assign(static_cast<const char*>(msg), size);
        got_src = src;
        got_cookie = cb_data;
      },
      &cookie, 256);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 256);

  const std::string msg = "activate:task(3,4)";
  EXPECT_EQ(w.engine(0).send_am(kActivate, 1, msg.data(), msg.size()),
            ce::Status::Ok);
  w.run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(got_cookie, &cookie);
  EXPECT_EQ(w.engine(0).stats().ams_sent, 1u);
  EXPECT_EQ(w.engine(1).stats().ams_delivered, 1u);
}

TEST_P(CeBackends, ManyAmsAllDelivered) {
  CeWorld w(2, GetParam());
  int count = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++count;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 100; ++i) {
    char body[16];
    std::snprintf(body, sizeof body, "am-%03d", i);
    w.engine(0).send_am(kActivate, 1, body, 8);
  }
  w.run();
  EXPECT_EQ(count, 100);
}

TEST_P(CeBackends, DistinctTagsRouteToDistinctCallbacks) {
  CeWorld w(2, GetParam());
  int activates = 0, getdatas = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++activates;
      },
      nullptr, 64);
  w.engine(1).tag_reg(
      kGetData,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++getdatas;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  w.engine(0).tag_reg(kGetData, [](auto&&...) {}, nullptr, 64);
  w.engine(0).send_am(kActivate, 1, "a", 1);
  w.engine(0).send_am(kGetData, 1, "g", 1);
  w.engine(0).send_am(kActivate, 1, "a", 1);
  w.run();
  EXPECT_EQ(activates, 2);
  EXPECT_EQ(getdatas, 1);
}

TEST_P(CeBackends, PutMovesDataAndNotifiesBothSides) {
  CeWorld w(2, GetParam());
  std::vector<char> src(64 * 1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 17 + 3);
  }
  std::vector<char> dst(src.size() + 128, 0);

  bool local_done = false;
  std::string remote_info;
  int remote_src = -1;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int from,
          void*) {
        remote_info.assign(static_cast<const char*>(msg), size);
        remote_src = from;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  const MemReg lreg = w.engine(0).mem_reg(src.data(), src.size());
  const MemReg rreg{1, dst.data(), dst.size()};
  const char rinfo[] = "flow:A->B";
  int lcb_cookie = 0;
  w.engine(0).put(
      lreg, 0, rreg, 128, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t size, int remote, void* cb) {
        local_done = true;
        EXPECT_EQ(size, src.size());
        EXPECT_EQ(remote, 1);
        EXPECT_EQ(cb, &lcb_cookie);
      },
      &lcb_cookie, kPutDone, rinfo, sizeof rinfo - 1);
  w.run();

  EXPECT_TRUE(local_done);
  EXPECT_EQ(remote_info, "flow:A->B");
  EXPECT_EQ(remote_src, 0);
  // Data landed at displacement 128.
  EXPECT_EQ(0, std::memcmp(dst.data() + 128, src.data(), src.size()));
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(w.engine(0).stats().puts_completed_local, 1u);
  EXPECT_EQ(w.engine(1).stats().puts_completed_remote, 1u);
}

TEST_P(CeBackends, VirtualPut) {
  CeWorld w(2, GetParam());
  bool local_done = false, remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 22};
  const MemReg rreg{1, nullptr, 1 << 22};
  w.engine(0).put(
      lreg, 0, rreg, 0, 1 << 22, 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "x", 1);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_TRUE(remote_done);
}

TEST_P(CeBackends, ManyConcurrentPutsAllComplete) {
  CeWorld w(2, GetParam());
  constexpr int kPuts = 80;  // over the MPI backend's 30-transfer cap
  int remote_done = 0, local_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(
        lreg, 0, rreg, 0, 256 * 1024, 1,
        [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
            std::ptrdiff_t, std::size_t, int, void*) { ++local_done; },
        nullptr, kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(local_done, kPuts);
  EXPECT_EQ(remote_done, kPuts);
}

TEST_P(CeBackends, BidirectionalTrafficQuiesces) {
  CeWorld w(4, GetParam());
  std::vector<int> received(4, 0);
  for (int n = 0; n < 4; ++n) {
    w.engine(n).tag_reg(
        kActivate,
        [&received, n](CommEngine&, Tag, const void*, std::size_t, int,
                       void*) { ++received[static_cast<std::size_t>(n)]; },
        nullptr, 64);
  }
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      w.engine(src).send_am(kActivate, dst, "ping", 4);
    }
  }
  w.run();
  for (int n = 0; n < 4; ++n) EXPECT_EQ(received[static_cast<std::size_t>(n)], 3);
  EXPECT_TRUE(w.world.all_idle());
}

TEST_P(CeBackends, ReentrantPutFromAmCallback) {
  // GET DATA pattern: an AM callback at the data owner starts the put.
  CeWorld w(2, GetParam());
  std::vector<char> payload(32 * 1024, 'q');
  std::vector<char> sink(payload.size());
  bool data_arrived = false;

  // Node 1 = data owner: on GET DATA, put to the requester.
  w.engine(1).tag_reg(
      kGetData,
      [&](CommEngine& eng, Tag, const void* msg, std::size_t, int src,
          void*) {
        MemReg lr = eng.mem_reg(payload.data(), payload.size());
        MemReg rr{};
        std::memcpy(&rr, msg, sizeof rr);
        eng.put(lr, 0, rr, 0, payload.size(), src, nullptr, nullptr,
                kPutDone, "done", 4);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kGetData, [](auto&&...) {}, nullptr, 64);
  w.engine(0).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        data_arrived = true;
      },
      nullptr, 64);
  w.engine(1).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  const MemReg sink_reg = w.engine(0).mem_reg(sink.data(), sink.size());
  w.engine(0).send_am(kGetData, 1, &sink_reg, sizeof sink_reg);
  w.run();
  EXPECT_TRUE(data_arrived);
  EXPECT_EQ(sink[1000], 'q');
}

INSTANTIATE_TEST_SUITE_P(Backends, CeBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& info) {
                           return info.param == BackendKind::Mpi ? "Mpi"
                                                                 : "Lci";
                         });

// --- MPI-backend-specific mechanisms ---------------------------------------

TEST(CeMpiBackend, TransferCapDefersPuts) {
  CeConfig cfg;
  cfg.max_concurrent_transfers = 4;
  CeWorld w(2, BackendKind::Mpi, cfg);
  int remote_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  constexpr int kPuts = 20;
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 128 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  // The driver issued 20 puts back-to-back with a cap of 4: some must have
  // been deferred before any progress happened.
  EXPECT_GT(w.engine(0).stats().puts_deferred, 0u);
  w.run();
  EXPECT_EQ(remote_done, kPuts);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeMpiBackend, DynamicRecvsPromotedInFifoOrder) {
  CeConfig cfg;
  cfg.max_concurrent_transfers = 2;
  CeWorld w(2, BackendKind::Mpi, cfg);
  std::vector<int> order;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t, int, void*) {
        int idx = 0;
        std::memcpy(&idx, msg, sizeof idx);
        order.push_back(idx);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < 10; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 64 * 1024, 1, nullptr, nullptr,
                    kPutDone, &i, sizeof i);
  }
  w.run();
  ASSERT_EQ(order.size(), 10u);
  // The target sees some receives land without array space; all must
  // still complete.  (Arrival order is not contractual, but with a single
  // pair and FIFO pipes it is in fact in-order here.)
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CeMpiBackend, MalformedHandshakeIsDroppedAndCounted) {
  CeWorld w(2, BackendKind::Mpi);
  // A header that claims 64 callback bytes, followed by none of them.
  ce::PutHandshake h;
  h.size = 128;
  h.r_cb_size = 64;
  EXPECT_EQ(w.engine(0).send_am(ce::MpiBackend::kHandshakeTag, 1, &h,
                                sizeof h),
            ce::Status::Ok);
  w.run();
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 1u);
  EXPECT_TRUE(w.engine(1).idle());  // no receive was posted for it
}

TEST(CeMpiBackend, PutNamingAnUnregisteredTagCompletesUnannounced) {
  CeWorld w(2, BackendKind::Mpi);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  // Node 1 never registers kPutDone, the tag the handshake names.
  bool local_done = false;
  const MemReg lreg{0, nullptr, 4096};
  const MemReg rreg{1, nullptr, 4096};
  w.engine(0).put(
      lreg, 0, rreg, 0, 4096, 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "d", 1);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_EQ(w.engine(1).stats().puts_completed_remote, 1u);
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 1u);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeMpiBackend, MalformedMmpiFramesSurfaceInCeStats) {
  CeWorld w(2, BackendKind::Mpi);
  // CTS and DATA naming no request of node 1's, and a kind mmpi does not
  // define: each is dropped unread by node 1's MPI library.
  const std::uint16_t kinds[] = {mmpi::kCts, mmpi::kData, 99};
  for (const std::uint16_t kind : kinds) {
    net::Message m;
    m.src = 0;
    m.dst = 1;
    m.wire_bytes = 64;
    m.hdr.proto = net::kProtoMpi;
    m.hdr.kind = kind;
    m.hdr.imm[0] = 0x0BAD'0000'0001ULL;
    m.hdr.imm[1] = 0x0BAD'0000'0002ULL;
    w.fab.nic(0).send(std::move(m));
  }
  w.run();
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 3u);
  EXPECT_EQ(w.engine(0).stats().malformed_msgs, 0u);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeMpiBackend, AmForAnUnregisteredTagKeepsTheEngineBusy) {
  CeWorld w(2, BackendKind::Mpi);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  // Node 1 never registers kActivate: no receive will ever match the AM,
  // so it stays in mmpi's unexpected queue, and idle() must say so.
  EXPECT_EQ(w.engine(0).send_am(kActivate, 1, "x", 1), ce::Status::Ok);
  w.run();
  EXPECT_EQ(w.engine(1).stats().ams_delivered, 0u);
  EXPECT_TRUE(w.engine(0).idle());
  EXPECT_FALSE(w.engine(1).idle());
  EXPECT_FALSE(w.world.all_idle());
}

// The backend counts the data transfers holding array slots instead of
// scanning the array.  Puts issued from inside AM callbacks and
// remote-completion callbacks, a cap small enough to defer, and a peer
// declared failed with transfers wedged on it must all keep the count
// equal to a recount of the array, and within the cap.
TEST(CeMpiBackend, TransferCountMatchesTheArrayUnderReentrantPuts) {
  constexpr int kCap = 4;
  constexpr int kDead = 2;  // never progresses; declared failed mid-run
  constexpr Tag kPing = 10;
  CeConfig cfg;
  cfg.max_concurrent_transfers = kCap;
  des::Engine eng;
  net::Fabric fab(eng, 3);
  CommWorld world(fab, BackendKind::Mpi, cfg);
  const auto backend = [&world](int n) -> const ce::MpiBackend& {
    return static_cast<const ce::MpiBackend&>(world.engine(n));
  };
  int checks = 0;
  const auto check = [&](int n) {
    const ce::MpiBackend& b = backend(n);
    EXPECT_EQ(ce::MpiBackendTestPeer::counted(b),
              ce::MpiBackendTestPeer::recounted(b))
        << "node " << n << " after check " << checks;
    EXPECT_LE(ce::MpiBackendTestPeer::counted(b), kCap);
    ++checks;
  };

  int budget = 200;  // puts the callbacks may still issue
  int local_done = 0, remote_done = 0, dead_released = 0;
  const auto put_back = [&](CommEngine& ce, int to) {
    if (budget == 0) return;
    // Alternate eager (locally complete at once) and rendezvous sizes.
    const std::size_t bytes = budget-- % 2 == 0 ? 4096 : 64 * 1024;
    const MemReg l{ce.rank(), nullptr, bytes};
    const MemReg r{to, nullptr, bytes};
    ce.put(
        l, 0, r, 0, bytes, to,
        [&](CommEngine& e, const MemReg&, std::ptrdiff_t, const MemReg&,
            std::ptrdiff_t, std::size_t, int, void*) {
          ++local_done;
          check(e.rank());
        },
        nullptr, kPutDone, nullptr, 0);
    check(ce.rank());
  };

  std::vector<std::unique_ptr<des::SimThread>> threads;
  std::vector<std::unique_ptr<des::PollLoop>> loops;
  for (int n = 0; n < 2; ++n) {
    CommEngine& ce = world.engine(n);
    ce.tag_reg(
        kPing,
        [&](CommEngine& e, Tag, const void*, std::size_t, int src, void*) {
          put_back(e, src);
        },
        nullptr, 64);
    ce.tag_reg(
        kPutDone,
        [&](CommEngine& e, Tag, const void*, std::size_t, int src, void*) {
          ++remote_done;
          put_back(e, src);
        },
        nullptr, 64);
    threads.push_back(
        std::make_unique<des::SimThread>(eng, "comm-" + std::to_string(n)));
    loops.push_back(std::make_unique<des::PollLoop>(
        *threads.back(), 25, [&check, &ce]() {
          const int k = ce.progress();
          check(ce.rank());
          return k > 0;
        }));
    ce.set_wake_callback([loop = loops.back().get()]() { loop->wake(); });
    loops.back()->start();
  }
  world.engine(kDead).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);

  // Transfers that wedge on the dead node: rendezvous sends to it from
  // both live nodes, and one receive at node 0 of a put from it (its CTS
  // is never answered).
  const auto dead_l_cb = [&](CommEngine&, const MemReg&, std::ptrdiff_t,
                             const MemReg&, std::ptrdiff_t, std::size_t, int,
                             void*) { ++dead_released; };
  constexpr std::size_t kBig = 256 * 1024;
  for (int n = 0; n < 2; ++n) {
    for (int i = 0; i < 2; ++i) {
      world.engine(n).put(MemReg{n, nullptr, kBig}, 0,
                          MemReg{kDead, nullptr, kBig}, 0, kBig, kDead,
                          dead_l_cb, nullptr, kPutDone, nullptr, 0);
      check(n);
    }
  }
  world.engine(kDead).put(MemReg{kDead, nullptr, kBig}, 0,
                          MemReg{0, nullptr, kBig}, 0, kBig, 0, nullptr,
                          nullptr, kPutDone, nullptr, 0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(world.engine(0).send_am(kPing, 1, "p", 1), ce::Status::Ok);
    ASSERT_EQ(world.engine(1).send_am(kPing, 0, "p", 1), ce::Status::Ok);
  }
  eng.schedule_at(30 * des::kMicrosecond, [&]() {
    for (int n = 0; n < 2; ++n) {
      world.engine(n).peer_failed(kDead);
      check(n);
    }
  });
  for (auto& l : loops) l->wake();
  eng.run();
  for (auto& l : loops) l->stop();

  EXPECT_EQ(budget, 0);
  EXPECT_EQ(local_done, 200);
  EXPECT_EQ(remote_done, 200);
  EXPECT_EQ(dead_released, 4);
  const std::uint64_t deferred = world.engine(0).stats().puts_deferred +
                                 world.engine(1).stats().puts_deferred;
  EXPECT_GT(deferred, 0u);  // the cap was reached
  EXPECT_EQ(world.engine(0).stats().peer_failed_recvs, 1u);
  EXPECT_GT(checks, 400);
  for (int n = 0; n < 2; ++n) {
    check(n);
    EXPECT_TRUE(world.engine(n).idle()) << "node " << n;
  }
}

// --- LCI-backend-specific mechanisms ---------------------------------------

TEST(CeLciBackend, EagerPutRidesHandshake) {
  CeConfig cfg;
  cfg.eager_put_max = 4096;
  CeWorld w(2, BackendKind::Lci, cfg);
  std::vector<char> src(2048, 'e');
  std::vector<char> dst(2048, 0);
  bool local_done = false;
  bool remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, src.data(), src.size()};
  const MemReg rreg{1, dst.data(), dst.size()};
  w.engine(0).put(
      lreg, 0, rreg, 0, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "e", 1);
  // §5.3.3: eager puts complete locally at the call, before any progress.
  EXPECT_TRUE(local_done);
  EXPECT_EQ(w.engine(0).stats().eager_puts, 1u);
  w.run();
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(dst[100], 'e');
}

TEST(CeLciBackend, EagerPutDisabledUsesDirect) {
  CeConfig cfg;
  cfg.eager_put_max = 0;
  CeWorld w(2, BackendKind::Lci, cfg);
  bool remote_done = false;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        remote_done = true;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 4096};
  const MemReg rreg{1, nullptr, 4096};
  w.engine(0).put(lreg, 0, rreg, 0, 2048, 1, nullptr, nullptr, kPutDone,
                  "d", 1);
  w.run();
  EXPECT_TRUE(remote_done);
  EXPECT_EQ(w.engine(0).stats().eager_puts, 0u);
}

TEST(CeLciBackend, RecvRetryDelegatedToCommThread) {
  CeConfig cfg;
  cfg.eager_put_max = 0;
  mlci::Config lci_cfg;
  lci_cfg.direct_slots = 2;  // scarce hardware resources
  CeWorld w(2, BackendKind::Lci, cfg, {}, lci_cfg);
  int remote_done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++remote_done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  constexpr int kPuts = 12;
  for (int i = 0; i < kPuts; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 64 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(remote_done, kPuts);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeLciBackend, WorksWithoutProgressThread) {
  CeConfig cfg;
  cfg.progress_thread = false;
  CeWorld w(2, BackendKind::Lci, cfg);
  int delivered = 0;
  w.engine(1).tag_reg(
      kActivate,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++delivered;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  for (int i = 0; i < 10; ++i) w.engine(0).send_am(kActivate, 1, "x", 1);
  w.run();
  EXPECT_EQ(delivered, 10);
}

// The AM tag and a put's r_tag come off the wire: a tag the target never
// registered drops the frame and counts it, as the MPI backend does.
TEST(CeLciBackend, AmForAnUnregisteredTagIsDroppedAndCounted) {
  CeWorld w(2, BackendKind::Lci);
  w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
  // Node 1 never registers kActivate.
  EXPECT_EQ(w.engine(0).send_am(kActivate, 1, "x", 1), ce::Status::Ok);
  w.run();
  EXPECT_EQ(w.engine(1).stats().ams_delivered, 0u);
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 1u);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeLciBackend, MalformedMlciFramesSurfaceInCeStats) {
  CeWorld w(2, BackendKind::Lci);
  // CTS and DATA naming no Direct transfer of node 1's, and a kind mlci
  // does not define: each is dropped unread by node 1's LCI device.
  const std::uint16_t kinds[] = {mlci::kCts, mlci::kData, 99};
  for (const std::uint16_t kind : kinds) {
    net::Message m;
    m.src = 0;
    m.dst = 1;
    m.wire_bytes = 64;
    m.hdr.proto = net::kProtoLci;
    m.hdr.kind = kind;
    m.hdr.imm[0] = 0x0BAD'0000'0001ULL;
    w.fab.nic(0).send(std::move(m));
  }
  w.run();
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 3u);
  EXPECT_EQ(w.engine(0).stats().malformed_msgs, 0u);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeLciBackend, PutNamingAnUnregisteredTagCompletesUnannounced) {
  CeWorld w(2, BackendKind::Lci);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  // Node 1 never registers kPutDone, the tag the handshake names.
  bool local_done = false;
  const MemReg lreg{0, nullptr, 4096};
  const MemReg rreg{1, nullptr, 4096};
  w.engine(0).put(
      lreg, 0, rreg, 0, 4096, 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "d", 1);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_EQ(w.engine(1).stats().puts_completed_remote, 1u);
  EXPECT_EQ(w.engine(1).stats().malformed_msgs, 1u);
  EXPECT_TRUE(w.world.all_idle());
}

TEST(CeLciBackend, ProgressThreadReducesAmLatencyUnderCallbackLoad) {
  // §4.3/§5.2: while the communication thread executes a long callback, a
  // backend whose progress is coupled to that thread cannot match incoming
  // messages.  The dedicated progress thread decouples them.
  auto measure = [](bool progress_thread) {
    CeConfig cfg;
    cfg.progress_thread = progress_thread;
    CeWorld w(2, BackendKind::Lci, cfg);
    des::Time last_arrival = 0;
    int count = 0;
    // The receiving callback is expensive (models ACTIVATE unpacking).
    w.engine(1).tag_reg(
        kActivate,
        [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
          des::charge_current(50 * des::kMicrosecond);
          ++count;
          last_arrival = w.eng.now();
        },
        nullptr, 64);
    w.engine(0).tag_reg(kActivate, [](auto&&...) {}, nullptr, 64);
    for (int i = 0; i < 20; ++i) w.engine(0).send_am(kActivate, 1, "x", 1);
    w.run();
    EXPECT_EQ(count, 20);
    return last_arrival;
  };
  const des::Time with_pt = measure(true);
  const des::Time without_pt = measure(false);
  // Both complete; the callbacks dominate either way, so the completion
  // times are close — the decoupling benefit shows in message *matching*
  // (exercised in the bandwidth benches).  Here we only require that the
  // progress-thread variant is not slower.
  EXPECT_LE(with_pt, without_pt);
}

}  // namespace

namespace {

// --- §7 future work: native one-sided put ----------------------------------

TEST(CeLciBackend, NativePutMovesDataWithOneMessage) {
  CeConfig cfg;
  cfg.native_put = true;
  CeWorld w(2, BackendKind::Lci, cfg);
  std::vector<char> src(64 * 1024, 'n');
  std::vector<char> dst(64 * 1024, 0);
  bool local_done = false;
  std::string rinfo;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void* msg, std::size_t size, int, void*) {
        rinfo.assign(static_cast<const char*>(msg), size);
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, src.data(), src.size()};
  const MemReg rreg{1, dst.data(), dst.size()};
  const std::uint64_t msgs_before = w.fab.total_messages();
  w.engine(0).put(
      lreg, 0, rreg, 0, src.size(), 1,
      [&](CommEngine&, const MemReg&, std::ptrdiff_t, const MemReg&,
          std::ptrdiff_t, std::size_t, int, void*) { local_done = true; },
      nullptr, kPutDone, "native", 6);
  w.run();
  EXPECT_TRUE(local_done);
  EXPECT_EQ(rinfo, "native");
  EXPECT_EQ(dst[100], 'n');
  // One wire message for the whole put.
  EXPECT_EQ(w.fab.total_messages() - msgs_before, 1u);
}

TEST(CeLciBackend, NativePutLowerLatencyThanEmulated) {
  auto measure = [](bool native) {
    CeConfig cfg;
    cfg.native_put = native;
    cfg.eager_put_max = 0;
    CeWorld w(2, BackendKind::Lci, cfg);
    des::Time done = 0;
    w.engine(1).tag_reg(
        kPutDone,
        [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
          done = w.eng.now();
        },
        nullptr, 64);
    w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
    const MemReg lreg{0, nullptr, 1 << 20};
    const MemReg rreg{1, nullptr, 1 << 20};
    w.engine(0).put(lreg, 0, rreg, 0, 256 * 1024, 1, nullptr, nullptr,
                    kPutDone, "x", 1);
    w.run();
    return done;
  };
  const des::Time native = measure(true);
  const des::Time emulated = measure(false);
  EXPECT_GT(native, 0);
  // Saves the rendezvous round-trip.
  EXPECT_LT(native, emulated);
}

TEST(CeLciBackend, NativePutManyConcurrentAllComplete) {
  CeConfig cfg;
  cfg.native_put = true;
  mlci::Config lci_cfg;
  lci_cfg.direct_slots = 4;  // force Retry + comm-thread retries
  CeWorld w(2, BackendKind::Lci, cfg, {}, lci_cfg);
  int done = 0;
  w.engine(1).tag_reg(
      kPutDone,
      [&](CommEngine&, Tag, const void*, std::size_t, int, void*) {
        ++done;
      },
      nullptr, 64);
  w.engine(0).tag_reg(kPutDone, [](auto&&...) {}, nullptr, 64);
  const MemReg lreg{0, nullptr, 1 << 20};
  const MemReg rreg{1, nullptr, 1 << 20};
  for (int i = 0; i < 40; ++i) {
    w.engine(0).put(lreg, 0, rreg, 0, 128 * 1024, 1, nullptr, nullptr,
                    kPutDone, "d", 1);
  }
  w.run();
  EXPECT_EQ(done, 40);
  EXPECT_TRUE(w.world.all_idle());
}

}  // namespace

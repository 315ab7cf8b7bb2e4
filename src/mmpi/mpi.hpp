// mmpi — a miniature MPI implementation over the simulated fabric.
//
// Implements the MPI subset the PaRSEC MPI backend (paper §4.2) uses:
// two-sided nonblocking sends/receives, persistent requests
// (MPI_Recv_init / MPI_Start), MPI_Testsome over a request array, wildcard
// MPI_ANY_SOURCE, blocking eager MPI_Send, tag matching with posted- and
// unexpected-message queues, and an eager/rendezvous protocol switch.
// Matching is FIFO per (source, tag), which is also a valid behaviour
// under mpi_assert_allow_overtaking.
//
// Progress semantics mirror real MPI: the library only progresses inside
// MPI calls.  Arriving fabric messages queue in a per-rank hardware queue;
// they are matched (and their CPU costs paid) only when some thread on that
// rank enters an MPI call that polls.  This is the property the paper's
// §4.3 identifies as a latency bottleneck — while the communication thread
// executes a long callback, nothing is matched.
//
// Software overheads are explicit model parameters (Config) charged to the
// calling simulated thread via des::charge_current.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "des/sim_thread.hpp"
#include "des/time.hpp"
#include "net/fabric.hpp"

namespace mmpi {

/// Wildcard source rank.
inline constexpr int kAnySource = -1;

using Tag = std::uint64_t;

/// Names a request within its rank: generation in the high 32 bits, slot
/// index in the low 32.  A slot's generation advances when the request is
/// freed, so a stale id (or a made-up one) never names the slot's next
/// occupant; lookup is an index plus one compare.  Ids are only meaningful
/// on the rank that issued them.
using RequestId = std::uint64_t;
inline constexpr RequestId kNullRequest = 0;

/// WireHeader::kind values of the mmpi protocol.
enum WireKind : std::uint16_t {
  kEager = 1,  ///< payload inline
  kRts = 2,    ///< rendezvous ready-to-send; imm[0] = sender's request
  kCts = 3,    ///< clear-to-send; imm[0] = sender's, imm[1] = receiver's
  kData = 4,   ///< rendezvous bulk data (RDMA write); imm[0] = receiver's
};

struct Config {
  /// Messages at or below this size use the eager protocol.
  std::size_t eager_threshold = 8192;

  // --- software overhead model (charged to the calling sim thread) ---
  des::Duration call_overhead = 1500;        ///< fixed cost of any MPI call
  des::Duration request_scan_cost = 100;     ///< per request examined by testsome
  des::Duration match_scan_cost = 150;       ///< per queue element traversed
  des::Duration unexpected_cost = 800;      ///< per unexpected message queued
  des::Duration rendezvous_cost = 800;      ///< per RTS/CTS handled
  double copy_bandwidth_Bps = 8e9;          ///< eager-buffer memcpy rate

  /// Thread-contention model (§4.3 / [24]): MPI implementations guard
  /// their internals with a global lock; when the calling thread differs
  /// from the previous caller, the lock (and its cache lines) must
  /// migrate.  This is the cost that makes multithreaded ACTIVATE sends
  /// "neutral or negative" for MPI (§6.4.3).
  des::Duration thread_switch_cost = 6 * des::kMicrosecond;

  /// Extra wire bytes per message for transport headers.
  std::uint64_t header_bytes = 64;
};

struct MpiStatus {
  int source = kAnySource;
  Tag tag = 0;
  std::size_t count = 0;
};

class Mpi;

/// Per-rank MPI library handle.  All calls must happen "on" the owning
/// simulated node; costs are charged to the calling SimThread.
class Rank {
 public:
  ~Rank();

  int rank() const { return rank_; }
  int size() const;

  // --- point-to-point -------------------------------------------------
  /// Blocking send.  Only valid for eager-size messages (the PaRSEC MPI
  /// backend uses MPI_Send exclusively for active messages, which are
  /// always eager-size); completes locally at the call.
  void send(const void* buf, std::size_t bytes, int dst, Tag tag);

  /// Nonblocking send.  `buf` may be null for virtual payloads.
  RequestId isend(const void* buf, std::size_t bytes, int dst, Tag tag);

  /// Nonblocking receive.  `buf` may be null (virtual); `src` may be
  /// kAnySource.
  RequestId irecv(void* buf, std::size_t capacity, int src, Tag tag);

  // --- persistent requests ---------------------------------------------
  RequestId recv_init(void* buf, std::size_t capacity, int src, Tag tag);
  RequestId send_init(const void* buf, std::size_t bytes, int dst, Tag tag);
  void start(RequestId req);

  // --- completion -------------------------------------------------------
  struct TestsomeResult {
    std::vector<std::size_t> indices;  ///< positions in the passed array
    std::vector<MpiStatus> statuses;   ///< parallel to indices
  };

  /// MPI_Testsome: progresses the library, then reports completed requests
  /// among `reqs` into `out` (cleared first; the caller keeps it between
  /// calls so its capacity is reused).  kNullRequest and stale ids are
  /// skipped.  Completed persistent requests become inactive (restart
  /// with start()); completed ordinary requests are freed and their ids
  /// invalidated.  The simulated charge is request_scan_cost per array
  /// element whatever the outcome; the host walk over `reqs` is skipped
  /// when no request on this rank is complete.
  void testsome(std::span<const RequestId> reqs, TestsomeResult& out);
  TestsomeResult testsome(std::span<const RequestId> reqs);

  /// MPI_Test on one request; on completion fills `st` (may be null) and,
  /// for non-persistent requests, frees the request.  A stale or unknown
  /// id reports false.
  bool test(RequestId req, MpiStatus* st);

  /// Frees an inactive persistent request.  Stale ids are ignored.
  void free_request(RequestId req);

  /// MPI_Cancel + MPI_Request_free in one step: drops a request even if
  /// it is still Active (a transfer wedged on a dead peer will never
  /// complete, so normal completion rules cannot apply).  Unknown and
  /// stale ids are ignored.  Posted-receive queue entries for the request
  /// are removed.
  void cancel(RequestId req);

  /// Drops every request wedged on `peer` (Active sends to it, Active
  /// receives specifically from it) plus all queued traffic from it
  /// (hardware queue and unexpected-message queue).  Used by the ce layer
  /// when the failure detector confirms `peer` dead.  Returns the number
  /// of requests cancelled.
  std::size_t purge_peer(int peer);

  /// Progress-only call (like MPI_Testsome on an empty array): drains and
  /// matches the hardware queue without completing any caller request.
  void poll();

  /// Number of messages sitting in the hardware queue, not yet matched
  /// (visible for tests and instrumentation).
  std::size_t pending_incoming() const { return incoming_.size() - head_; }

  /// Arrived messages no posted receive has matched yet.  A message whose
  /// tag no receive will ever name stays here for good.
  std::size_t unexpected_messages() const { return unexpected_.size(); }

  /// Requests allocated and not yet freed, in any state.
  std::size_t live_requests() const {
    return slots_.size() - free_slots_.size();
  }

  /// Frames dropped unread: an unknown kind, or a CTS / DATA naming a
  /// request that is not this rank's rendezvous send / receive waiting
  /// for it (a stale, cancelled or made-up id).
  std::uint64_t malformed_frames() const { return malformed_frames_; }

  /// The simulation engine driving this rank's fabric (for timestamps and
  /// tracing in layers that only hold a Rank).
  des::Engine& engine();

  /// Registers a hook invoked whenever hardware activity occurs for this
  /// rank (message arrival, local send completion).  Polling threads use
  /// it to park between MPI calls without missing events.  The hook runs
  /// in event context — it must only schedule work, not call back into
  /// the library.
  void set_event_notifier(std::function<void()> fn) {
    notifier_ = std::move(fn);
  }

 private:
  friend class Mpi;
  Rank(Mpi& mpi, int rank);

  /// One slot of the request slab.  A free slot has id == kNullRequest
  /// and keeps `gen`, the generation its next occupant's id will carry.
  struct Request {
    enum class Kind { Send, Recv };
    enum class State { Inactive, Active, Complete };

    Kind kind = Kind::Recv;
    State state = State::Inactive;
    bool persistent = false;

    // Receive parameters.
    void* rbuf = nullptr;
    std::size_t capacity = 0;
    int src = kAnySource;

    // Send parameters.
    const void* sbuf = nullptr;
    std::size_t bytes = 0;
    int dst = -1;
    net::PayloadPtr staged;  ///< payload captured at isend time (rendezvous)

    Tag tag = 0;
    MpiStatus status;
    RequestId id = kNullRequest;
    std::uint32_t gen = 1;
    /// For persistent sends re-issued through isend(): the persistent
    /// request whose completion mirrors this temporary one.
    RequestId imm_alias = kNullRequest;
  };

  /// Posted-receive queue element: the match keys live inline so the
  /// matching walk reads no request.
  struct PostedRecv {
    RequestId id;
    int src;
    Tag tag;
  };

  /// Takes a slot (free list first, LIFO, else a new one) and stamps it
  /// with a fresh id.  Grows the slab: invalidates Request references.
  Request& new_request(Request::Kind kind, Request::State state);
  /// Null for kNullRequest, stale and out-of-range ids.
  Request* find(RequestId id);
  /// Returns the slot to the free list and retires its id.
  void free_slot(Request& r);
  void set_complete(Request& r);

  void progress();
  void deliver(net::Message&& m);
  void handle_eager(net::Message& m);
  void accept_rts(Request& r, net::Message& rts);
  void handle_rts(net::Message& m);
  void handle_cts(net::Message& m);
  void handle_data(net::Message& m);
  Request* find_matching_posted(int src, Tag tag);
  void complete_recv_from_message(Request& r, net::Message& m);
  void post_recv(Request& r);
  std::uint64_t next_seq(int dst);

  Mpi& mpi_;
  int rank_;
  /// Hardware queue: FIFO from head_; progress() drains it whole and then
  /// rewinds, so steady state reuses one buffer.
  std::vector<net::Message> incoming_;
  std::size_t head_ = 0;
  std::vector<PostedRecv> posted_recvs_;    ///< posted-receive queue (FIFO)
  /// Unexpected-message queue (FIFO).  A vector: the matching walk is
  /// linear anyway, and erasing keeps its capacity.
  std::vector<net::Message> unexpected_;
  std::vector<std::uint64_t> send_seq_;     ///< per destination rank
  std::vector<Request> slots_;              ///< the request slab
  std::vector<std::uint32_t> free_slots_;
  std::size_t complete_ = 0;  ///< requests in State::Complete
  std::uint64_t malformed_frames_ = 0;
  std::function<void()> notifier_;
  des::SimThread* last_caller_ = nullptr;

  void notify() {
    if (notifier_) notifier_();
  }

  /// Charges the global-lock hand-off cost when the calling thread is not
  /// the one that made the previous MPI call on this rank.
  void charge_thread_switch();
};

/// The MPI "job": owns per-rank state and binds to the fabric.
class Mpi {
 public:
  Mpi(net::Fabric& fabric, Config config = {});
  ~Mpi();
  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  net::Fabric& fabric() { return fabric_; }
  const Config& config() const { return cfg_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }

 private:
  friend class Rank;

  net::Fabric& fabric_;
  Config cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace mmpi

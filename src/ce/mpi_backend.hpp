// The MPI backend of the PaRSEC communication engine (paper §4.2).
//
// Mechanisms reproduced:
//   * tag_reg posts a fixed number (5) of persistent wildcard receives
//     (MPI_Recv_init + MPI_Start, MPI_ANY_SOURCE) per registered tag.
//   * send_am uses blocking eager MPI_Send with the AM tag.
//   * put() is emulated: a handshake active message announces target
//     address / size / data tag / remote callback, then the data moves
//     with nonblocking two-sided sends on a per-transfer unique tag.
//   * A global array of requests paired with a parallel callback array,
//     length 5*Nam + 30: at most 30 data transfers (sends + receives) are
//     actively polled.  Put-sends that find no space are deferred; data
//     receives posted by the handshake callback when the array is full
//     use dynamically allocated requests that are only polled once
//     promoted into the array (§4.2.2).
//   * progress() loops MPI_Testsome over the array, runs callbacks for
//     completions, compacts, starts deferred work FIFO, and repeats until
//     a pass completes nothing (§4.2.3).
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ce/comm_engine.hpp"
#include "mmpi/mpi.hpp"

namespace ce {

class MpiBackend final : public CommEngine {
 public:
  /// AM tag the constructor registers for put handshakes.
  static constexpr Tag kHandshakeTag = 0xFFFF'FFFF'FFFF'0001ULL;

  MpiBackend(mmpi::Rank& rank, CeConfig cfg = {});
  ~MpiBackend() override;

  int rank() const override { return rank_.rank(); }
  int size() const override { return rank_.size(); }

  Status tag_reg(Tag tag, AmCallback cb, void* cb_data,
                 std::size_t max_len) override;
  MemReg mem_reg(void* mem, std::size_t size) override;
  Status send_am(Tag tag, int remote, const void* msg,
                 std::size_t size) override;
  int put(const MemReg& lreg, std::ptrdiff_t ldispl, const MemReg& rreg,
          std::ptrdiff_t rdispl, std::size_t size, int remote,
          OnesidedCallback l_cb, void* l_cb_data, Tag r_tag,
          const void* r_cb_data, std::size_t r_cb_data_size) override;
  /// Not reentrant: callbacks it runs must not call progress() again.
  int progress() override;
  void peer_failed(int remote) override;
  bool idle() const override;
  void set_wake_callback(std::function<void()> fn) override;
  /// malformed_msgs counts handshakes that failed to parse or named an
  /// unregistered r_tag, plus the mmpi frames the rank dropped unread.
  const CeStats& stats() const override;
  void set_recorder(obs::Recorder* rec) override;

 private:
  /// Test-suite access to entries_, to recount what data_active_ counts.
  friend struct MpiBackendTestPeer;

  struct AmTagInfo {
    AmCallback cb;
    void* cb_data = nullptr;
    std::size_t max_len = 0;
  };

  static constexpr std::size_t kInlineCbBytes = 64;

  /// One entry of the global request array + parallel callback array.
  struct Entry {
    enum class Kind { AmRecv, DataSend, DataRecv };
    Kind kind = Kind::AmRecv;
    mmpi::RequestId req = mmpi::kNullRequest;
    // AmRecv: the registered tag and its receive buffer.
    Tag am_tag = 0;
    std::shared_ptr<std::vector<std::byte>> buffer;
    // DataSend: origin-side completion.
    OnesidedCallback l_cb;
    void* l_cb_data = nullptr;
    MemReg lreg, rreg;
    std::ptrdiff_t ldispl = 0, rdispl = 0;
    std::size_t size = 0;
    int remote = -1;
    std::uint64_t data_tag = 0;
    // DataRecv: remote-completion callback data, inline when it fits (the
    // runtime's DATA ARRIVED record does) so a put allocates nothing.
    Tag r_tag = 0;
    std::size_t r_cb_size = 0;
    std::array<std::byte, kInlineCbBytes> r_cb_inline{};
    std::vector<std::byte> r_cb_spill;  ///< used past kInlineCbBytes
    int origin = -1;
    /// When this transfer entered the engine (put() call / handshake
    /// arrival) — start of the put_local/put_remote latency histograms.
    des::Time started = 0;
  };

  /// Deferred work, kept in one FIFO to preserve global start order.
  struct Pending {
    enum class What { StartSend, PromoteRecv };
    What what;
    Entry entry;  ///< fully formed; req set for PromoteRecv only
  };

  void push_data_entry(Entry&& e);
  void start_data_send(Entry&& e);
  void drain_pending();
  void handle_handshake(const void* msg, std::size_t size, int src);
  void run_am_callback(Entry& e, const mmpi::MpiStatus& st);

  mmpi::Rank& rank_;
  CeConfig cfg_;
  mutable CeStats stats_;  ///< malformed_msgs refreshed by stats()
  std::uint64_t malformed_handshakes_ = 0;
  std::unordered_map<Tag, AmTagInfo> tags_;
  std::vector<Entry> entries_;        ///< the global array
  /// Entries of entries_ that are data transfers (not AmRecv).  A
  /// completed transfer keeps its array slot until the pass's compaction.
  int data_active_ = 0;
  std::deque<Pending> pending_;       ///< deferred sends + dynamic recvs
  std::uint64_t next_data_tag_;
  std::function<void()> wake_;
  // Scratch kept across calls so steady state allocates nothing: put()'s
  // handshake (rank_.send copies it out) and progress()'s Testsome array
  // and result.
  std::vector<std::byte> handshake_buf_;
  std::vector<mmpi::RequestId> ids_;
  mmpi::Rank::TestsomeResult done_;
  obs::Recorder* rec_ = nullptr;
  obs::Histogram* h_put_local_ = nullptr;
  obs::Histogram* h_put_remote_ = nullptr;
};

}  // namespace ce

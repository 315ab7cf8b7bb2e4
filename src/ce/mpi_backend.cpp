#include "ce/mpi_backend.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>

#include "ce/put_protocol.hpp"
#include "des/sim_thread.hpp"
#include "obs/stats.hpp"

namespace ce {
namespace {

/// Data-transfer tags live in their own range; unique per origin.
constexpr Tag kDataTagBase = 0x8000'0000'0000'0000ULL;

}  // namespace

MpiBackend::MpiBackend(mmpi::Rank& rank, CeConfig cfg)
    : rank_(rank), cfg_(cfg), next_data_tag_(kDataTagBase) {
  // The handshake handler is itself a registered active message.
  const Status st = tag_reg(
      kHandshakeTag,
      [](CommEngine& ce, Tag, const void* msg, std::size_t size, int src,
         void* cb_data) {
        static_cast<MpiBackend*>(cb_data)->handle_handshake(msg, size, src);
        (void)ce;
      },
      this, sizeof(PutHandshake) + cfg_.max_am_size);
  assert(st == Status::Ok);
  (void)st;
}

MpiBackend::~MpiBackend() { rank_.set_event_notifier(nullptr); }

const CeStats& MpiBackend::stats() const {
  stats_.malformed_msgs = malformed_handshakes_ + rank_.malformed_frames();
  return stats_;
}

void MpiBackend::set_recorder(obs::Recorder* rec) {
  rec_ = rec;
  h_put_local_ = rec ? &rec->histogram("ce.put_local_ns") : nullptr;
  h_put_remote_ = rec ? &rec->histogram("ce.put_remote_ns") : nullptr;
}

void MpiBackend::set_wake_callback(std::function<void()> fn) {
  wake_ = std::move(fn);
  rank_.set_event_notifier(wake_);
}

Status MpiBackend::tag_reg(Tag tag, AmCallback cb, void* cb_data,
                           std::size_t max_len) {
  if (tags_.contains(tag)) return Status::ErrTagDuplicate;
  tags_.emplace(tag, AmTagInfo{std::move(cb), cb_data, max_len});
  // Five persistent wildcard receives per tag (§4.2.1).
  for (int i = 0; i < cfg_.persistent_recvs_per_tag; ++i) {
    Entry e;
    e.kind = Entry::Kind::AmRecv;
    e.am_tag = tag;
    e.buffer = std::make_shared<std::vector<std::byte>>(max_len);
    e.req = rank_.recv_init(e.buffer->data(), max_len, mmpi::kAnySource, tag);
    rank_.start(e.req);
    entries_.push_back(std::move(e));
  }
  return Status::Ok;
}

MemReg MpiBackend::mem_reg(void* mem, std::size_t size) {
  return MemReg{rank(), mem, size};
}

Status MpiBackend::send_am(Tag tag, int remote, const void* msg,
                           std::size_t size) {
  const auto it = tags_.find(tag);
  if (it == tags_.end()) return Status::ErrTagUnregistered;
  // Oversized bodies would overflow the posted receive buffers.
  if (size > it->second.max_len) return Status::ErrTooLarge;
  // Blocking eager MPI_Send with the registered tag (§4.2.1).
  rank_.send(msg, size, remote, tag);
  ++stats_.ams_sent;
  return Status::Ok;
}

int MpiBackend::put(const MemReg& lreg, std::ptrdiff_t ldispl,
                    const MemReg& rreg, std::ptrdiff_t rdispl,
                    std::size_t size, int remote, OnesidedCallback l_cb,
                    void* l_cb_data, Tag r_tag, const void* r_cb_data,
                    std::size_t r_cb_data_size) {
  ++stats_.puts_started;
  const std::uint64_t data_tag = next_data_tag_++;

  // Handshake first: tells the target to post the matching receive.
  PutHandshake h;
  h.rbase = reinterpret_cast<std::uint64_t>(rreg.base);
  h.rdispl = rdispl;
  h.size = size;
  h.r_tag = r_tag;
  h.data_tag = data_tag;
  h.r_cb_size = static_cast<std::uint32_t>(r_cb_data_size);
  pack_handshake_into(handshake_buf_, h, r_cb_data, nullptr, 0);
  rank_.send(handshake_buf_.data(), handshake_buf_.size(), remote,
             kHandshakeTag);
  des::emit_flow(rank_.engine(), "put", put_flow_id(rank(), data_tag),
                 /*begin=*/true);

  Entry e;
  e.kind = Entry::Kind::DataSend;
  e.l_cb = std::move(l_cb);
  e.l_cb_data = l_cb_data;
  e.lreg = lreg;
  e.rreg = rreg;
  e.ldispl = ldispl;
  e.rdispl = rdispl;
  e.size = size;
  e.remote = remote;
  e.data_tag = data_tag;
  e.started = rank_.engine().now();

  if (data_active_ < cfg_.max_concurrent_transfers) {
    start_data_send(std::move(e));
  } else {
    // No space in the global array: defer posting the send (§4.2.2).
    ++stats_.puts_deferred;
    pending_.push_back(Pending{Pending::What::StartSend, std::move(e)});
  }
  return 0;
}

void MpiBackend::start_data_send(Entry&& e) {
  const void* src = nullptr;
  if (e.lreg.base != nullptr) {
    src = static_cast<const std::byte*>(e.lreg.base) + e.ldispl;
  }
  e.req = rank_.isend(src, e.size, e.remote, e.data_tag);
  push_data_entry(std::move(e));
}

void MpiBackend::push_data_entry(Entry&& e) {
  entries_.push_back(std::move(e));
  ++data_active_;
}

void MpiBackend::handle_handshake(const void* msg, std::size_t size,
                                  int src) {
  const auto parsed = HandshakeView::parse(msg, size);
  if (!parsed) {
    ++malformed_handshakes_;
    return;
  }
  const HandshakeView& v = *parsed;
  Entry e;
  e.kind = Entry::Kind::DataRecv;
  e.r_tag = v.hdr.r_tag;
  e.r_cb_size = v.hdr.r_cb_size;
  if (e.r_cb_size > kInlineCbBytes) {
    e.r_cb_spill.assign(v.r_cb_data, v.r_cb_data + e.r_cb_size);
  } else if (e.r_cb_size > 0) {
    std::memcpy(e.r_cb_inline.data(), v.r_cb_data, e.r_cb_size);
  }
  e.origin = src;
  e.size = static_cast<std::size_t>(v.hdr.size);
  e.data_tag = v.hdr.data_tag;
  e.started = rank_.engine().now();
  void* dst = nullptr;
  if (v.hdr.rbase != 0) {
    dst = reinterpret_cast<std::byte*>(v.hdr.rbase) + v.hdr.rdispl;
  }
  // The receive is posted either way; without array space the request is
  // "dynamically allocated" and not polled until promoted (§4.2.2).
  e.req = rank_.irecv(dst, e.size, src, v.hdr.data_tag);
  if (data_active_ < cfg_.max_concurrent_transfers) {
    push_data_entry(std::move(e));
  } else {
    ++stats_.recvs_dynamic;
    pending_.push_back(Pending{Pending::What::PromoteRecv, std::move(e)});
  }
}

void MpiBackend::drain_pending() {
  while (!pending_.empty() &&
         data_active_ < cfg_.max_concurrent_transfers) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (p.what == Pending::What::StartSend) {
      start_data_send(std::move(p.entry));
    } else {
      push_data_entry(std::move(p.entry));  // request already posted
    }
  }
}

void MpiBackend::run_am_callback(Entry& e, const mmpi::MpiStatus& st) {
  des::charge_current(cfg_.dispatch_cost);
  const auto it = tags_.find(e.am_tag);
  assert(it != tags_.end());
  ++stats_.ams_delivered;
  std::optional<des::ChargeSpan> span;
  if (rank_.engine().trace_sink() != nullptr) {
    char label[32];
    std::snprintf(label, sizeof label, "am 0x%llx",
                  static_cast<unsigned long long>(e.am_tag));
    span.emplace(rank_.engine(), label);
  }
  it->second.cb(*this, e.am_tag, e.buffer->data(), st.count, st.source,
                it->second.cb_data);
}

int MpiBackend::progress() {
  int total = 0;
  // §4.2.3: Testsome, execute callbacks, compact, start deferred work;
  // repeat until a pass completes nothing.
  for (;;) {
    des::charge_current(cfg_.loop_cost);
    ids_.clear();
    for (const Entry& e : entries_) ids_.push_back(e.req);
    rank_.testsome(ids_, done_);
    if (done_.indices.empty()) break;

    // A completed transfer's request is freed by mmpi; its entry keeps
    // the now-null id as the "leaves at compaction" mark.  AmRecv
    // requests are persistent and keep theirs.
    std::size_t finished = 0;
    for (std::size_t k = 0; k < done_.indices.size(); ++k) {
      const std::size_t idx = done_.indices[k];
      const mmpi::MpiStatus& st = done_.statuses[k];
      // Callbacks may append entries (reentrant put/send_am): access by
      // index, never hold references across a callback.
      switch (entries_[idx].kind) {
        case Entry::Kind::AmRecv: {
          run_am_callback(entries_[idx], st);
          rank_.start(entries_[idx].req);  // re-enable the persistent recv
          break;
        }
        case Entry::Kind::DataSend: {
          des::charge_current(cfg_.dispatch_cost);
          Entry& e = entries_[idx];
          e.req = mmpi::kNullRequest;
          ++finished;
          ++stats_.puts_completed_local;
          if (h_put_local_ != nullptr) {
            h_put_local_->add(
                static_cast<double>(rank_.engine().now() - e.started));
          }
          if (e.l_cb) {
            std::optional<des::ChargeSpan> span;
            if (rank_.engine().trace_sink() != nullptr) {
              span.emplace(rank_.engine(), "put.l_cb");
            }
            e.l_cb(*this, e.lreg, e.ldispl, e.rreg, e.rdispl, e.size,
                   e.remote, e.l_cb_data);
          }
          break;
        }
        case Entry::Kind::DataRecv: {
          des::charge_current(cfg_.dispatch_cost);
          ++stats_.puts_completed_remote;
          entries_[idx].req = mmpi::kNullRequest;
          ++finished;
          // Remote completion: invoke the AM callback registered for
          // r_tag with the callback data from the handshake.
          const Entry& e = entries_[idx];
          if (h_put_remote_ != nullptr) {
            h_put_remote_->add(
                static_cast<double>(rank_.engine().now() - e.started));
          }
          const auto it = tags_.find(e.r_tag);
          if (it == tags_.end()) {
            // r_tag came off the wire in the handshake: with no callback
            // registered for it the put completes unannounced, counted.
            ++malformed_handshakes_;
            break;
          }
          std::optional<des::ChargeSpan> span;
          if (rank_.engine().trace_sink() != nullptr) {
            span.emplace(rank_.engine(), "put.r_cb");
          }
          des::emit_flow(rank_.engine(), "put",
                         put_flow_id(e.origin, e.data_tag),
                         /*begin=*/false);
          // A reentrant put may grow entries_ and move this entry's
          // inline bytes, so the callback reads a copy on the stack.
          std::array<std::byte, kInlineCbBytes> cb_copy{};
          const std::byte* cb_data = e.r_cb_spill.data();
          if (e.r_cb_size <= kInlineCbBytes) {
            std::memcpy(cb_copy.data(), e.r_cb_inline.data(), e.r_cb_size);
            cb_data = cb_copy.data();
          }
          it->second.cb(*this, e.r_tag, cb_data, e.r_cb_size, e.origin,
                        it->second.cb_data);
          break;
        }
      }
      ++total;
    }

    // Compact in place, keeping order: completed transfers leave, free
    // space is at the back.  Entries appended by callbacks carry live
    // ids and stay.
    if (finished > 0) {
      std::size_t w = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].req == mmpi::kNullRequest) continue;
        if (w != i) entries_[w] = std::move(entries_[i]);
        ++w;
      }
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(w),
                     entries_.end());
      data_active_ -= static_cast<int>(finished);
    }

    drain_pending();
  }
  return total;
}

void MpiBackend::peer_failed(int remote) {
  // A transfer wedged on a dead peer never completes through MPI: cancel
  // its request and release its array slot so the 30-entry cap (§4.2.2)
  // is not permanently consumed by a corpse.  Idempotent — after the
  // first call nothing matching `remote` remains.
  std::size_t recvs = 0;
  std::vector<Entry> released_sends;
  std::size_t w = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    const bool doomed =
        (e.kind == Entry::Kind::DataSend && e.remote == remote) ||
        (e.kind == Entry::Kind::DataRecv && e.origin == remote);
    if (!doomed) {
      if (w != i) entries_[w] = std::move(e);
      ++w;
      continue;
    }
    --data_active_;
    rank_.cancel(e.req);
    if (e.kind == Entry::Kind::DataSend) {
      // Put sends are locally complete the moment the data leaves the
      // origin buffer; the origin callback still fires so upper layers
      // can release the tile.  The remote side is dead — no r_cb.
      ++stats_.peer_failed_sends;
      released_sends.push_back(std::move(e));
    } else {
      // Dropped without any callback: the data never arrived, so faking
      // remote completion would hand garbage to the consumer.
      ++stats_.peer_failed_recvs;
      ++recvs;
    }
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(w),
                 entries_.end());

  // Deferred work targeting the corpse: deferred sends were never posted
  // (req unset); dynamic recvs hold a live request that must be dropped.
  for (auto it = pending_.begin(); it != pending_.end();) {
    Entry& e = it->entry;
    if (it->what == Pending::What::StartSend && e.remote == remote) {
      ++stats_.peer_failed_sends;
      released_sends.push_back(std::move(e));
      it = pending_.erase(it);
    } else if (it->what == Pending::What::PromoteRecv &&
               e.origin == remote) {
      rank_.cancel(e.req);
      ++stats_.peer_failed_recvs;
      ++recvs;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  rank_.purge_peer(remote);
  if (rec_ != nullptr && released_sends.size() + recvs > 0) {
    rec_->counter("ce.peer_failed_cancels").add(released_sends.size() + recvs);
  }
  for (Entry& e : released_sends) {
    if (e.l_cb) {
      e.l_cb(*this, e.lreg, e.ldispl, e.rreg, e.rdispl, e.size, e.remote,
             e.l_cb_data);
    }
  }
  drain_pending();
  if (wake_) wake_();
}

bool MpiBackend::idle() const {
  // Unmatched arrivals count as work in flight: an AM for a tag this
  // engine never registered would otherwise sit unseen forever.
  return pending_.empty() && rank_.pending_incoming() == 0 &&
         rank_.unexpected_messages() == 0 && data_active_ == 0;
}

}  // namespace ce

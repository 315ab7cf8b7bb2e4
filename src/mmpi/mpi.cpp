#include "mmpi/mpi.hpp"

#include <cassert>
#include <cstring>

namespace mmpi {

Rank::~Rank() = default;

Rank::Rank(Mpi& mpi, int rank)
    : mpi_(mpi),
      rank_(rank),
      send_seq_(static_cast<std::size_t>(mpi.fabric().num_nodes()), 0) {}

Mpi::Mpi(net::Fabric& fabric, Config config)
    : fabric_(fabric), cfg_(config) {
  const int n = fabric.num_nodes();
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ranks_.emplace_back(std::unique_ptr<Rank>(new Rank(*this, r)));
    fabric.nic(r).set_deliver_handler([this, r](net::Message&& m) {
      if (m.hdr.proto == net::kProtoMpi) rank(r).deliver(std::move(m));
    });
  }
}

Mpi::~Mpi() {
  for (int r = 0; r < size(); ++r) {
    fabric_.nic(r).set_deliver_handler(nullptr);
  }
}

int Rank::size() const { return mpi_.size(); }

des::Engine& Rank::engine() { return mpi_.fabric().engine(); }

std::uint64_t Rank::next_seq(int dst) {
  assert(dst >= 0 && static_cast<std::size_t>(dst) < send_seq_.size());
  return send_seq_[static_cast<std::size_t>(dst)]++;
}

void Rank::charge_thread_switch() {
  des::SimThread* caller = des::SimThread::current();
  if (caller == nullptr) return;  // test-driver calls model no CPU
  if (last_caller_ != nullptr && caller != last_caller_) {
    des::charge_current(mpi_.cfg_.thread_switch_cost);
  }
  last_caller_ = caller;
}

void Rank::deliver(net::Message&& m) {
  // Hardware queue: no software cost until some MPI call progresses.
  incoming_.push_back(std::move(m));
  notify();
}

// ---------------------------------------------------------------------------
// Request slab

Rank::Request& Rank::new_request(Request::Kind kind, Request::State state) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Request& r = slots_[slot];
  const std::uint32_t gen = r.gen;
  r = Request{};
  r.gen = gen;
  r.kind = kind;
  r.state = state;
  r.id = (static_cast<RequestId>(gen) << 32) | slot;
  if (state == Request::State::Complete) ++complete_;
  return r;
}

Rank::Request* Rank::find(RequestId id) {
  const auto slot = static_cast<std::size_t>(id & 0xFFFF'FFFFu);
  if (id == kNullRequest || slot >= slots_.size()) return nullptr;
  Request& r = slots_[slot];
  return r.id == id ? &r : nullptr;
}

void Rank::free_slot(Request& r) {
  if (r.state == Request::State::Complete) --complete_;
  free_slots_.push_back(static_cast<std::uint32_t>(r.id & 0xFFFF'FFFFu));
  r.id = kNullRequest;
  r.state = Request::State::Inactive;
  r.staged.reset();
  if (++r.gen == 0) r.gen = 1;  // generation 0 would let id 0 name slot 0
}

void Rank::set_complete(Request& r) {
  if (r.state == Request::State::Complete) return;
  r.state = Request::State::Complete;
  ++complete_;
}

// ---------------------------------------------------------------------------
// Sending

void Rank::send(const void* buf, std::size_t bytes, int dst, Tag tag) {
  assert(bytes <= mpi_.cfg_.eager_threshold &&
         "blocking mmpi send() supports only eager-size messages");
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead);
  if (buf != nullptr && bytes > 0) {
    des::charge_current(des::transfer_time(bytes, cfg.copy_bandwidth_Bps));
  }
  net::Message m;
  m.src = rank_;
  m.dst = dst;
  m.wire_bytes = cfg.header_bytes + bytes;
  m.hdr.proto = net::kProtoMpi;
  m.hdr.kind = kEager;
  m.hdr.tag = tag;
  m.hdr.seq = next_seq(dst);
  m.hdr.size = bytes;
  if (buf != nullptr && bytes > 0) m.payload = net::make_payload(buf, bytes);
  mpi_.fabric_.nic(rank_).send(std::move(m));
}

RequestId Rank::isend(const void* buf, std::size_t bytes, int dst, Tag tag) {
  const Config& cfg = mpi_.cfg_;
  if (bytes <= cfg.eager_threshold) {
    // Eager: buffered semantics, locally complete at the call.
    send(buf, bytes, dst, tag);
    Request& r = new_request(Request::Kind::Send, Request::State::Complete);
    r.dst = dst;
    r.tag = tag;
    r.bytes = bytes;
    return r.id;
  }

  charge_thread_switch();
  des::charge_current(cfg.call_overhead + cfg.rendezvous_cost);
  Request& r = new_request(Request::Kind::Send, Request::State::Active);
  r.sbuf = buf;
  r.bytes = bytes;
  r.dst = dst;
  r.tag = tag;
  if (buf != nullptr) r.staged = net::make_payload(buf, bytes);

  net::Message rts;
  rts.src = rank_;
  rts.dst = dst;
  rts.wire_bytes = cfg.header_bytes;
  rts.hdr.proto = net::kProtoMpi;
  rts.hdr.kind = kRts;
  rts.hdr.tag = tag;
  rts.hdr.seq = next_seq(dst);
  rts.hdr.size = bytes;
  rts.hdr.imm[0] = r.id;
  mpi_.fabric_.nic(rank_).send(std::move(rts));
  return r.id;
}

// ---------------------------------------------------------------------------
// Receiving

RequestId Rank::irecv(void* buf, std::size_t capacity, int src, Tag tag) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request& r = new_request(Request::Kind::Recv, Request::State::Active);
  r.rbuf = buf;
  r.capacity = capacity;
  r.src = src;
  r.tag = tag;
  const RequestId id = r.id;
  post_recv(r);
  return id;
}

RequestId Rank::recv_init(void* buf, std::size_t capacity, int src, Tag tag) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request& r = new_request(Request::Kind::Recv, Request::State::Inactive);
  r.persistent = true;
  r.rbuf = buf;
  r.capacity = capacity;
  r.src = src;
  r.tag = tag;
  return r.id;
}

RequestId Rank::send_init(const void* buf, std::size_t bytes, int dst,
                          Tag tag) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request& r = new_request(Request::Kind::Send, Request::State::Inactive);
  r.persistent = true;
  r.sbuf = buf;
  r.bytes = bytes;
  r.dst = dst;
  r.tag = tag;
  return r.id;
}

void Rank::start(RequestId id) {
  des::charge_current(mpi_.cfg_.call_overhead);
  Request* const found = find(id);
  assert(found != nullptr && "start() on unknown request");
  Request& r = *found;
  assert(r.persistent && r.state == Request::State::Inactive);
  r.state = Request::State::Active;
  if (r.kind == Request::Kind::Recv) {
    post_recv(r);
  } else if (r.bytes <= mpi_.cfg_.eager_threshold) {
    // Persistent send: re-issue as an eager or rendezvous send.
    send(r.sbuf, r.bytes, r.dst, r.tag);
    set_complete(r);
  } else {
    // isend() may grow the slab: `r` is dead after this call.  Track the
    // underlying transfer by aliasing: completion of the temporary marks
    // the persistent request complete.
    const RequestId tmp = isend(r.sbuf, r.bytes, r.dst, r.tag);
    find(tmp)->imm_alias = id;
  }
}

void Rank::post_recv(Request& r) {
  const Config& cfg = mpi_.cfg_;

  // First, search the unexpected queue (FIFO preserves MPI's
  // non-overtaking matching order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    des::charge_current(cfg.match_scan_cost);
    net::Message& m = *it;
    const bool src_ok = (r.src == kAnySource || r.src == m.src);
    if (!src_ok || r.tag != m.hdr.tag) continue;
    if (m.hdr.kind == kEager) {
      complete_recv_from_message(r, m);
      unexpected_.erase(it);
      return;
    }
    if (m.hdr.kind == kRts) {
      net::Message rts = std::move(m);
      unexpected_.erase(it);
      accept_rts(r, rts);
      return;
    }
  }
  posted_recvs_.push_back(PostedRecv{r.id, r.src, r.tag});
}

void Rank::accept_rts(Request& r, net::Message& rts) {
  const Config& cfg = mpi_.cfg_;
  des::charge_current(cfg.rendezvous_cost);
  r.status.source = rts.src;
  r.status.tag = rts.hdr.tag;
  r.status.count = static_cast<std::size_t>(rts.hdr.size);
  net::Message cts;
  cts.src = rank_;
  cts.dst = rts.src;
  cts.wire_bytes = cfg.header_bytes;
  cts.hdr.proto = net::kProtoMpi;
  cts.hdr.kind = kCts;
  cts.hdr.tag = rts.hdr.tag;
  cts.hdr.imm[0] = rts.hdr.imm[0];  // sender's request id
  cts.hdr.imm[1] = r.id;            // our request id (for DATA routing)
  mpi_.fabric_.nic(rank_).send(std::move(cts));
}

void Rank::complete_recv_from_message(Request& r, net::Message& m) {
  const Config& cfg = mpi_.cfg_;
  const auto n = static_cast<std::size_t>(m.hdr.size);
  const std::size_t copied = n < r.capacity ? n : r.capacity;
  if (r.rbuf != nullptr && m.payload != nullptr && copied > 0) {
    des::charge_current(des::transfer_time(copied, cfg.copy_bandwidth_Bps));
    std::memcpy(r.rbuf, m.payload->data(), copied);
  }
  r.status.source = m.src;
  r.status.tag = m.hdr.tag;
  r.status.count = copied;
  set_complete(r);
}

// ---------------------------------------------------------------------------
// Progress

Rank::Request* Rank::find_matching_posted(int src, Tag tag) {
  const Config& cfg = mpi_.cfg_;
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    des::charge_current(cfg.match_scan_cost);
    const bool src_ok = (it->src == kAnySource || it->src == src);
    if (src_ok && it->tag == tag) {
      // Posted entries leave the queue before their request is freed
      // (cancel), so the id is live.
      Request* const r = find(it->id);
      posted_recvs_.erase(it);
      return r;
    }
  }
  return nullptr;
}

void Rank::handle_eager(net::Message& m) {
  if (Request* r = find_matching_posted(m.src, m.hdr.tag)) {
    complete_recv_from_message(*r, m);
  } else {
    des::charge_current(mpi_.cfg_.unexpected_cost);
    unexpected_.push_back(std::move(m));
  }
}

void Rank::handle_rts(net::Message& m) {
  if (Request* r = find_matching_posted(m.src, m.hdr.tag)) {
    accept_rts(*r, m);
  } else {
    des::charge_current(mpi_.cfg_.unexpected_cost);
    unexpected_.push_back(std::move(m));
  }
}

void Rank::handle_cts(net::Message& m) {
  const Config& cfg = mpi_.cfg_;
  des::charge_current(cfg.rendezvous_cost);
  // The id comes off the wire: only an active rendezvous send of ours may
  // answer it.
  Request* const found = find(m.hdr.imm[0]);
  if (found == nullptr || found->kind != Request::Kind::Send ||
      found->state != Request::State::Active) {
    ++malformed_frames_;
    return;
  }
  Request& r = *found;
  net::Message data;
  data.src = rank_;
  data.dst = m.src;
  data.wire_bytes = cfg.header_bytes + r.bytes;
  data.hdr.proto = net::kProtoMpi;
  data.hdr.kind = kData;
  data.hdr.tag = r.tag;
  data.hdr.size = r.bytes;
  data.hdr.imm[0] = m.hdr.imm[1];  // receiver's request id
  data.payload = r.staged;
  // Local completion when the last byte leaves the NIC (RDMA semantics:
  // the send buffer is then reusable).  The state flip is a hardware CQ
  // write; the completion is *observed* at the next test/testsome.
  const RequestId sid = r.id;
  mpi_.fabric_.nic(rank_).send(std::move(data), [this, sid]() {
    Request* const s = find(sid);
    if (s == nullptr) return;
    set_complete(*s);
    if (s->imm_alias != kNullRequest) {
      // Persistent-send alias: complete the persistent request too and
      // drop the temporary.
      if (Request* const p = find(s->imm_alias)) set_complete(*p);
      free_slot(*s);
    }
    notify();
  });
}

void Rank::handle_data(net::Message& m) {
  // The id comes off the wire: only a receive of ours that accepted an
  // RTS (still active) may take the data.
  Request* const found = find(m.hdr.imm[0]);
  if (found == nullptr || found->kind != Request::Kind::Recv ||
      found->state != Request::State::Active) {
    ++malformed_frames_;
    return;
  }
  Request& r = *found;
  // RDMA write: payload lands without a CPU copy; just complete.
  if (r.rbuf != nullptr && m.payload != nullptr) {
    const auto n = static_cast<std::size_t>(m.hdr.size);
    const std::size_t copied = n < r.capacity ? n : r.capacity;
    std::memcpy(r.rbuf, m.payload->data(), copied);
    r.status.count = copied;
  } else {
    r.status.count = static_cast<std::size_t>(m.hdr.size);
  }
  r.status.source = m.src;
  r.status.tag = m.hdr.tag;
  set_complete(r);
}

void Rank::progress() {
  // Index access: the queue may grow while a frame is handled.
  while (head_ < incoming_.size()) {
    net::Message m = std::move(incoming_[head_++]);
    switch (m.hdr.kind) {
      case kEager:
        handle_eager(m);
        break;
      case kRts:
        handle_rts(m);
        break;
      case kCts:
        handle_cts(m);
        break;
      case kData:
        handle_data(m);
        break;
      default:
        ++malformed_frames_;  // dropped unread
    }
  }
  incoming_.clear();
  head_ = 0;
}

// ---------------------------------------------------------------------------
// Completion

void Rank::testsome(std::span<const RequestId> reqs, TestsomeResult& out) {
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead);
  progress();
  out.indices.clear();
  out.statuses.clear();
  // The model charges the whole array scan; the host walk stops once no
  // complete request is left on this rank.
  des::charge_current(static_cast<des::Duration>(reqs.size()) *
                      cfg.request_scan_cost);
  for (std::size_t i = 0; i < reqs.size() && complete_ > 0; ++i) {
    Request* const r = find(reqs[i]);
    if (r == nullptr || r->state != Request::State::Complete) continue;
    out.indices.push_back(i);
    out.statuses.push_back(r->status);
    if (r->persistent) {
      r->state = Request::State::Inactive;
      --complete_;
    } else {
      free_slot(*r);
    }
  }
}

Rank::TestsomeResult Rank::testsome(std::span<const RequestId> reqs) {
  TestsomeResult out;
  testsome(reqs, out);
  return out;
}

bool Rank::test(RequestId id, MpiStatus* st) {
  const Config& cfg = mpi_.cfg_;
  charge_thread_switch();
  des::charge_current(cfg.call_overhead + cfg.request_scan_cost);
  progress();
  Request* const r = find(id);
  if (r == nullptr || r->state != Request::State::Complete) return false;
  if (st != nullptr) *st = r->status;
  if (r->persistent) {
    r->state = Request::State::Inactive;
    --complete_;
  } else {
    free_slot(*r);
  }
  return true;
}

void Rank::poll() {
  charge_thread_switch();
  des::charge_current(mpi_.cfg_.call_overhead);
  progress();
}

void Rank::free_request(RequestId id) {
  Request* const r = find(id);
  if (r == nullptr) return;
  assert(r->state != Request::State::Active && "freeing an active request");
  free_slot(*r);
}

void Rank::cancel(RequestId id) {
  Request* const r = find(id);
  if (r == nullptr) return;
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (it->id == id) {
      posted_recvs_.erase(it);
      break;
    }
  }
  free_slot(*r);
}

std::size_t Rank::purge_peer(int peer) {
  // Queued traffic from the dead peer will never be matched: flush it
  // from the hardware and unexpected queues before touching requests so
  // no handler resurrects it.
  incoming_.erase(incoming_.begin(),
                  incoming_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  std::erase_if(incoming_, [peer](const net::Message& m) {
    return m.src == peer;
  });
  std::erase_if(unexpected_, [peer](const net::Message& m) {
    return m.src == peer;
  });

  std::size_t cancelled = 0;
  for (Request& r : slots_) {
    if (r.id == kNullRequest || r.state != Request::State::Active) continue;
    // Wildcard receives stay posted — another rank can still match.
    if ((r.kind == Request::Kind::Send && r.dst == peer) ||
        (r.kind == Request::Kind::Recv && r.src == peer)) {
      cancel(r.id);
      ++cancelled;
    }
  }
  return cancelled;
}

}  // namespace mmpi

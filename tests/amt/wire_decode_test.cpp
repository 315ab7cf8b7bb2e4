// Fail-closed decoding of the runtime's control messages and the put
// handshake: every truncation of a valid message, and every single-bit
// flip of a count or length field, is rejected without reading past the
// buffer.  Decodes run on exact-size heap copies, so an over-read is a
// heap-buffer-overflow under AddressSanitizer (`wire_decode_sanitized`).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "amt/wire.hpp"
#include "ce/put_protocol.hpp"

namespace {

using Bytes = std::vector<std::byte>;

std::unique_ptr<std::byte[]> exact_copy(const Bytes& buf, std::size_t len) {
  auto out = std::make_unique<std::byte[]>(len);
  if (len > 0) std::memcpy(out.get(), buf.data(), len);
  return out;
}

// Flips bit `bit` of the little-endian field starting at byte `off`.
Bytes flipped(Bytes buf, std::size_t off, int bit) {
  buf[off + static_cast<std::size_t>(bit / 8)] ^= std::byte(1u << (bit % 8));
  return buf;
}

auto activate(const Bytes& buf, std::size_t len) {
  return amt::wire::unpack_activate(exact_copy(buf, len).get(), len);
}

// Parses and, like the backends, copies every byte the view points at.
bool handshake_ok(const Bytes& buf, std::size_t len) {
  const auto copy = exact_copy(buf, len);
  const auto v = ce::HandshakeView::parse(copy.get(), len);
  if (!v) return false;
  Bytes sink(v->r_cb_data, v->r_cb_data + v->hdr.r_cb_size);
  if (v->eager_data != nullptr) {
    sink.assign(v->eager_data, v->eager_data + v->hdr.size);
  }
  return true;
}

TEST(WireDecode, ActivateRejectsTruncationAndCorruptLengths) {
  std::vector<amt::wire::ActivationRecord> recs(3);
  recs[0].subtree = {4, 5, 6};
  recs[1].size = 8192;
  recs[2].subtree = {9};
  const Bytes buf = amt::wire::pack_activate(recs);
  const auto got = activate(buf, buf.size());
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ((*got)[1].size, 8192u);
  EXPECT_EQ(amt::wire::pack_activate(*got), buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(activate(buf, len)) << "length " << len;
  }
  Bytes longer = buf;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(activate(longer, longer.size()));

  // Record count at byte 0; a record's subtree length closes its fixed part.
  const std::size_t fixed = amt::wire::record_wire_size({});
  const std::size_t len0 = fixed;
  const std::size_t len1 = len0 + 3 * 4 + fixed;
  const std::size_t len2 = len1 + fixed;
  ASSERT_EQ(buf[len0], std::byte{3});
  ASSERT_EQ(buf[len2], std::byte{1});
  int rejected = 0;
  for (const std::size_t off : {std::size_t{0}, len0, len1, len2}) {
    for (int bit = 0; bit < 16; ++bit) {
      const Bytes bad = flipped(buf, off, bit);
      const auto res = activate(bad, bad.size());
      // A flip of the count or the last length moves the end: rejected.
      // One in an earlier length shifts every later field, and shifted
      // bytes can happen to parse (a checksum, not a length check, would
      // catch that); the decoder then returns exactly what they encode.
      if (off == 0 || off == len2) {
        EXPECT_FALSE(res) << off << ":" << bit;
      } else if (res) {
        EXPECT_EQ(amt::wire::pack_activate(*res), bad) << off << ":" << bit;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(WireDecode, FixedSizeMessagesRejectAnyOtherLength) {
  amt::wire::GetDataMsg g;
  g.rsize = 77;
  Bytes buf(sizeof g + 1);
  std::memcpy(buf.data(), &g, sizeof g);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const auto got = amt::wire::unpack_pod<amt::wire::GetDataMsg>(
        exact_copy(buf, len).get(), len);
    EXPECT_EQ(got.has_value(), len == sizeof g) << "length " << len;
    if (got) {
      EXPECT_EQ(got->rsize, 77u);
    }
  }
}

TEST(WireDecode, HandshakeRejectsTruncationAndCorruptLengths) {
  const Bytes cb(24, std::byte{0xAB});
  const Bytes payload(40, std::byte{0xCD});
  for (const bool eager : {false, true}) {
    ce::PutHandshake h;
    h.size = payload.size();
    h.r_cb_size = static_cast<std::uint32_t>(cb.size());
    h.flags = eager ? ce::kHandshakeEagerData : 0;
    const Bytes buf =
        ce::pack_handshake(h, cb.data(), payload.data(), eager ? 40 : 0);
    const auto v = ce::HandshakeView::parse(buf.data(), buf.size());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->r_cb_data, buf.data() + sizeof h);
    EXPECT_EQ(v->eager_data, eager ? v->r_cb_data + cb.size() : nullptr);
    EXPECT_TRUE(handshake_ok(buf, buf.size()));
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_FALSE(handshake_ok(buf, len)) << eager << ", length " << len;
    }
    Bytes longer = buf;
    longer.push_back(std::byte{0});
    EXPECT_FALSE(handshake_ok(longer, longer.size()));
    const auto flips = [&](std::size_t off, int bits) {
      for (int bit = 0; bit < bits; ++bit) {
        const Bytes bad = flipped(buf, off, bit);
        EXPECT_FALSE(handshake_ok(bad, bad.size())) << off << ":" << bit;
      }
    };
    flips(offsetof(ce::PutHandshake, r_cb_size), 32);
    flips(offsetof(ce::PutHandshake, flags), 1);  // the eager bit
    if (eager) flips(offsetof(ce::PutHandshake, size), 64);
  }
}

}  // namespace

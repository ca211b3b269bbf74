#include "rpc/serialize.h"

namespace spcache::rpc {

void BufferWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BufferWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BufferWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BufferWriter::bytes(std::span<const std::uint8_t> data) {
  if (data.size() > 0xFFFFFFFFull) throw std::runtime_error("BufferWriter: bytes too long");
  // One exact allocation for prefix + payload instead of letting the
  // doubling growth copy a multi-megabyte piece several times.
  reserve(4 + data.size());
  u32(static_cast<std::uint32_t>(data.size()));
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void BufferWriter::str(const std::string& s) {
  bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void BufferReader::need(std::size_t n) {
  // Locate the failure precisely: wire debugging of a bad frame needs to
  // know *where* in a multi-field payload the decode fell off the end.
  if (remaining() < n) {
    throw std::runtime_error("BufferReader: truncated message: need " + std::to_string(n) +
                             " byte(s) at offset " + std::to_string(pos_) + ", but only " +
                             std::to_string(remaining()) + " of " + std::to_string(data_.size()) +
                             " remain");
  }
}

std::uint8_t BufferReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t BufferReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t BufferReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint32_t BufferReader::count(std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (n > remaining() / min_element_bytes) {
    throw std::runtime_error("BufferReader: element count " + std::to_string(n) + " exceeds the " +
                             std::to_string(remaining()) + " byte(s) that remain");
  }
  return n;
}

double BufferReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint8_t> BufferReader::bytes() {
  const auto view = bytes_view();
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

std::span<const std::uint8_t> BufferReader::bytes_view() {
  const std::size_t prefix_at = pos_;
  const std::uint32_t len = u32();
  if (remaining() < len) {
    // Distinguish a lying length prefix from plain truncation: report both
    // the prefix's own offset and the length it promised.
    throw std::runtime_error("BufferReader: byte string at offset " + std::to_string(prefix_at) +
                             " declares " + std::to_string(len) + " byte(s) but only " +
                             std::to_string(remaining()) + " of " + std::to_string(data_.size()) +
                             " remain");
  }
  const auto view = data_.subspan(pos_, len);
  pos_ += len;
  return view;
}

std::string BufferReader::str() {
  const auto b = bytes();
  return std::string(b.begin(), b.end());
}

}  // namespace spcache::rpc

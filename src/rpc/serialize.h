// Binary serialization for RPC payloads.
//
// The cluster components (SP-Master, SP-Clients, cache servers,
// SP-Repartitioners) exchange small, fixed-schema messages plus raw block
// bytes. A tiny explicit writer/reader pair keeps the wire format obvious
// and versionable without dragging in a serialization framework:
// little-endian fixed-width integers, doubles as IEEE-754 bit patterns,
// and length-prefixed byte strings. Readers validate bounds and throw
// std::runtime_error on truncated or oversized input.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace spcache::rpc {

class BufferWriter {
 public:
  // Pre-size the buffer for a message whose length is known (or cheaply
  // bounded) up front — e.g. a multi-block reply that sums its payload
  // sizes first. Turns the O(log n) doubling reallocations of a large
  // append sequence into one allocation; appends stay amortized O(1).
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  // Append `n` writable bytes and return the region, for producers that
  // build their bytes in place — e.g. a fused copy+CRC straight into the
  // reply payload instead of staging through an intermediate buffer. The
  // span is invalidated by any further append.
  std::span<std::uint8_t> extend(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return {buf_.data() + buf_.size() - n, n};
  }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  // Length-prefixed (u32) byte string.
  void bytes(std::span<const std::uint8_t> data);
  void str(const std::string& s);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  // A u32 element count for a list whose elements each encode to at least
  // `min_element_bytes`. Throws if the count could not fit in what
  // remains, so a forged count never sizes an allocation.
  std::uint32_t count(std::size_t min_element_bytes);
  std::vector<std::uint8_t> bytes();
  // Non-copying variant: a view into the underlying frame, valid only
  // while that frame is alive. Lets reassembly copy payloads exactly once,
  // straight to their final destination.
  std::span<const std::uint8_t> bytes_view();
  std::string str();

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace spcache::rpc

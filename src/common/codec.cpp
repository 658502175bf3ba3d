#include "common/codec.hpp"

#include <cstring>

#include "common/alloc_stats.hpp"

namespace bmg {

void Encoder::ensure(std::size_t more) {
  if (cap_ - size_ >= more) return;
  std::size_t cap = cap_ < 16 ? 32 : cap_ * 2;
  if (cap < size_ + more) cap = size_ + more;
  // Owning mode, or caller-buffer mode spilling to the heap.  resize
  // (not reserve) so data_ may legally point at [0, cap).
  own_.resize(cap);
  if (scratch_ != nullptr) {
    std::memcpy(own_.data(), scratch_, size_);
    scratch_ = nullptr;
  }
  data_ = own_.data();
  cap_ = cap;
}

Bytes Encoder::take() {
  if (scratch_ == nullptr) {
    own_.resize(size_);
    Bytes result = std::move(own_);
    own_ = Bytes();
    data_ = nullptr;
    size_ = cap_ = 0;
    return result;
  }
  return Bytes(data_, data_ + size_);
}

Encoder& Encoder::u8(std::uint8_t v) {
  *grip(1) = v;
  return *this;
}

Encoder& Encoder::u16(std::uint16_t v) {
  std::uint8_t* p = grip(2);
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
  return *this;
}

Encoder& Encoder::u32(std::uint32_t v) {
  std::uint8_t* p = grip(4);
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
  return *this;
}

Encoder& Encoder::u64(std::uint64_t v) {
  std::uint8_t* p = grip(8);
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  return *this;
}

Encoder& Encoder::raw(ByteView data) {
  alloc_stats::count_copy(data.size());
  std::uint8_t* p = grip(data.size());
  if (!data.empty()) std::memcpy(p, data.data(), data.size());
  return *this;
}

Encoder& Encoder::bytes(ByteView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  return raw(data);
}

Encoder& Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  alloc_stats::count_copy(s.size());
  std::uint8_t* p = grip(s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return *this;
}

Encoder& Encoder::hash(const Hash32& h) { return raw(h.view()); }

Encoder& Encoder::boolean(bool v) { return u8(v ? 1 : 0); }

void Decoder::need(std::size_t n) const {
  if (data_.size() - pos_ < n) throw CodecError("decoder: truncated input");
}

std::uint8_t Decoder::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Decoder::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

ByteView Decoder::view(std::size_t n) {
  need(n);
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

ByteView Decoder::bytes_view() {
  const std::uint32_t n = u32();
  return view(n);
}

std::string_view Decoder::str_view() {
  const ByteView v = bytes_view();
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

Bytes Decoder::raw(std::size_t n) {
  alloc_stats::count_copy(n);
  const ByteView v = view(n);
  return Bytes(v.begin(), v.end());
}

Bytes Decoder::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

std::string Decoder::str() {
  const std::string_view v = str_view();
  alloc_stats::count_copy(v.size());
  return std::string(v);
}

Hash32 Decoder::hash() {
  const ByteView v = view(32);
  Hash32 h;
  std::memcpy(h.bytes.data(), v.data(), 32);
  return h;
}

bool Decoder::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("decoder: bad boolean");
  return v == 1;
}

void Decoder::expect_done() const {
  if (!done()) throw CodecError("decoder: trailing bytes");
}

}  // namespace bmg

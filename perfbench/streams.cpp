#include "perfbench/streams.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

TimedFastqBuf::TimedFastqBuf(const std::string& text)
    : text_(&text),
      stamps_((text.size() + kBlockBytes - 1) / kBlockBytes + 1) {}

TimedFastqBuf::int_type TimedFastqBuf::underflow() {
  const std::size_t begin = next_block_ * kBlockBytes;
  if (begin >= text_->size()) return traits_type::eof();
  const std::size_t end = std::min(begin + kBlockBytes, text_->size());
  stamps_[next_block_] = Clock::now();
  ++next_block_;
  char* base = const_cast<char*>(text_->data());
  setg(base + begin, base + begin, base + end);
  return traits_type::to_int_type(*gptr());
}

DigestBuf::DigestBuf() : buffer_(1 << 16) {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

void DigestBuf::mix(std::uint64_t word) {
  std::uint64_t h = digest_.hash ^ word;
  h *= 0x100000001B3ull;
  digest_.hash = (h << 31) | (h >> 33);
}

void DigestBuf::consume(const char* data, std::size_t n) {
  digest_.bytes += n;
  digest_.lines += static_cast<std::uint64_t>(std::count(data, data + n, '\n'));
  std::size_t i = 0;
  while (carry_bytes_ != 0 && i < n) {
    carry_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i++]))
              << (8 * carry_bytes_);
    if (++carry_bytes_ == 8) {
      mix(carry_);
      carry_ = 0;
      carry_bytes_ = 0;
    }
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    mix(word);
  }
  for (; i < n; ++i) {
    carry_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
              << (8 * carry_bytes_);
    ++carry_bytes_;
  }
}

DigestBuf::int_type DigestBuf::overflow(int_type ch) {
  consume(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int DigestBuf::sync() {
  consume(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  return 0;
}

SamDigest DigestBuf::finish() {
  sync();
  SamDigest out = digest_;
  if (carry_bytes_ != 0) {
    std::uint64_t h = out.hash ^ carry_;
    out.hash = h * 0x100000001B3ull;
  }
  return out;
}

}  // namespace perfbench

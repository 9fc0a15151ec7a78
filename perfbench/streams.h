// Stream buffers the batch workloads wrap around the program's FASTQ input
// and SAM output, so both ends are observed without touching disk:
//  * TimedFastqBuf hands an in-memory FASTQ text to the reader in fixed
//    blocks and stamps when each block was taken, which gives each read the
//    instant its record became available (the start of its latency);
//  * DigestBuf swallows rendered SAM, counting bytes and lines and hashing
//    the content independently of how the writer chunks it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"

namespace perfbench {

class TimedFastqBuf : public std::streambuf {
 public:
  static constexpr std::size_t kBlockBytes = 4096;

  explicit TimedFastqBuf(const std::string& text);

  /// When the block holding byte `offset` was handed to the reader.
  Clock::time_point taken_at(std::size_t offset) const {
    return stamps_[offset / kBlockBytes];
  }

 protected:
  int_type underflow() override;

 private:
  const std::string* text_;
  std::size_t next_block_ = 0;
  std::vector<Clock::time_point> stamps_;
};

struct SamDigest {
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  std::uint64_t hash = 0;
  bool operator==(const SamDigest&) const = default;
};

class DigestBuf : public std::streambuf {
 public:
  DigestBuf();
  /// Flushes pending bytes and returns the digest of everything written.
  SamDigest finish();

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  void consume(const char* data, std::size_t n);
  void mix(std::uint64_t word);

  std::vector<char> buffer_;
  SamDigest digest_;
  std::uint64_t carry_ = 0;    ///< Bytes of an incomplete 8-byte word.
  unsigned carry_bytes_ = 0;
};

}  // namespace perfbench

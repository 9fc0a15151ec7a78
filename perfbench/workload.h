// Seeded workload generator shared by every benchmark workload.
//
// One reference for all workloads: a 4 Mbp synthetic genome, about half of
// it planted near-duplicate repeats, generated from a fixed seed (the paper
// aligns many read sets against one reference). Everything else -- reads,
// FASTQ text, wire requests -- derives from the --seed argument, so the
// same seed gives the same inputs and the program under test only ever sees
// the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/genome/alphabet.h"
#include "src/genome/packed_sequence.h"
#include "src/readsim/read_simulator.h"

namespace perfbench {

namespace genome = pim::genome;
namespace readsim = pim::readsim;

inline constexpr std::size_t kReferenceBases = 4'000'000;
inline constexpr double kRepeatFraction = 0.5;
inline constexpr std::uint64_t kReferenceSeed = 20200309;
inline constexpr std::uint32_t kReadLength = 100;

/// Error-free reads, or the paper's Sec. VI profile (the simulator's
/// defaults: 0.1% population variation, 0.2% substitution errors).
enum class ReadProfile { kClean, kPaper };

/// Independent sub-seeds for the different inputs of one run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

genome::PackedSequence make_reference();

readsim::ReadSet make_reads(const genome::PackedSequence& reference,
                            ReadProfile profile, std::size_t count,
                            std::uint64_t seed);

/// FASTQ text of a read set plus the byte offset one past each record, so a
/// reader of the text can tell when each record became available.
struct FastqText {
  std::string text;
  std::vector<std::size_t> record_end;
};
FastqText to_fastq_text(const readsim::ReadSet& reads,
                        const std::string& prefix);

/// Unpacked bases of each read (request payloads, direct engine calls).
std::vector<std::vector<genome::Base>> bases_of(const readsim::ReadSet& reads);

}  // namespace perfbench

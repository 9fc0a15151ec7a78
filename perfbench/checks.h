// Output checks computed apart from the program: plain loops over the
// reference and the simulator's ground truth, never a copy of an earlier
// run's output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/workload.h"
#include "src/align/aligner.h"
#include "src/genome/packed_sequence.h"
#include "src/readsim/read_simulator.h"

namespace perfbench {

namespace align = pim::align;

/// Tally of per-read check outcomes; keeps the first few failure messages.
struct CheckTally {
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void fail(std::string message);
};

/// Checks one read's hits against the reference and its ground truth:
///  * every hit's strand-oriented read differs from the reference slice at
///    exactly `diffs` positions, and diffs <= z;
///  * an error-free read is resolved by stage one;
///  * a read with <= z substitutions has a hit at its true origin and
///    strand, unless its hit list is at max_hits or stage one resolved it
///    exactly elsewhere (stage two then never runs, by design).
/// Returns false and explains in `why` on the first violation.
bool check_hits(const genome::PackedSequence& reference,
                const readsim::SimulatedRead& truth,
                align::AlignmentStage stage,
                std::span<const align::AlignmentHit> hits,
                const align::AlignerOptions& options, std::string* why);

/// Checks the SAM records of one read (its lines, in output order) parse
/// back to its best hit: a primary record at best.position + 1 with the
/// best hit's strand flag and NM:i:diffs, one record per hit, or a single
/// unmapped record when the read has no hit.
bool check_sam_lines(std::span<const std::string_view> lines,
                     std::string_view qname,
                     std::span<const align::AlignmentHit> hits,
                     std::string* why);

/// Same stage and the same hits in the same order.
bool same_result(const align::AlignmentResult& a,
                 const align::AlignmentResult& b);

}  // namespace perfbench

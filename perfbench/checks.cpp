#include "perfbench/checks.h"

#include <charconv>

namespace perfbench {

namespace {

genome::Base complement_of(genome::Base b) {
  return static_cast<genome::Base>(3 - static_cast<int>(b));
}

std::uint64_t to_u64(std::string_view field, bool* ok) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  *ok = ec == std::errc() && ptr == field.data() + field.size();
  return value;
}

/// The best hit as SamWriter ranks it: fewest diffs, then leftmost.
const align::AlignmentHit* best_hit(
    std::span<const align::AlignmentHit> hits) {
  const align::AlignmentHit* best = nullptr;
  for (const auto& hit : hits) {
    if (best == nullptr || hit.diffs < best->diffs ||
        (hit.diffs == best->diffs && hit.position < best->position)) {
      best = &hit;
    }
  }
  return best;
}

}  // namespace

void CheckTally::fail(std::string message) {
  ++failed;
  if (messages.size() < 5) messages.push_back(std::move(message));
}

bool same_result(const align::AlignmentResult& a,
                 const align::AlignmentResult& b) {
  if (a.stage != b.stage || a.hits.size() != b.hits.size()) return false;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].position != b.hits[i].position ||
        a.hits[i].diffs != b.hits[i].diffs ||
        a.hits[i].strand != b.hits[i].strand) {
      return false;
    }
  }
  return true;
}

bool check_hits(const genome::PackedSequence& reference,
                const readsim::SimulatedRead& truth,
                align::AlignmentStage stage,
                std::span<const align::AlignmentHit> hits,
                const align::AlignerOptions& options, std::string* why) {
  const std::vector<genome::Base>& read = truth.bases;
  const std::size_t m = read.size();
  const std::uint32_t z = options.inexact.max_diffs;
  bool origin_found = false;
  for (const auto& hit : hits) {
    if (hit.position + m > reference.size()) {
      *why = "hit past the reference end at " + std::to_string(hit.position);
      return false;
    }
    const bool reverse = hit.strand == align::Strand::kReverseComplement;
    std::uint32_t mismatches = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const genome::Base oriented =
          reverse ? complement_of(read[m - 1 - k]) : read[k];
      mismatches += oriented != reference.at(hit.position + k) ? 1u : 0u;
    }
    if (mismatches != hit.diffs || mismatches > z) {
      *why = "hit at " + std::to_string(hit.position) + " reports diffs=" +
             std::to_string(hit.diffs) + " but the slice has " +
             std::to_string(mismatches) + " mismatches";
      return false;
    }
    if (hit.position == truth.origin && reverse == truth.reverse_strand) {
      origin_found = true;
    }
  }
  if (truth.insertions + truth.deletions != 0) return true;
  if (truth.substitutions == 0 && stage != align::AlignmentStage::kExact) {
    *why = "error-free read not resolved by stage one";
    return false;
  }
  const bool resolved_elsewhere =
      truth.substitutions > 0 && stage == align::AlignmentStage::kExact;
  const bool at_cap =
      options.max_hits != 0 && hits.size() >= options.max_hits;
  if (truth.substitutions <= z && !resolved_elsewhere && !at_cap &&
      !origin_found) {
    *why = "no hit at the true origin " + std::to_string(truth.origin) +
           (truth.reverse_strand ? " (-)" : " (+)") + " with " +
           std::to_string(truth.substitutions) + " substitutions";
    return false;
  }
  return true;
}

bool check_sam_lines(std::span<const std::string_view> lines,
                     std::string_view qname,
                     std::span<const align::AlignmentHit> hits,
                     std::string* why) {
  const std::size_t want_records = hits.empty() ? 1 : hits.size();
  if (lines.size() != want_records) {
    *why = std::string(qname) + ": " + std::to_string(lines.size()) +
           " SAM records for " + std::to_string(hits.size()) + " hits";
    return false;
  }
  const align::AlignmentHit* best = best_hit(hits);
  std::size_t primaries = 0;
  for (const std::string_view line : lines) {
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    while (start <= line.size()) {
      const std::size_t tab = line.find('\t', start);
      const std::size_t end = tab == std::string_view::npos ? line.size() : tab;
      fields.push_back(line.substr(start, end - start));
      if (tab == std::string_view::npos) break;
      start = tab + 1;
    }
    bool ok_flag = false;
    bool ok_pos = false;
    if (fields.size() < 11 || fields[0] != qname) {
      *why = std::string(qname) + ": malformed SAM record";
      return false;
    }
    const std::uint64_t flag = to_u64(fields[1], &ok_flag);
    const std::uint64_t pos = to_u64(fields[3], &ok_pos);
    if (!ok_flag || !ok_pos) {
      *why = std::string(qname) + ": unparsable FLAG/POS";
      return false;
    }
    if ((flag & 0x100) != 0) continue;
    ++primaries;
    if (best == nullptr) {
      if ((flag & 0x4) == 0) {
        *why = std::string(qname) + ": unaligned read not flagged unmapped";
        return false;
      }
      continue;
    }
    std::int64_t nm = -1;
    for (std::size_t f = 11; f < fields.size(); ++f) {
      if (fields[f].starts_with("NM:i:")) {
        bool ok_nm = false;
        nm = static_cast<std::int64_t>(to_u64(fields[f].substr(5), &ok_nm));
        if (!ok_nm) nm = -1;
      }
    }
    const bool reverse = (flag & 0x10) != 0;
    if ((flag & 0x4) != 0 || pos != best->position + 1 ||
        reverse != (best->strand == align::Strand::kReverseComplement) ||
        nm != static_cast<std::int64_t>(best->diffs)) {
      *why = std::string(qname) + ": primary record (flag " +
             std::to_string(flag) + ", pos " + std::to_string(pos) +
             ", NM " + std::to_string(nm) + ") is not the best hit at " +
             std::to_string(best->position + 1);
      return false;
    }
  }
  if (primaries != 1) {
    *why = std::string(qname) + ": " + std::to_string(primaries) +
           " primary records";
    return false;
  }
  return true;
}

}  // namespace perfbench

#include "perfbench/workload.h"

#include <sstream>

#include "src/genome/fastq.h"
#include "src/genome/synthetic_genome.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

genome::PackedSequence make_reference() {
  genome::SyntheticGenomeSpec spec;
  spec.length = kReferenceBases;
  spec.repeat_fraction = kRepeatFraction;
  spec.seed = kReferenceSeed;
  return genome::generate_reference(spec);
}

readsim::ReadSet make_reads(const genome::PackedSequence& reference,
                            ReadProfile profile, std::size_t count,
                            std::uint64_t seed) {
  readsim::ReadSimSpec spec;
  spec.read_length = kReadLength;
  spec.num_reads = count;
  spec.seed = seed;
  if (profile == ReadProfile::kClean) {
    spec.population_variation_rate = 0.0;
    spec.sequencing_error_rate = 0.0;
  }
  return readsim::ReadSimulator(spec).generate(reference);
}

FastqText to_fastq_text(const readsim::ReadSet& reads,
                        const std::string& prefix) {
  FastqText out;
  out.record_end.reserve(reads.reads.size());
  std::ostringstream text;
  for (const auto& record : readsim::to_fastq(reads, prefix)) {
    genome::write_fastq(text, {record});
    out.record_end.push_back(static_cast<std::size_t>(text.tellp()));
  }
  out.text = std::move(text).str();
  return out;
}

std::vector<std::vector<genome::Base>> bases_of(
    const readsim::ReadSet& reads) {
  std::vector<std::vector<genome::Base>> out;
  out.reserve(reads.reads.size());
  for (const auto& read : reads.reads) out.push_back(read.bases);
  return out;
}

}  // namespace perfbench

// PIM-fleet helpers: the modelled (simulated) chip figures of one fleet run,
// read from the fleet's public tallies after the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/align/aligner.h"
#include "src/index/fm_index.h"
#include "src/pim/pim_fleet.h"
#include "src/pim/timing_energy.h"

namespace perfbench {

/// Modelled cost of the reads a fleet aligned since its last reset_stats().
/// Built from op counts and modelled times only, so it repeats exactly for
/// the same reads and generations; compared with == between rounds.
struct FleetFigures {
  std::uint64_t reads = 0;
  std::uint64_t generations = 0;
  /// Median over generations of: generation reads / the slowest chip's
  /// modelled compute + staging stall in that generation.
  double sim_reads_per_s = 0.0;
  /// Median over generations of: (sub-array + transfer energy) / reads.
  double sim_energy_uj_per_read = 0.0;
  std::uint64_t lfm_calls = 0;
  std::uint64_t subarray_reads = 0;
  std::uint64_t triple_senses = 0;
  std::uint64_t dpu_word_ops = 0;
  double busy_ns = 0.0;          ///< Summed over chips.
  double energy_pj = 0.0;        ///< Sub-array energy, summed over chips.
  double transfer_stall_ns = 0.0;
  double transfer_overlap_ratio = 0.0;
  double chip_skew = 0.0;        ///< Slowest / mean chip busy time.
  double chip_model_reads_per_s = 0.0;  ///< accel::PimChipModel projection.

  bool operator==(const FleetFigures&) const = default;
};

/// Reads a fleet's tallies at generation boundaries (after each
/// align_batch returned, when every chip has joined and been charged).
class FleetMeter {
 public:
  /// Calls fleet.reset_stats() and starts metering.
  explicit FleetMeter(pim::hw::PimChipFleet& fleet);

  /// Records the generation that just completed with `reads` reads.
  void end_generation(std::size_t reads);

  FleetFigures figures(const pim::hw::TimingEnergyModel& timing) const;

 private:
  struct Snapshot {
    pim::hw::TransferReport transfer;
    std::vector<pim::hw::PimAlignerPlatform::AggregateStats> chips;
  };
  Snapshot take() const;

  const pim::hw::PimChipFleet* fleet_;
  Snapshot last_;
  std::uint64_t reads_ = 0;
  std::vector<double> generation_reads_per_s_;
  std::vector<double> generation_uj_per_read_;
};

/// Reads per fleet generation (align_batch call): 16 per chip on 4 cores.
inline constexpr std::size_t kFleetGenerationReads = 64;

/// One chip per core, each driven by its own host thread.
std::unique_ptr<pim::hw::PimChipFleet> make_fleet(
    const pim::index::FmIndex& fm, const pim::hw::TimingEnergyModel& timing,
    const pim::align::AlignerOptions& options);


/// Aligns `reads` on the fleet in consecutive generations of
/// `generation_reads` and returns the modelled figures; the per-read
/// results go to `results` for comparison with the software engine, and the
/// host wall time to `wall_s`.
FleetFigures align_on_fleet(
    pim::hw::PimChipFleet& fleet,
    const std::vector<std::vector<pim::genome::Base>>& reads,
    std::size_t generation_reads, const pim::hw::TimingEnergyModel& timing,
    std::vector<pim::align::AlignmentResult>* results, double* wall_s);

/// Adds the pim.* and accel.* per-layer metrics; `host_us_per_lfm` is the
/// fleet's host wall time x chips / LFM calls.
void put_fleet_layers(const FleetFigures& f, double host_us_per_lfm,
                      MetricList& m);

/// The pim.* and accel.* layers of a workload that does not run on the
/// fleet: `reads` on a fresh fleet (one chip per core), checked
/// bit-identical to `expected` (the software engine's results for them).
void measure_fleet_sample(
    const pim::index::FmIndex& fm,
    const std::vector<std::vector<pim::genome::Base>>& reads,
    const std::vector<pim::align::AlignmentResult>& expected, MetricList& m,
    RunResult& result);

}  // namespace perfbench

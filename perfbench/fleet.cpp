#include "perfbench/fleet.h"

#include <algorithm>

#include "perfbench/checks.h"
#include "perfbench/workload.h"
#include "src/accel/measured_load.h"
#include "src/accel/pim_aligner_model.h"

namespace perfbench {

namespace hw = pim::hw;

std::unique_ptr<hw::PimChipFleet> make_fleet(
    const pim::index::FmIndex& fm, const hw::TimingEnergyModel& timing,
    const pim::align::AlignerOptions& options) {
  return std::make_unique<hw::PimChipFleet>(fm, timing, hardware_threads(),
                                            options);
}

FleetMeter::FleetMeter(hw::PimChipFleet& fleet) : fleet_(&fleet) {
  fleet.reset_stats();
  last_ = take();
}

FleetMeter::Snapshot FleetMeter::take() const {
  Snapshot snap;
  snap.transfer = fleet_->transfer_report();
  for (std::size_t c = 0; c < fleet_->num_chips(); ++c) {
    snap.chips.push_back(fleet_->chip_stats(c));
  }
  return snap;
}

void FleetMeter::end_generation(std::size_t reads) {
  Snapshot now = take();
  double slowest_ns = 0.0;
  double energy_pj = now.transfer.energy_pj - last_.transfer.energy_pj;
  for (std::size_t c = 0; c < now.chips.size(); ++c) {
    const auto& a = now.transfer.chips[c];
    const auto& b = last_.transfer.chips[c];
    slowest_ns = std::max(slowest_ns, (a.compute_ns - b.compute_ns) +
                                          (a.stall_ns - b.stall_ns));
    energy_pj += now.chips[c].ops.energy_pj - last_.chips[c].ops.energy_pj;
  }
  const double n = static_cast<double>(std::max<std::size_t>(reads, 1));
  generation_reads_per_s_.push_back(slowest_ns > 0.0 ? n * 1e9 / slowest_ns
                                                     : 0.0);
  generation_uj_per_read_.push_back(energy_pj / n * 1e-6);
  reads_ += reads;
  last_ = std::move(now);
}

FleetFigures FleetMeter::figures(const hw::TimingEnergyModel& timing) const {
  FleetFigures f;
  f.reads = reads_;
  f.generations = generation_reads_per_s_.size();
  f.sim_reads_per_s = median(generation_reads_per_s_);
  f.sim_energy_uj_per_read = median(generation_uj_per_read_);
  double max_busy = 0.0;
  for (const auto& stats : last_.chips) {
    f.lfm_calls += stats.lfm_calls;
    f.subarray_reads += stats.ops.reads;
    f.triple_senses += stats.ops.triple_senses;
    f.dpu_word_ops += stats.ops.dpu_word_ops;
    f.busy_ns += stats.ops.busy_ns;
    f.energy_pj += stats.ops.energy_pj;
    max_busy = std::max(max_busy, stats.ops.busy_ns);
  }
  f.transfer_stall_ns = last_.transfer.stall_ns;
  f.transfer_overlap_ratio = last_.transfer.overlap_ratio;
  const double mean_busy =
      f.busy_ns /
      static_cast<double>(std::max<std::size_t>(last_.chips.size(), 1));
  f.chip_skew = mean_busy > 0.0 ? max_busy / mean_busy : 0.0;

  // Paper-scale projection driven by the most loaded chip's measured LFM
  // demand.
  const auto loads = pim::accel::measured_loads(*fleet_);
  const pim::accel::MeasuredChipLoad* busiest = nullptr;
  for (const auto& load : loads) {
    if (load.reads == 0) continue;
    if (busiest == nullptr || load.lfm_per_read() > busiest->lfm_per_read()) {
      busiest = &load;
    }
  }
  if (busiest != nullptr) {
    const pim::accel::PimChipModel model(
        timing, {},
        pim::accel::chip_model_from_measured(*busiest, kReadLength));
    f.chip_model_reads_per_s = model.evaluate(1).throughput_qps;
  }
  return f;
}

FleetFigures align_on_fleet(
    hw::PimChipFleet& fleet,
    const std::vector<std::vector<pim::genome::Base>>& reads,
    std::size_t generation_reads, const hw::TimingEnergyModel& timing,
    std::vector<pim::align::AlignmentResult>* results, double* wall_s) {
  FleetMeter meter(fleet);
  results->clear();
  const auto t0 = Clock::now();
  for (std::size_t begin = 0; begin < reads.size();
       begin += generation_reads) {
    const std::size_t end = std::min(reads.size(), begin + generation_reads);
    const auto batch = pim::align::ReadBatch::from_reads(
        {reads.begin() + static_cast<long>(begin),
         reads.begin() + static_cast<long>(end)});
    pim::align::BatchResult out;
    fleet.engine().align_batch(batch, out);
    meter.end_generation(batch.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      results->push_back(out.result(i));
    }
  }
  *wall_s = seconds_since(t0);
  return meter.figures(timing);
}

void put_fleet_layers(const FleetFigures& f, double host_us_per_lfm,
                      MetricList& m) {
  const double n = static_cast<double>(std::max<std::uint64_t>(f.reads, 1));
  m.set("pim.sim_reads_per_s", f.sim_reads_per_s, "reads/s");
  m.set("pim.sim_energy_uj_per_read", f.sim_energy_uj_per_read, "uJ/read");
  m.set("pim.lfm_calls_per_read", static_cast<double>(f.lfm_calls) / n,
        "count");
  m.set("pim.subarray_reads_per_read",
        static_cast<double>(f.subarray_reads) / n, "count");
  m.set("pim.triple_senses_per_read",
        static_cast<double>(f.triple_senses) / n, "count");
  m.set("pim.dpu_word_ops_per_read", static_cast<double>(f.dpu_word_ops) / n,
        "count");
  m.set("pim.busy_ns_per_read", f.busy_ns / n, "ns");
  m.set("pim.energy_pj_per_read", f.energy_pj / n, "pJ");
  m.set("pim.transfer_stall_ns", f.transfer_stall_ns, "ns");
  m.set("pim.transfer_overlap_ratio", f.transfer_overlap_ratio, "ratio");
  m.set("pim.chip_skew", f.chip_skew, "ratio");
  m.set("accel.chip_model_reads_per_s", f.chip_model_reads_per_s, "reads/s");
  m.set("pim.host_us_per_lfm", host_us_per_lfm, "us");
}

void measure_fleet_sample(
    const pim::index::FmIndex& fm,
    const std::vector<std::vector<pim::genome::Base>>& reads,
    const std::vector<pim::align::AlignmentResult>& expected, MetricList& m,
    RunResult& result) {
  const hw::TimingEnergyModel timing;
  const auto fleet = make_fleet(fm, timing, pim::align::AlignerOptions{});
  std::vector<pim::align::AlignmentResult> got;
  double wall_s = 0.0;
  const FleetFigures figures = align_on_fleet(
      *fleet, reads, kFleetGenerationReads, timing, &got, &wall_s);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i >= expected.size() || !same_result(got[i], expected[i])) {
      result.problem("pim result of read " + std::to_string(i) +
                     " differs from SoftwareEngine");
      break;
    }
  }
  put_fleet_layers(figures,
                   wall_s * 1e6 * static_cast<double>(fleet->num_chips()) /
                       static_cast<double>(
                           std::max<std::uint64_t>(figures.lfm_calls, 1)),
                   m);
}

}  // namespace perfbench

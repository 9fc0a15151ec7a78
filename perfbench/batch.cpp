// The three batch workloads: FASTQ text in, rendered SAM out. clean_reads and
// paper_reads stream through StreamingPipeline + SoftwareEngine; pim_fleet
// feeds the same FASTQ, one generation at a time, to a PimChipFleet.
//
// Each run: generate inputs -> set up (index build [+ fleet], repeated, the
// median is setup_s) -> one check round whose every read and SAM record is
// checked apart from the program -> timed rounds over the same FASTQ until
// --seconds have passed. A timed round must render byte-identical SAM to
// the check round (digest compare), so every timed read is covered by the
// checks without re-parsing its output. The software workloads run
// StreamingPipeline with its default options (32,768-read generations), as
// examples/fastq_to_sam does; throughput is the median over rounds of round
// reads / round wall time.
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "perfbench/checks.h"
#include "perfbench/fleet.h"
#include "perfbench/layers.h"
#include "perfbench/streams.h"
#include "perfbench/workload.h"
#include "perfbench/workloads.h"
#include "src/align/engine.h"
#include "src/align/parallel_aligner.h"
#include "src/align/read_batch.h"
#include "src/align/sam_writer.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/fastq.h"
#include "src/index/fm_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace hw = pim::hw;

namespace {

/// Traced runs of the software workloads: reads of the PIM-model sample.
constexpr std::size_t kFleetSampleReads = 256;

struct BatchSpec {
  ReadProfile profile = ReadProfile::kClean;
  bool pim = false;
  std::size_t round_reads = 0;  ///< Reads per round (one FASTQ pass).
  /// Traced runs: reads the per-layer probes run on.
  std::size_t layer_sample_reads = 1024;
};

/// Per-read checks of the check round, fed one delivered chunk at a time.
class ChunkChecker {
 public:
  /// Keeps the results of the first `keep_results` reads for comparison
  /// with other engines (and no more, so checking adds little memory).
  ChunkChecker(const genome::PackedSequence& reference,
               const readsim::ReadSet& truth,
               const align::AlignerOptions& options, std::size_t keep_results)
      : reference_(&reference), truth_(&truth), options_(&options),
        results_(std::min(keep_results, truth.reads.size())) {}

  void check(const align::BatchResultChunk& chunk, std::string_view sam) {
    std::size_t cursor = 0;
    std::vector<std::string_view> lines;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const std::size_t g = chunk.base_index + (i - chunk.begin);
      const auto hits = chunk.result->hits(i - chunk.begin);
      const auto stage = chunk.result->stage(i - chunk.begin);
      const std::string qname = align::sanitize_qname(chunk.batch->name(i));
      lines.clear();
      while (cursor < sam.size()) {
        const std::size_t nl = sam.find('\n', cursor);
        if (nl == std::string_view::npos) break;
        const std::string_view line = sam.substr(cursor, nl - cursor);
        if (line.substr(0, line.find('\t')) != qname) break;
        lines.push_back(line);
        cursor = nl + 1;
      }
      ++tally.reads;
      std::string why;
      if (g >= truth_->reads.size()) {
        tally.fail("read index out of range");
        continue;
      }
      if (g < results_.size()) {
        results_[g] = chunk.result->result(i - chunk.begin);
      }
      if (!check_hits(*reference_, truth_->reads[g], stage, hits, *options_,
                      &why) ||
          !check_sam_lines(lines, qname, hits, &why)) {
        tally.fail(qname + ": " + why);
      }
    }
    if (cursor != sam.size()) tally.fail("SAM records left over in a chunk");
  }

  const std::vector<align::AlignmentResult>& results() const {
    return results_;
  }

  CheckTally tally;

 private:
  const genome::PackedSequence* reference_;
  const readsim::ReadSet* truth_;
  const align::AlignerOptions* options_;
  std::vector<align::AlignmentResult> results_;
};

struct RoundOutcome {
  SamDigest digest;
  align::EngineStats engine;
  std::uint64_t reads = 0;
  double wall_s = 0.0;
  double ingest_wait_ms = 0.0;
  std::optional<FleetFigures> fleet;
};

/// Both ends of one round: the FASTQ source with its availability stamps,
/// and the SAM sink that renders each delivered chunk, optionally checks
/// it, and records per-read latency.
class RoundIo {
 public:
  RoundIo(const genome::PackedSequence& reference, const FastqText& fastq,
          ChunkChecker* checker, LogHistogram* latencies_ms)
      : fastq_(&fastq), in_buf_(fastq.text), in_(&in_buf_), reader_(in_),
        out_(&out_buf_), checker_(checker), latencies_ms_(latencies_ms),
        writer_(checker ? static_cast<std::ostream&>(chunk_text_) : out_,
                "synthetic_4m", reference) {
    writer_.write_header();
    flush_chunk_text();
  }

  genome::FastqStreamReader& reader() { return reader_; }

  void deliver(const align::BatchResultChunk& chunk) {
    writer_.write_chunk(chunk);
    if (checker_) checker_->check(chunk, flush_chunk_text());
    const auto now = Clock::now();
    if (latencies_ms_) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::size_t g = chunk.base_index + i;
        latencies_ms_->add(
            ms_between(in_buf_.taken_at(fastq_->record_end[g] - 1), now));
      }
    }
  }

  SamDigest finish() {
    out_.flush();
    return out_buf_.finish();
  }

 private:
  std::string flush_chunk_text() {
    std::string text = chunk_text_.str();
    chunk_text_.str("");
    out_ << text;
    return text;
  }

  const FastqText* fastq_;
  TimedFastqBuf in_buf_;
  std::istream in_;
  genome::FastqStreamReader reader_;
  DigestBuf out_buf_;
  std::ostream out_;
  std::ostringstream chunk_text_;
  ChunkChecker* checker_;
  LogHistogram* latencies_ms_;
  align::SamWriter writer_;
};

/// One FASTQ pass through StreamingPipeline.
RoundOutcome stream_round(const align::AlignmentEngine& engine,
                          align::StreamingOptions options,
                          const genome::PackedSequence& reference,
                          const FastqText& fastq, ChunkChecker* checker,
                          LogHistogram* latencies_ms, bool traced) {
  RoundIo io(reference, fastq, checker, latencies_ms);
  pim::obs::MetricsRegistry registry;
  pim::obs::TraceLog trace;
  if (traced) {
    options.metrics = &registry;
    options.trace = &trace;
  }
  const align::StreamingPipeline pipeline(engine, options);
  const auto t0 = Clock::now();
  const align::StreamingStats stats = pipeline.run(
      io.reader(),
      [&io](const align::BatchResultChunk& chunk) { io.deliver(chunk); });
  RoundOutcome outcome;
  outcome.wall_s = seconds_since(t0);
  outcome.engine = stats.engine;
  outcome.reads = stats.reads;
  outcome.ingest_wait_ms = stats.ingest_wait_ms;
  outcome.digest = io.finish();
  return outcome;
}

/// One FASTQ pass through the fleet, a kFleetGenerationReads generation per
/// align_batch call, so the fleet's tallies can be read at every generation
/// boundary.
RoundOutcome fleet_round(hw::PimChipFleet& fleet,
                         const hw::TimingEnergyModel& timing,
                         const genome::PackedSequence& reference,
                         const FastqText& fastq, ChunkChecker* checker,
                         LogHistogram* latencies_ms, bool traced) {
  RoundIo io(reference, fastq, checker, latencies_ms);
  pim::obs::MetricsRegistry registry;
  pim::obs::TraceLog trace;
  FleetMeter meter(fleet);
  RoundOutcome outcome;
  align::ReadBatchBuilder builder;
  align::BatchResult out;
  genome::FastqRecord record;
  const auto t0 = Clock::now();
  for (bool more = true; more;) {
    pim::obs::TraceSpan span(traced ? &trace : nullptr, "fleet.generation");
    builder.reset();
    while (builder.size() < kFleetGenerationReads &&
           (more = io.reader().next(record))) {
      builder.add(record);
    }
    if (builder.size() == 0) break;
    const align::ReadBatch batch = builder.build();
    fleet.engine().align_batch(batch, out);
    meter.end_generation(batch.size());
    if (traced) fleet.publish_metrics(registry);
    io.deliver({&batch, 0, batch.size(), &out, outcome.reads});
    outcome.reads += batch.size();
    outcome.engine.merge(out.stats());
  }
  outcome.wall_s = seconds_since(t0);
  outcome.digest = io.finish();
  outcome.fleet = meter.figures(timing);
  return outcome;
}

bool same_counts(const align::EngineStats& a, const align::EngineStats& b) {
  return a.reads_total == b.reads_total && a.reads_exact == b.reads_exact &&
         a.reads_inexact == b.reads_inexact &&
         a.reads_unaligned == b.reads_unaligned &&
         a.hits_total == b.hits_total &&
         a.exact_searches == b.exact_searches &&
         a.inexact_searches == b.inexact_searches;
}

RunResult run_batch(const RunArgs& args, const BatchSpec& spec) {
  RunResult result;
  const auto reference = make_reference();
  const auto reads = make_reads(reference, spec.profile, spec.round_reads,
                                derive_seed(args.seed, 1));
  const FastqText fastq = to_fastq_text(reads, "r");
  const align::AlignerOptions options;  // z = 2, substitutions, 64 hits.
  const hw::TimingEnergyModel timing;
  const std::size_t threads = hardware_threads();
  release_free_memory();
  const std::size_t baseline_rss = current_rss_bytes();

  // Set-up: index build (+ fleet construction), repeated; median reported.
  std::unique_ptr<pim::index::FmIndex> fm;
  std::unique_ptr<hw::PimChipFleet> fleet;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    fleet.reset();
    fm.reset();
    const auto t0 = Clock::now();
    fm = std::make_unique<pim::index::FmIndex>(
        pim::index::FmIndex::build(reference));
    build_s.push_back(seconds_since(t0));
    if (spec.pim) fleet = make_fleet(*fm, timing, options);
    setup_s.push_back(seconds_since(t0));
  }
  const align::SoftwareEngine software(*fm, options);
  align::StreamingOptions stream_options;  // Defaults, as fastq_to_sam.
  stream_options.parallel.num_threads = threads;
  const auto round = [&](ChunkChecker* checker, LogHistogram* latencies,
                         bool traced) {
    return fleet ? fleet_round(*fleet, timing, reference, fastq, checker,
                               latencies, traced)
                 : stream_round(software, stream_options, reference, fastq,
                                checker, latencies, traced);
  };

  // Check round, untimed: every read and SAM record checked.
  ChunkChecker checker(reference, reads, options,
                       spec.pim ? reads.reads.size() : kFleetSampleReads);
  const RoundOutcome checked = round(&checker, nullptr, false);
  if (checked.reads != reads.reads.size()) {
    result.problem("check round streamed " + std::to_string(checked.reads) +
                   " reads");
  }
  for (const auto& m : checker.tally.messages) result.problem("check: " + m);

  // Timed rounds: whole passes over the same FASTQ until --seconds have
  // passed, never starting one that would overrun by more than a quarter.
  // Traced runs alternate untraced and traced rounds, and run at least one
  // of each, to measure the tracing overhead.
  std::vector<double> untraced_rates;  // reads/s of each round
  std::vector<double> traced_rates;
  LogHistogram latencies;  // of the current round
  std::vector<double> round_p50;
  std::uint64_t rounds = 0;
  double ingest_wait_ms = 0.0;
  double fleet_wall_s = 0.0;
  release_free_memory();
  std::size_t peak_rss = 0;
  {
    RssSampler rss;
    const auto t_start = Clock::now();
    for (;;) {
      const double elapsed = seconds_since(t_start);
      const double per_round =
          rounds == 0 ? 0.0 : elapsed / static_cast<double>(rounds);
      const bool need_both =
          args.trace && (untraced_rates.empty() || traced_rates.empty());
      if (rounds != 0 && !need_both &&
          (elapsed >= args.seconds ||
           elapsed + per_round > 1.25 * args.seconds)) {
        break;
      }
      const bool traced =
          args.trace && traced_rates.size() < untraced_rates.size();
      const RoundOutcome outcome = round(nullptr, &latencies, traced);
      ++rounds;
      round_p50.push_back(latencies.percentile(0.50));
      latencies.clear();
      ingest_wait_ms += outcome.ingest_wait_ms;
      fleet_wall_s += outcome.wall_s;
      (traced ? traced_rates : untraced_rates)
          .push_back(static_cast<double>(outcome.reads) / outcome.wall_s);
      if (!(outcome.digest == checked.digest) ||
          !same_counts(outcome.engine, checked.engine)) {
        result.problem("timed round " + std::to_string(rounds) +
                       " rendered different SAM than the check round");
      }
      if (fleet && !(outcome.fleet == checked.fleet)) {
        result.problem("modelled PIM figures differ between rounds");
      }
    }
    peak_rss = rss.stop();
  }
  result.attempted = rounds * reads.reads.size();
  result.failed = rounds * checker.tally.failed;

  if (fleet) {
    // Bit-identity with SoftwareEngine over the same reads.
    align::BatchResult want;
    align::ParallelOptions parallel;
    parallel.num_threads = threads;
    align::align_batch_parallel(
        software, align::ReadBatch::from_reads(bases_of(reads)), want,
        parallel);
    for (std::size_t i = 0; i < reads.reads.size(); ++i) {
      if (!same_result(checker.results()[i], want.result(i))) {
        result.problem("pim result of read " + std::to_string(i) +
                       " differs from SoftwareEngine");
        break;
      }
    }
  }

  MetricList& m = result.metrics;
  if (!args.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("reads_per_s", median(untraced_rates), "reads/s");
    // Peak over the whole timed phase, less the resident set after the
    // inputs were generated.
    m.set("peak_rss_mb",
          std::max(0.0, static_cast<double>(peak_rss) -
                            static_cast<double>(baseline_rss)) /
              1e6,
          "MB");
    // Per-round median latency, then the median over rounds: a burst of
    // host stalls (steal on a shared virtual machine) moves one round, not
    // the reported figure.
    m.set("latency_p50_ms", median(round_p50), "ms");
    return result;
  }

  readsim::ReadSet layer_sample;
  for (std::size_t i = 0;
       i < std::min(spec.layer_sample_reads, reads.reads.size()); ++i) {
    layer_sample.reads.push_back(reads.reads[i]);
  }
  measure_core_layers(reference, *fm, layer_sample, threads, args.tmp_dir, m);
  m.set("index.build_s", median(build_s), "s");
  // The fleet path feeds generations itself; its ingest wait is taken from
  // one StreamingPipeline pass of the layer sample instead.
  m.set("align.ingest_wait_ms",
        fleet ? stream_ingest_wait_ms(*fm, layer_sample, threads)
              : ingest_wait_ms / static_cast<double>(rounds),
        "ms");
  measure_wire_layers(reference, *fm, derive_seed(args.seed, 2), threads,
                      args.tmp_dir, m, result);
  if (fleet) {
    const double lfm_calls =
        static_cast<double>(checked.fleet->lfm_calls * rounds);
    put_fleet_layers(*checked.fleet,
                     fleet_wall_s * 1e6 *
                         static_cast<double>(fleet->num_chips()) / lfm_calls,
                     m);
  } else {
    std::vector<std::vector<genome::Base>> sample;
    for (std::size_t i = 0; i < kFleetSampleReads; ++i) {
      sample.push_back(reads.reads[i].bases);
    }
    measure_fleet_sample(*fm, sample, checker.results(), m, result);
  }
  put_trace_overhead(median(untraced_rates), median(traced_rates), m);
  return result;
}

}  // namespace

RunResult run_clean_reads(const RunArgs& args) {
  BatchSpec spec;
  spec.profile = ReadProfile::kClean;
  spec.round_reads = 65536;
  spec.layer_sample_reads = 4096;
  return run_batch(args, spec);
}

RunResult run_paper_reads(const RunArgs& args) {
  BatchSpec spec;
  spec.profile = ReadProfile::kPaper;
  spec.round_reads = 32768;
  return run_batch(args, spec);
}

RunResult run_pim_fleet(const RunArgs& args) {
  BatchSpec spec;
  spec.profile = ReadProfile::kPaper;
  spec.pim = true;
  spec.round_reads = 1024;
  spec.layer_sample_reads = 256;
  return run_batch(args, spec);
}

}  // namespace perfbench

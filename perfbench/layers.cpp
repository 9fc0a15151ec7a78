#include "perfbench/layers.h"

#include <algorithm>
#include <sstream>

#include "src/align/backward_search.h"
#include "src/align/engine.h"
#include "src/align/inexact_search.h"
#include "src/align/parallel_aligner.h"
#include "src/align/read_batch.h"
#include "src/align/sam_writer.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/fastq.h"
#include "src/index/index_io.h"
#include "src/index/mapped_index.h"
#include "src/net/frame.h"

namespace perfbench {

namespace align = pim::align;
namespace net = pim::net;

namespace {

double ns_per(Clock::time_point t0, std::size_t units) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(std::max<std::size_t>(units, 1));
}

}  // namespace

void measure_core_layers(const genome::PackedSequence& reference,
                         const pim::index::FmIndex& fm,
                         const readsim::ReadSet& sample,
                         std::size_t threads, const std::string& tmp_dir,
                         MetricList& m) {
  const align::AlignerOptions options;
  const std::size_t n = sample.reads.size();
  const double per_read =
      1.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  const FastqText fastq = to_fastq_text(sample, "s");

  // genome: FASTQ parsing.
  {
    std::istringstream in(fastq.text);
    genome::FastqStreamReader reader(in);
    genome::FastqRecord record;
    std::size_t parsed = 0;
    const auto t0 = Clock::now();
    while (reader.next(record)) ++parsed;
    m.set("genome.fastq_parse_ns_per_read", ns_per(t0, parsed), "ns");
  }
  std::vector<genome::FastqRecord> records;
  {
    std::istringstream in(fastq.text);
    records = genome::read_fastq(in);
  }

  // align: packing FASTQ records into a ReadBatch.
  align::ReadBatch batch;
  {
    align::ReadBatchBuilder builder;
    builder.reserve(n, n * kReadLength);
    const auto t0 = Clock::now();
    for (const auto& record : records) builder.add(record);
    batch = builder.build();
    m.set("align.pack_ns_per_read", ns_per(t0, n), "ns");
  }

  std::vector<std::vector<genome::Base>> forward = bases_of(sample);
  std::vector<std::vector<genome::Base>> reverse;
  for (const auto& read : forward) {
    reverse.push_back(genome::reverse_complement(read));
  }

  // index: one backward-extension step (two LFMs), on the intervals the
  // workload's reads walk through.
  {
    std::size_t calls = 0;
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (const auto& read : forward) {
      auto interval = fm.whole_interval();
      for (std::size_t k = read.size(); k-- > 0 && interval.valid();) {
        interval = fm.extend(interval, read[k]);
        ++calls;
      }
      checksum += interval.low;
    }
    keep(checksum);
    m.set("index.extend_ns", ns_per(t0, calls), "ns");
  }

  // align: exact search of both strands (Algorithm 1).
  std::vector<pim::index::SaInterval> found;
  std::vector<std::size_t> misses;
  {
    std::uint64_t steps = 0;
    std::vector<align::ExactResult> results(2 * n);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      results[2 * i] = align::exact_search(fm, forward[i]);
      results[2 * i + 1] = align::exact_search(fm, reverse[i]);
    }
    m.set("align.exact_us_per_read", ns_per(t0, n) * 1e-3, "us");
    for (std::size_t i = 0; i < n; ++i) {
      steps += results[2 * i].steps + results[2 * i + 1].steps;
      if (results[2 * i].found()) found.push_back(results[2 * i].interval);
      if (results[2 * i + 1].found()) {
        found.push_back(results[2 * i + 1].interval);
      }
      if (!results[2 * i].found() && !results[2 * i + 1].found()) {
        misses.push_back(i);
      }
    }
    m.set("align.exact_steps_per_read", static_cast<double>(steps) * per_read,
          "count");
  }

  // index: locate, per located hit.
  {
    std::vector<std::uint64_t> positions;
    std::size_t hits = 0;
    const auto t0 = Clock::now();
    for (const auto& interval : found) {
      fm.locate_all_into(interval, positions);
      hits += positions.size();
    }
    m.set("index.locate_ns_per_hit", ns_per(t0, hits), "ns");
  }

  // align: stage two on (at most kStageTwoSample of) the stage-one misses.
  // Error-free workloads have none; their D-array and inexact timings then
  // cover the first sampled reads, and the aligned ratio is 0 (no read
  // reaches stage two).
  {
    constexpr std::size_t kStageTwoSample = 256;
    std::vector<std::size_t> stage_two = misses;
    if (stage_two.empty()) {
      for (std::size_t i = 0; i < n; ++i) stage_two.push_back(i);
    }
    stage_two.resize(std::min(stage_two.size(), kStageTwoSample));
    std::uint64_t d_checksum = 0;
    auto t0 = Clock::now();
    for (const std::size_t i : stage_two) {
      d_checksum += align::compute_lower_bound_d(fm, forward[i]).back();
      d_checksum += align::compute_lower_bound_d(fm, reverse[i]).back();
    }
    keep(d_checksum);
    m.set("align.d_array_us_per_read", ns_per(t0, stage_two.size()) * 1e-3,
          "us");
    std::uint64_t states = 0;
    std::size_t aligned = 0;
    t0 = Clock::now();
    for (const std::size_t i : stage_two) {
      const auto fwd = align::inexact_search(fm, forward[i], options.inexact);
      const auto rev = align::inexact_search(fm, reverse[i], options.inexact);
      states += fwd.states_explored + rev.states_explored;
      aligned += (fwd.found() || rev.found()) ? 1 : 0;
    }
    m.set("align.inexact_us_per_read", ns_per(t0, stage_two.size()) * 1e-3,
          "us");
    m.set("align.inexact_states_per_read",
          static_cast<double>(states) /
              static_cast<double>(std::max<std::size_t>(stage_two.size(), 1)),
          "count");
    m.set("align.stage2_aligned_ratio",
          misses.empty() ? 0.0
                         : static_cast<double>(aligned) /
                               static_cast<double>(misses.size()),
          "ratio");
  }

  // align: the engine on one thread, then the chunked scheduler.
  const align::SoftwareEngine engine(fm, options);
  align::BatchResult serial;
  auto t0 = Clock::now();
  engine.align_batch(batch, serial);
  const double serial_s = seconds_since(t0);
  m.set("align.engine_us_per_read", serial_s * 1e6 * per_read, "us");
  m.set("align.hits_per_read",
        static_cast<double>(serial.stats().hits_total) * per_read, "count");
  {
    align::BatchResult parallel;
    align::ParallelOptions popts;
    popts.num_threads = threads;
    t0 = Clock::now();
    align::align_batch_parallel(engine, batch, parallel, popts);
    const double parallel_s = seconds_since(t0);
    m.set("align.sched_speedup", serial_s / parallel_s, "ratio");
    m.set("align.sched_stall_ms", parallel.stats().stall_ms, "ms");
  }

  // align: SAM rendering into memory.
  {
    std::ostringstream sam;
    align::SamWriter writer(sam, "synthetic_4m", reference);
    writer.write_header();
    const std::size_t before = writer.records_written();
    t0 = Clock::now();
    writer.write_batch(batch, serial);
    m.set("align.sam_ns_per_record",
          ns_per(t0, writer.records_written() - before), "ns");
  }

  // index: footprint, and one save + map of a fresh artifact.
  m.set("index.bytes", static_cast<double>(fm.memory_footprint().total()),
        "bytes");
  {
    TempDir dir(tmp_dir);
    const std::string path = dir.path() + "/layers.index";
    t0 = Clock::now();
    pim::index::save_index_file(path, fm, reference);
    m.set("index.save_ms", ns_per(t0, 1) * 1e-6, "ms");
    t0 = Clock::now();
    const auto mapped = pim::index::MappedIndex::open(path);
    m.set("index.map_ms", ns_per(t0, 1) * 1e-6, "ms");
  }
}

void put_wire_layers(const std::vector<StepResult>& steps,
                     const WireStack& stack, const RequestPool& pool,
                     MetricList& m) {
  pim::obs::LatencyBreakdown b;
  double client_overhead_ms = 0.0;
  std::uint64_t ok_requests = 0;
  std::vector<double> late_ms;
  for (const auto& step : steps) {
    ok_requests += step.sent - step.failed;
    client_overhead_ms += step.client_overhead_ms;
    b.recv_ms += step.breakdown_sum.recv_ms;
    b.admit_ms += step.breakdown_sum.admit_ms;
    b.queue_ms += step.breakdown_sum.queue_ms;
    b.seal_ms += step.breakdown_sum.seal_ms;
    b.dispatch_ms += step.breakdown_sum.dispatch_ms;
    b.compute_ms += step.breakdown_sum.compute_ms;
    b.drain_ms += step.breakdown_sum.drain_ms;
    late_ms.insert(late_ms.end(), step.late_ms.begin(), step.late_ms.end());
  }
  const double ok =
      static_cast<double>(std::max<std::uint64_t>(ok_requests, 1));
  m.set("serve.admit_ms", b.admit_ms / ok, "ms");
  m.set("serve.queue_ms", b.queue_ms / ok, "ms");
  m.set("serve.seal_ms", b.seal_ms / ok, "ms");
  m.set("serve.dispatch_ms", b.dispatch_ms / ok, "ms");
  m.set("serve.compute_ms", b.compute_ms / ok, "ms");
  m.set("serve.drain_ms", b.drain_ms / ok, "ms");
  const auto counters = stack.service->counters();
  m.set("serve.batch_reads",
        static_cast<double>(counters.batched_reads) /
            static_cast<double>(std::max<std::uint64_t>(counters.batches, 1)),
        "count");
  m.set("net.recv_ms", b.recv_ms / ok, "ms");
  m.set("net.client_overhead_ms", client_overhead_ms / ok, "ms");
  m.set("net.generator_late_ms", percentile(late_ms, 0.99), "ms");

  // The frame codec on the pool's requests and their expected responses.
  constexpr std::size_t kRounds = 8;
  std::size_t calls = 0;
  std::size_t bytes = 0;
  auto t0 = Clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (const auto& request : pool.requests) {
      bytes += net::encode_align_request(request).size();
      ++calls;
    }
  }
  keep(bytes);
  m.set("net.encode_request_ns", ns_per(t0, calls), "ns");
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& expected : pool.expected) {
    net::WireAlignResponse response;
    response.results = expected;
    encoded.push_back(net::encode_align_response(response));
  }
  calls = 0;
  std::size_t results = 0;
  t0 = Clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (const auto& payload : encoded) {
      net::WireAlignResponse decoded;
      std::string field;
      net::decode_align_response(payload, &decoded, &field);
      results += decoded.results.size();
      ++calls;
    }
  }
  keep(results);
  m.set("net.decode_response_ns", ns_per(t0, calls), "ns");
}

void measure_wire_layers(const genome::PackedSequence& reference,
                         const pim::index::FmIndex& fm, std::uint64_t seed,
                         std::size_t threads, const std::string& tmp_dir,
                         MetricList& m, RunResult& result) {
  TempDir dir(tmp_dir);
  const std::string artifact = dir.path() + "/wire.index";
  pim::index::save_index_file(artifact, fm, reference);
  const RequestPool pool = make_pool(reference, fm, seed);
  WireStack stack;
  stack.start(artifact, /*traced=*/true, threads);
  auto clients = connect_clients(stack, sender_threads());
  run_step(clients, pool, kMainRate, kPoolRequests);  // warm-up
  const StepResult step =
      run_step(clients, pool, kMainRate, kWindowRequests);
  if (!step.first_problem.empty()) result.problem(step.first_problem);
  put_wire_layers({step}, stack, pool, m);
}

double stream_ingest_wait_ms(const pim::index::FmIndex& fm,
                             const readsim::ReadSet& reads,
                             std::size_t threads) {
  const FastqText fastq = to_fastq_text(reads, "w");
  std::istringstream in(fastq.text);
  genome::FastqStreamReader reader(in);
  const align::SoftwareEngine engine(fm);
  align::StreamingOptions options;
  options.batch_reads = 512;
  options.parallel.num_threads = threads;
  const align::StreamingPipeline pipeline(engine, options);
  return pipeline.run(reader, [](const align::BatchResultChunk&) {})
      .ingest_wait_ms;
}

void put_trace_overhead(double untraced_rate, double traced_rate,
                        MetricList& m) {
  m.set("obs.trace_overhead_pct",
        traced_rate > 0.0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0,
        "%");
}

}  // namespace perfbench

// Per-layer metrics of the traced runs. Every figure comes from timing or
// counting calls into a module's public functions from here; nothing inside
// src/ is instrumented. Each traced run reports every layer, measured on
// that workload's own reads.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/wire.h"
#include "perfbench/workload.h"
#include "perfbench/workloads.h"
#include "src/align/aligner.h"
#include "src/index/fm_index.h"

namespace perfbench {

/// genome, index and align layers on `sample` (the first reads of the
/// workload): FASTQ parsing, LFM extension, locate, packing, exact and
/// inexact search, the D-array, the engine, the scheduler and SAM
/// rendering. Also index.bytes and index.save_ms / index.map_ms, which save
/// the index once into a fresh private directory under `tmp_dir`.
void measure_core_layers(const genome::PackedSequence& reference,
                         const pim::index::FmIndex& fm,
                         const readsim::ReadSet& sample,
                         std::size_t threads, const std::string& tmp_dir,
                         MetricList& m);

/// serve and net layers from open-loop steps of a server whose service has
/// a RequestTracer installed, plus the wire codec timed on `pool`.
void put_wire_layers(const std::vector<StepResult>& steps,
                     const WireStack& stack, const RequestPool& pool,
                     MetricList& m);

/// serve and net layers for a workload that does not serve: a traced stack
/// over a freshly saved artifact, driven at kMainRate for about a second
/// with error-free requests drawn from `seed`.
void measure_wire_layers(const genome::PackedSequence& reference,
                         const pim::index::FmIndex& fm, std::uint64_t seed,
                         std::size_t threads, const std::string& tmp_dir,
                         MetricList& m, RunResult& result);

/// StreamingStats::ingest_wait_ms of one StreamingPipeline pass of `reads`
/// (as FASTQ) into a discarding sink.
double stream_ingest_wait_ms(const pim::index::FmIndex& fm,
                             const readsim::ReadSet& reads,
                             std::size_t threads);

/// obs.trace_overhead_pct from untraced and traced throughput (or inverse
/// latency) figures of the same work.
void put_trace_overhead(double untraced_rate, double traced_rate,
                        MetricList& m);

}  // namespace perfbench

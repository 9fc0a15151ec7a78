// Pieces of the wire_interactive workload, shared with the traced runs of
// the other workloads: the server stack over a mapped artifact, the request
// pool with its expected results, and one open-loop step.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/align/aligner.h"
#include "src/index/fm_index.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/request_trace.h"
#include "src/serve/index_cache.h"
#include "src/serve/service.h"

namespace perfbench {

inline constexpr const char* kReferenceId = "synthetic_4m";
inline constexpr std::size_t kReadsPerRequest = 4;

inline constexpr std::size_t kPoolRequests = 512;
/// Requests of the pool whose reads also run through the PIM fleet.
inline constexpr std::size_t kFleetSampleRequests = 64;
/// Batcher age ceiling of the interactive server.
inline constexpr std::chrono::microseconds kMaxLinger{500};
/// Main phase: kMainWindows windows of kWindowRequests requests at a fixed
/// absolute rate (10 s at 400 requests/s). Latency is reported as the
/// median over windows of each window's p50 and p99, so one burst of host
/// stalls moves one window, not the figure.
inline constexpr double kMainRate = 400.0;
inline constexpr std::size_t kMainWindows = 4;
inline constexpr std::size_t kWindowRequests = 1000;
/// p99 limit of the rate ladder, and the lateness at which a step that
/// cannot keep up is abandoned. The limit leaves room for the few-ms stalls
/// a shared virtual machine's scheduler causes at any rate; past capacity
/// the open loop's backlog grows without bound, so any limit in the tens of
/// ms finds the same step.
inline constexpr double kLatencyLimitMs = 50.0;
inline constexpr double kAbandonLateMs = 500.0;
/// Rate ladder (requests/s), climbed until a step misses the limit twice in
/// a row (a step that misses once is repeated, again so that one burst of
/// host stalls does not end the climb). Each step lasts kStepShare of the
/// run, and at least kMinStepRequests requests so its p99 has ten samples
/// beyond it.
inline constexpr double kLadder[] = {500,  750,  1000, 1250, 1500, 1750,
                                     2000, 2250, 2500, 2750, 3000, 3500,
                                     4000, 5000, 6000, 8000};
inline constexpr double kStepShare = 0.03;
inline constexpr std::size_t kMinStepRequests = 1000;

/// IndexCache -> AlignmentService (multi-reference) -> AlignServer over one
/// artifact. Stops the server, then drains the service, on destruction.
struct WireStack {
  std::unique_ptr<pim::serve::IndexCache> cache;
  std::unique_ptr<pim::obs::RequestTracer> tracer;
  std::unique_ptr<pim::serve::AlignmentService> service;
  std::unique_ptr<pim::net::AlignServer> server;

  WireStack() = default;
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  void start(const std::string& artifact, bool traced, std::size_t threads);
};

struct RequestPool {
  readsim::ReadSet truth;
  std::vector<pim::net::WireAlignRequest> requests;
  /// A direct SoftwareEngine::align_batch of the same reads.
  std::vector<std::vector<pim::align::AlignmentResult>> expected;
};
RequestPool make_pool(const genome::PackedSequence& reference,
                      const pim::index::FmIndex& fm, std::uint64_t seed);

struct StepResult {
  double rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< From each request's due time.
  std::vector<double> late_ms;     ///< Send time - due time.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double achieved_rps = 0.0;
  double elapsed_s = 0.0;
  bool abandoned = false;
  bool kept_up = false;
  pim::obs::LatencyBreakdown breakdown_sum;  ///< Over successful requests.
  double client_overhead_ms = 0.0;           ///< Summed.
  std::string first_problem;  ///< First answered request with wrong results.
};

/// Sender threads of the open loop, one blocking connection each: half the
/// cores, so the generator and the server's own threads (event loop,
/// batcher, scheduler workers) together fit the cores and the latency tail
/// shows the server rather than run-queue waits of an oversubscribed
/// client.
std::size_t sender_threads();

/// Connected clients of `stack`'s server.
std::vector<std::unique_ptr<pim::net::AlignClient>> connect_clients(
    const WireStack& stack, std::size_t count);

/// One open-loop step: `requests` requests due at `rate` per second,
/// cycling through the pool, over the given connections.
StepResult run_step(
    std::vector<std::unique_ptr<pim::net::AlignClient>>& clients,
    const RequestPool& pool, double rate, std::size_t requests);

}  // namespace perfbench

// wire_interactive: small requests of error-free reads sent over loopback
// AlignClient connections to an AlignServer in front of a multi-reference
// AlignmentService, which serves an index artifact saved at set-up and
// mapped through the IndexCache.
//
// Load is an open loop at fixed absolute rates (requests/s), never scaled to
// a measured capacity: request k is due at t0 + k / rate, each of the
// sender threads (one blocking connection each, at most one per core) takes
// the next due request, and its latency runs from its due time, so a stall
// also counts against the requests queued behind it. A main phase at
// kMainRate gives the latency percentiles; a fixed rate ladder then finds
// the highest rate whose p99 stays within kLatencyLimitMs while the
// generator keeps up.
#include "perfbench/wire.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/checks.h"
#include "perfbench/fleet.h"
#include "perfbench/layers.h"
#include "perfbench/workload.h"
#include "perfbench/workloads.h"
#include "src/align/engine.h"
#include "src/index/index_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/request_trace.h"
#include "src/serve/index_cache.h"
#include "src/serve/service.h"

namespace perfbench {

namespace net = pim::net;
namespace serve = pim::serve;

WireStack::~WireStack() {
  if (server) server->stop();
  if (service) service->shutdown();
  server.reset();
  service.reset();
  cache.reset();
}

void WireStack::start(const std::string& artifact, bool traced,
                      std::size_t threads) {
  serve::IndexCacheOptions cache_options;
  cache_options.max_resident = 1;
  cache = std::make_unique<serve::IndexCache>(cache_options);
  cache->add_reference(kReferenceId, artifact);
  cache->acquire(kReferenceId);  // maps the artifact now, as set-up

  if (traced) tracer = std::make_unique<pim::obs::RequestTracer>();
  serve::MultiReferenceOptions options;
  options.service.batching.max_linger = kMaxLinger;
  options.service.batching.parallel.num_threads = threads;
  options.service.tracer = tracer.get();
  service = std::make_unique<serve::AlignmentService>(*cache, options);
  net::AlignServer::Options server_options;
  server = std::make_unique<net::AlignServer>(*service, server_options);
  server->start();
}

RequestPool make_pool(const genome::PackedSequence& reference,
                      const pim::index::FmIndex& fm, std::uint64_t seed) {
  RequestPool pool;
  pool.truth = make_reads(reference, ReadProfile::kClean,
                          kPoolRequests * kReadsPerRequest, seed);
  const pim::align::SoftwareEngine engine(fm);
  pim::align::BatchResult direct;
  engine.align_batch(
      pim::align::ReadBatch::from_reads(bases_of(pool.truth)), direct);
  for (std::size_t r = 0; r < kPoolRequests; ++r) {
    net::WireAlignRequest request;
    request.priority = 0;  // interactive
    request.reference_id = kReferenceId;
    std::vector<pim::align::AlignmentResult> expected;
    for (std::size_t j = 0; j < kReadsPerRequest; ++j) {
      const std::size_t i = r * kReadsPerRequest + j;
      request.reads.push_back(pool.truth.reads[i].bases);
      expected.push_back(direct.result(i));
    }
    pool.requests.push_back(std::move(request));
    pool.expected.push_back(std::move(expected));
  }
  return pool;
}

namespace {

struct SenderLog {
  std::uint64_t failed = 0;
  std::uint64_t sent = 0;
  pim::obs::LatencyBreakdown breakdown_sum;
  double client_overhead_ms = 0.0;
  std::string first_problem;
  Clock::time_point last_done{};
};

void add_breakdown(pim::obs::LatencyBreakdown& sum,
                   const pim::obs::LatencyBreakdown& b) {
  sum.recv_ms += b.recv_ms;
  sum.admit_ms += b.admit_ms;
  sum.queue_ms += b.queue_ms;
  sum.seal_ms += b.seal_ms;
  sum.dispatch_ms += b.dispatch_ms;
  sum.compute_ms += b.compute_ms;
  sum.drain_ms += b.drain_ms;
  sum.total_ms += b.total_ms;
}

}  // namespace

StepResult run_step(std::vector<std::unique_ptr<net::AlignClient>>& clients,
                    const RequestPool& pool, double rate,
                    std::size_t requests) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abandon{false};
  std::vector<SenderLog> logs(clients.size());
  // Indexed by request number; each index is written by the one sender
  // that took it.
  std::vector<double> latency(requests, -1.0);
  std::vector<double> late_by_k(requests, -1.0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const std::chrono::duration<double> period(1.0 / rate);
  std::vector<std::thread> senders;
  senders.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    senders.emplace_back([&, c] {
      SenderLog& log = logs[c];
      net::AlignClient& client = *clients[c];
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= requests || abandon.load()) break;
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     period * static_cast<double>(k));
        std::this_thread::sleep_until(due);
        const auto send = Clock::now();
        const double late = ms_between(due, send);
        if (late > kAbandonLateMs) {
          abandon.store(true);
          break;
        }
        ++log.sent;
        const auto& request = pool.requests[k % pool.requests.size()];
        const auto& expected = pool.expected[k % pool.requests.size()];
        // A rejected, expired or transport-failed request is a failed
        // operation; an answered one whose results differ from the direct
        // align_batch is also a wrong output.
        bool ok = false;
        net::WireAlignResponse response;
        try {
          response = client.align(request);
          ok = response.ok() && response.results.size() == expected.size();
          for (std::size_t j = 0; ok && j < expected.size(); ++j) {
            ok = same_result(response.results[j], expected[j]);
          }
          if (!ok && response.ok() && log.first_problem.empty()) {
            log.first_problem = "wire response " + std::to_string(k) +
                                " differs from the direct align_batch";
          }
        } catch (const std::exception&) {
          ok = false;
        }
        const auto done = Clock::now();
        log.last_done = std::max(log.last_done, done);
        late_by_k[k] = late;
        if (!ok) {
          ++log.failed;
          latency[k] = 1e12;  // a failed request misses any latency limit
          continue;
        }
        latency[k] = ms_between(due, done);
        add_breakdown(log.breakdown_sum, response.breakdown);
        log.client_overhead_ms +=
            ms_between(send, done) - response.breakdown.total_ms;
      }
    });
  }
  for (auto& t : senders) t.join();

  StepResult step;
  step.rate = rate;
  Clock::time_point last_done = t0;
  for (const auto& log : logs) {
    step.sent += log.sent;
    step.failed += log.failed;
    step.client_overhead_ms += log.client_overhead_ms;
    add_breakdown(step.breakdown_sum, log.breakdown_sum);
    if (step.first_problem.empty()) step.first_problem = log.first_problem;
    last_done = std::max(last_done, log.last_done);
  }
  for (std::size_t k = 0; k < requests; ++k) {
    if (latency[k] >= 0.0) step.latency_ms.push_back(latency[k]);
    if (late_by_k[k] >= 0.0) step.late_ms.push_back(late_by_k[k]);
  }
  step.abandoned = abandon.load();
  step.elapsed_s = std::chrono::duration<double>(last_done - t0).count();
  step.p50_ms = percentile(step.latency_ms, 0.50);
  step.p99_ms = percentile(step.latency_ms, 0.99);
  step.achieved_rps =
      step.elapsed_s > 0.0
          ? static_cast<double>(step.sent - step.failed) / step.elapsed_s
          : 0.0;
  // The backlog did not grow: nothing was abandoned, every request was
  // sent, and the last quarter of the step was sent no later than the
  // latency limit.
  const std::vector<double> tail(
      step.late_ms.end() - static_cast<long>(step.late_ms.size() / 4),
      step.late_ms.end());
  step.kept_up = !step.abandoned && step.sent == requests &&
                 median(tail) <= kLatencyLimitMs;
  return step;
}

std::size_t sender_threads() {
  return std::max<std::size_t>(1, hardware_threads() / 2);
}

std::vector<std::unique_ptr<net::AlignClient>> connect_clients(
    const WireStack& stack, std::size_t count) {
  std::vector<std::unique_ptr<net::AlignClient>> clients;
  for (std::size_t c = 0; c < count; ++c) {
    net::AlignClient::Options options;
    options.port = stack.server->port();
    clients.push_back(std::make_unique<net::AlignClient>(options));
    clients.back()->connect();
  }
  return clients;
}

RunResult run_wire_interactive(const RunArgs& args) {
  RunResult result;
  const auto reference = make_reference();
  const std::size_t threads = hardware_threads();
  TempDir dir(args.tmp_dir);
  release_free_memory();
  const std::size_t baseline_rss = current_rss_bytes();

  // Set-up: index build + save + map + server listening, repeated; every
  // artifact is saved once, to its own fresh path, never over one that may
  // be mapped.
  std::unique_ptr<pim::index::FmIndex> fm;
  std::unique_ptr<WireStack> stack;
  std::string artifact;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    fm.reset();
    artifact = dir.path() + "/ref-" + std::to_string(k) + ".index";
    const auto t0 = Clock::now();
    fm = std::make_unique<pim::index::FmIndex>(
        pim::index::FmIndex::build(reference));
    build_s.push_back(seconds_since(t0));
    pim::index::save_index_file(artifact, *fm, reference);
    stack = std::make_unique<WireStack>();
    stack->start(artifact, args.trace, threads);
    setup_s.push_back(seconds_since(t0));
  }

  const RequestPool pool = make_pool(reference, *fm, derive_seed(args.seed, 2));
  CheckTally tally;
  for (std::size_t i = 0; i < pool.truth.reads.size(); ++i) {
    const auto& want =
        pool.expected[i / kReadsPerRequest][i % kReadsPerRequest];
    std::string why;
    ++tally.reads;
    if (!check_hits(reference, pool.truth.reads[i], want.stage, want.hits,
                    pim::align::AlignerOptions{}, &why)) {
      tally.fail("pool read " + std::to_string(i) + ": " + why);
    }
  }
  for (const auto& m : tally.messages) result.problem("check: " + m);

  auto clients = connect_clients(*stack, sender_threads());
  // Warm-up: creates the service lane and faults the mapped pages in.
  run_step(clients, pool, kMainRate, kPoolRequests);

  RssSampler rss;
  std::vector<StepResult> windows;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_rps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t w = 0; w < kMainWindows; ++w) {
    windows.push_back(run_step(clients, pool, kMainRate, kWindowRequests));
    const StepResult& step = windows.back();
    attempted += step.sent;
    failed += step.failed;
    if (!step.first_problem.empty()) result.problem(step.first_problem);
    window_p50.push_back(step.p50_ms);
    window_p99.push_back(step.p99_ms);
    window_rps.push_back(step.achieved_rps);
  }
  const std::size_t peak_rss = rss.stop();

  double max_rate = 0.0;
  for (const double rate : kLadder) {
    if (args.trace) break;  // traced runs measure layers, not capacity
    bool passed = false;
    for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
      const StepResult step = run_step(
          clients, pool, rate,
          std::max(kMinStepRequests, static_cast<std::size_t>(
                                         rate * args.seconds * kStepShare)));
      attempted += step.sent;
      failed += step.failed;
      if (!step.first_problem.empty()) result.problem(step.first_problem);
      std::fprintf(stderr,
                   "wire step %.0f req/s: sent %llu, achieved %.1f req/s, "
                   "p50 %.2f ms, p99 %.2f ms, kept up %d\n",
                   rate, static_cast<unsigned long long>(step.sent),
                   step.achieved_rps, step.p50_ms, step.p99_ms,
                   step.kept_up ? 1 : 0);
      passed = step.kept_up && step.p99_ms <= kLatencyLimitMs;
      if (passed) max_rate = step.achieved_rps;
    }
    if (!passed) break;
  }
  if (!args.trace && max_rate == 0.0) {
    result.problem("no ladder step met the latency limit");
  }

  MetricList& m = result.metrics;
  if (!args.trace) {
    result.attempted = attempted;
    result.failed = failed;
    m.set("setup_s", median(setup_s), "s");
    m.set("reads_per_s",
          median(window_rps) * static_cast<double>(kReadsPerRequest),
          "reads/s");
    m.set("peak_rss_mb",
          static_cast<double>(peak_rss - std::min(peak_rss, baseline_rss)) /
              1e6,
          "MB");
    m.set("latency_p50_ms", median(window_p50), "ms");
    m.set("latency_p99_ms", median(window_p99), "ms");
    m.set("max_rate_rps", max_rate, "requests/s");
    return result;
  }

  // Traced run: the main windows above ran with a RequestTracer installed.
  // Tracing overhead: the same step, alternately on an untraced stack over
  // the same artifact and on the traced one, compared by median latency.
  put_wire_layers(windows, *stack, pool, m);
  {
    WireStack untraced;
    untraced.start(artifact, /*traced=*/false, threads);
    auto untraced_clients = connect_clients(untraced, sender_threads());
    run_step(untraced_clients, pool, kMainRate, kPoolRequests);
    std::vector<double> untraced_p50;
    std::vector<double> traced_p50;
    for (int i = 0; i < 3; ++i) {
      for (const bool traced : {false, true}) {
        const StepResult step =
            run_step(traced ? clients : untraced_clients, pool, kMainRate,
                     kMinStepRequests);
        attempted += step.sent;
        failed += step.failed;
        if (!step.first_problem.empty()) result.problem(step.first_problem);
        (traced ? traced_p50 : untraced_p50).push_back(step.p50_ms);
      }
    }
    put_trace_overhead(1.0 / median(untraced_p50), 1.0 / median(traced_p50),
                       m);
  }
  result.attempted = attempted;
  result.failed = failed;
  measure_core_layers(reference, *fm, pool.truth, threads, args.tmp_dir, m);
  m.set("index.build_s", median(build_s), "s");
  m.set("align.ingest_wait_ms", stream_ingest_wait_ms(*fm, pool.truth, threads),
        "ms");
  // Modelled PIM cost of the first pool reads.
  std::vector<std::vector<genome::Base>> sample;
  std::vector<pim::align::AlignmentResult> want;
  for (std::size_t i = 0; i < kFleetSampleRequests; ++i) {
    for (std::size_t j = 0; j < kReadsPerRequest; ++j) {
      sample.push_back(pool.requests[i].reads[j]);
      want.push_back(pool.expected[i][j]);
    }
  }
  measure_fleet_sample(*fm, sample, want, m, result);
  return result;
}

}  // namespace perfbench

//===- server/Service.h - Long-running validation service ------*- C++ -*-===//
///
/// \file
/// The transport-agnostic heart of `crellvm-served`: one warm
/// cache::ValidationCache and one work-stealing ThreadPool owned for the
/// process lifetime, fed by a bounded admission queue with explicit
/// backpressure, per-request deadlines, and a graceful drain.
///
/// Request lifecycle:
///
///   submit()            admission: parse/validate the request, reject
///                       with `queue_full` + retry_after_ms when the
///                       bounded queue is at capacity, or with
///                       `shutting_down` once a drain began. Admission
///                       never blocks the caller. Each admitted request
///                       is appended to the FIFO and gets one pool task.
///   pool task           pops the FIFO's front (so requests start in
///                       admission order whatever order the pool runs
///                       its tasks in), then validates that one unit
///                       through driver::runBatchValidated inline on the
///                       worker. No request waits for another: there is
///                       no batch to fill and nothing to linger for.
///   per-unit hooks      BatchOptions::CancelUnit expires a request whose
///                       deadline passed while it queued;
///                       BatchOptions::OnUnitDone answers it from the
///                       worker the moment its unit finishes.
///   beginShutdown()     new work is rejected, everything already
///                       admitted still gets a verdict (or its deadline
///                       expiry); drain() blocks until the queue is empty
///                       and no task is running. **No admitted request
///                       is ever dropped without a response.**
///
/// Every verdict is produced by exactly the same ValidationDriver stack
/// `crellvm-validate` uses — the service adds scheduling, never
/// semantics — so per-pass #V/#F/#NS must be bit-identical to a
/// standalone run on the same units (ServerTest pins this).
///
/// statsJson() exposes live metrics: request/verdict counters, queue
/// depth and pool gauges (ThreadPool::queueDepth/activeWorkers), cache
/// hit rate, and latency histograms (support/Histogram.h) with
/// p50/p95/p99 for queue wait and total latency.
///
//===----------------------------------------------------------------------===//
#ifndef CRELLVM_SERVER_SERVICE_H
#define CRELLVM_SERVER_SERVICE_H

#include "cache/ValidationCache.h"
#include "plan/PlanManager.h"
#include "server/Protocol.h"
#include "server/RequestHandler.h"
#include "support/Histogram.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace crellvm {
namespace server {

struct ServiceOptions {
  /// Pool workers shared by all requests; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Bounded admission queue; submits beyond it are rejected with
  /// `queue_full` and a retry_after_ms hint (explicit backpressure, the
  /// alternative being unbounded memory growth under overload).
  size_t QueueMax = 256;
  /// Floor for the retry_after_ms backoff hint. However low this is
  /// configured, the hint never drops below server::MinRetryAfterMs — a
  /// cold daemon's empty latency histogram must not hint 0 ms and turn
  /// backpressured clients into hot-spinners.
  uint64_t RetryAfterMsFloor = 10;
  /// Per-unit watchdog deadline handed to driver::BatchOptions; a unit
  /// still running past it is answered `internal_error` while its worker
  /// finishes in the background. 0 disables the watchdog.
  uint64_t UnitTimeoutMs = 0;
  /// After this many *consecutive* internal_error answers for the same
  /// unit identity (seed or module hash, plus bugs preset), further
  /// submissions of it are rejected with reason "quarantined" instead of
  /// re-running a unit that keeps crashing or hanging the pool. A
  /// successful run clears the streak. 0 disables quarantining.
  uint64_t QuarantineAfter = 2;
  /// Construct paused: admitted requests queue but no task starts until
  /// resume(). Tests use this to set up deterministic queue states (a
  /// full queue, an expired deadline) before anything runs.
  bool StartPaused = false;
  /// Identity stamped as `member_id` into the stats document, so the
  /// cluster router can attribute an aggregated counter back to the
  /// member that produced it. Empty = "pid:<pid>" (standalone daemons
  /// need no configuration; cluster members pass --member-id).
  std::string MemberId;
  /// Base driver configuration (file exchange, oracle, binary proofs);
  /// the Cache pointer is overwritten with the service-owned cache.
  driver::DriverOptions Driver;
  /// The warm cache kept across all requests (policy Off disables it).
  cache::ValidationCacheOptions Cache;
  /// Checker-plan mode for every request (plan/PlanManager.h). The service
  /// owns one warm PlanManager for the process lifetime, wired to the
  /// cache's disk tier so plans persist — and, in a cluster, are shared —
  /// through the same content-addressed store as verdicts. Plans are
  /// strictly server-local: nothing about them crosses the wire, so the
  /// protocol needs no negotiation and clients need no knowledge of the
  /// member's mode.
  plan::PlanMode Plan = plan::PlanMode::Off;
};

/// Monotonic counters; snapshot via counters().
struct ServiceCounters {
  uint64_t Received = 0;          ///< all submit() calls
  uint64_t Accepted = 0;          ///< admitted to the queue
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedShutdown = 0;
  uint64_t RejectedQuarantined = 0;
  uint64_t BadRequests = 0;       ///< parse/validation errors at admission
  uint64_t Completed = 0;         ///< answered with a verdict
  uint64_t DeadlineExpired = 0;
  uint64_t InternalErrors = 0;    ///< answered internal_error (threw/hung)
  uint64_t WatchdogTimeouts = 0;  ///< InternalErrors due to the watchdog
  /// Kept only because the benchmark in ledger/ reads them, until a
  /// benchmark change retires them: Batches and BatchedUnits both count
  /// pool tasks started (one per request), and LingerWaits stays 0.
  uint64_t Batches = 0;
  uint64_t BatchedUnits = 0;
  uint64_t LingerWaits = 0;
  uint64_t VerdictsV = 0, VerdictsF = 0, VerdictsNS = 0;
  uint64_t DiffMismatches = 0;
  uint64_t OracleDivergences = 0; ///< nonzero only with Driver.RunOracle
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t StatsRequests = 0;
};

class ValidationService : public RequestHandler {
public:
  using Callback = RequestHandler::Callback;

  explicit ValidationService(ServiceOptions Opts);

  /// Drains (rejecting nothing that was admitted) and waits for the
  /// pool to go idle.
  ~ValidationService() override;

  ValidationService(const ValidationService &) = delete;
  ValidationService &operator=(const ValidationService &) = delete;

  /// Admits \p R or rejects it; \p Done is invoked exactly once, from
  /// the caller (rejections, errors, stats/ping) or from a pool worker
  /// (verdicts). \p Done must be thread-safe against other callbacks and
  /// must not throw.
  void submit(const Request &R, Callback Done) override;

  /// Synchronous convenience: submit and wait for the response.
  Response call(const Request &R);

  /// Starts the queued requests' tasks when constructed with StartPaused.
  void resume();

  /// Stops admitting; everything already queued or running still
  /// completes. Idempotent.
  void beginShutdown() override;

  /// Blocks until the queue is empty and no task is running.
  void drain() override;

  bool draining() const;

  /// Live metrics as one JSON object (see file comment).
  json::Value statsJson();

  ServiceCounters counters() const;
  size_t queueDepth() const;
  cache::ValidationCache &cache() { return Cache; }
  plan::PlanManager &plans() { return Plans; }
  unsigned jobs() const { return Pool.numThreads(); }

private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request R;
    Callback Done;
    std::optional<ir::Module> Mod; ///< pre-parsed explicit module
    passes::BugConfig Bugs;
    Clock::time_point Arrival;
    Clock::time_point Deadline; ///< meaningful iff R.DeadlineMs != 0
  };

  /// Submits \p N pool tasks; must not be called with M held.
  void startTasks(size_t N);
  /// One pool task: pops the queue's front request and answers it.
  void runOne();
  void finishOne(Pending &P, Response Rsp, Clock::time_point Start);
  uint64_t retryAfterMsHint();
  /// Stable identity of a validate request for the quarantine list.
  static std::string unitKey(const Request &R);
  /// Updates the consecutive-failure streak for \p R (failure increments,
  /// success clears) under M.
  void noteUnitResult(const Request &R, bool Failed);

  ServiceOptions Opts;
  cache::ValidationCache Cache;
  /// Warm per-preset plan runtime; shares Cache's disk tier (constructed
  /// after Cache — member order matters).
  plan::PlanManager Plans;
  ThreadPool Pool;

  mutable std::mutex M;
  std::condition_variable IdleCv; ///< wakes drain()ers
  std::deque<Pending> Queue;      ///< admitted, not yet started (FIFO)
  bool Paused = false;
  bool Draining = false;
  size_t Running = 0;             ///< tasks that popped, not yet done
  ServiceCounters Stats;
  /// unitKey -> consecutive internal_error count (guarded by M). Keys at
  /// or above QuarantineAfter are refused admission.
  std::map<std::string, uint64_t> FailStreaks;

  Histogram QueueLatencyUs; ///< admission -> task start
  Histogram TotalLatencyUs; ///< admission -> response
};

/// In-process transport for tests: every request and response crosses the
/// same JSON codec the socket uses (requestToJson -> requestFromJson on
/// the way in, responseToJson -> responseFromJson on the way out), so
/// loopback tests cover the wire format, minus only the fd plumbing.
class LoopbackTransport {
public:
  explicit LoopbackTransport(ValidationService &S) : S(S) {}

  void submit(const Request &R, ValidationService::Callback Done);
  Response call(const Request &R);

private:
  ValidationService &S;
};

} // namespace server
} // namespace crellvm

#endif // CRELLVM_SERVER_SERVICE_H

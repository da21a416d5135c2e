//===- server/Service.cpp ---------------------------------------*- C++ -*-===//

#include "server/Service.h"

#include "ir/Parser.h"
#include "support/FaultInjection.h"
#include "workload/RandomProgram.h"

#include <condition_variable>

#include <unistd.h>

using namespace crellvm;
using namespace crellvm::server;

namespace {

std::optional<passes::BugConfig> parseBugs(const std::string &Name) {
  // Version presets plus the flag-level historical bugs (pr24179, ...):
  // the campaign's bug-hunt mode plants one bug at a time through the
  // same wire field.
  return passes::BugConfig::byName(Name);
}

json::Value histJson(const Histogram &H) {
  Histogram::Snapshot S = H.snapshot();
  json::Value O = json::Value::object();
  O.set("count", json::Value(S.Count));
  O.set("sum", json::Value(S.Sum));
  O.set("mean", json::Value(static_cast<uint64_t>(S.mean() + 0.5)));
  O.set("p50", json::Value(S.quantile(0.50)));
  O.set("p95", json::Value(S.quantile(0.95)));
  O.set("p99", json::Value(S.quantile(0.99)));
  O.set("max", json::Value(S.Max));
  // Raw log2 bucket counts. Quantiles cannot be averaged across members,
  // but bucket counts sum exactly — the router merges these and derives
  // true cluster-wide percentiles (trailing zero buckets are trimmed).
  json::Value Buckets = json::Value::array();
  unsigned Last = Histogram::NumBuckets;
  while (Last > 0 && S.Buckets[Last - 1] == 0)
    --Last;
  for (unsigned I = 0; I != Last; ++I)
    Buckets.push(json::Value(S.Buckets[I]));
  O.set("buckets", std::move(Buckets));
  return O;
}

const char *policyName(cache::CachePolicy P) {
  switch (P) {
  case cache::CachePolicy::Off:
    return "off";
  case cache::CachePolicy::ReadOnly:
    return "ro";
  case cache::CachePolicy::ReadWrite:
    return "rw";
  }
  return "?";
}

} // namespace

namespace {
plan::PlanManagerOptions
planOptionsFor(plan::PlanMode Mode, cache::ValidationCache &Cache) {
  plan::PlanManagerOptions PO;
  PO.Mode = Mode;
  PO.Disk = Cache.enabled() ? Cache.diskStore() : nullptr;
  return PO;
}
} // namespace

ValidationService::ValidationService(ServiceOptions Options)
    : Opts(std::move(Options)), Cache(Opts.Cache),
      Plans(planOptionsFor(Opts.Plan, Cache)), Pool(Opts.Jobs),
      Paused(Opts.StartPaused) {
  // The service owns the one warm cache and plan runtime; whatever the
  // caller put in the base driver options is replaced.
  Opts.Driver.Cache = Cache.enabled() ? &Cache : nullptr;
  Opts.Driver.Plans = Opts.Plan != plan::PlanMode::Off ? &Plans : nullptr;
  if (Opts.MemberId.empty())
    Opts.MemberId = "pid:" + std::to_string(static_cast<uint64_t>(::getpid()));
}

ValidationService::~ValidationService() {
  beginShutdown();
  drain();
  // drain() returns once the last task signalled idle; the task itself
  // may still be unwinding, so wait for the pool before members go.
  Pool.wait();
}

void ValidationService::startTasks(size_t N) {
  // Never called under M: a refused enqueue (the pool.submit chaos site)
  // runs the task inline, and the task takes M.
  for (size_t I = 0; I != N; ++I)
    Pool.submit([this] { runOne(); });
}

void ValidationService::resume() {
  size_t Deferred = 0;
  {
    std::lock_guard<std::mutex> L(M);
    if (Paused)
      Deferred = Queue.size();
    Paused = false;
  }
  startTasks(Deferred);
}

void ValidationService::beginShutdown() {
  {
    std::lock_guard<std::mutex> L(M);
    Draining = true;
  }
  // A paused service still owes verdicts to everything it admitted:
  // drain implies running.
  resume();
}

bool ValidationService::draining() const {
  std::lock_guard<std::mutex> L(M);
  return Draining;
}

size_t ValidationService::queueDepth() const {
  std::lock_guard<std::mutex> L(M);
  return Queue.size();
}

ServiceCounters ValidationService::counters() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

std::string ValidationService::unitKey(const Request &R) {
  // Module-text identity is its FNV-1a hash; seeds are their own identity.
  if (!R.ModuleText.empty()) {
    uint64_t H = 1469598103934665603ull;
    for (char C : R.ModuleText) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    return "mod:" + std::to_string(H) + "|" + R.Bugs;
  }
  return "seed:" + std::to_string(R.Seed) + "|" + R.Bugs;
}

void ValidationService::noteUnitResult(const Request &R, bool Failed) {
  if (!Opts.QuarantineAfter)
    return;
  std::lock_guard<std::mutex> L(M);
  if (Failed)
    ++FailStreaks[unitKey(R)];
  else
    FailStreaks.erase(unitKey(R));
}

uint64_t ValidationService::retryAfterMsHint() {
  // Half a typical request latency is a reasonable first retry; the floor
  // keeps the hint sane before any request completed. On a cold daemon
  // the histogram is empty (p50 = 0), so if the configured floor is 0 the
  // hint would be 0 ms and every backpressured client would hot-spin —
  // MinRetryAfterMs is a hard lower bound, independent of configuration.
  uint64_t P50Us = TotalLatencyUs.snapshot().quantile(0.5);
  uint64_t Hint = P50Us / 2000;
  if (Hint < Opts.RetryAfterMsFloor)
    Hint = Opts.RetryAfterMsFloor;
  return Hint < MinRetryAfterMs ? MinRetryAfterMs : Hint;
}

void ValidationService::submit(const Request &R, Callback Done) {
  {
    std::lock_guard<std::mutex> L(M);
    ++Stats.Received;
  }
  Response Rsp;
  Rsp.Id = R.Id;

  switch (R.Kind) {
  case RequestKind::Ping:
    // Liveness vs. readiness (Protocol.h): any answer proves the process
    // alive; readiness is Ok with an empty reason. A draining daemon is
    // alive but not ready — still Ok (old health checks keep passing),
    // with the reason supervisors gate admission on.
    Rsp.Status = ResponseStatus::Ok;
    {
      std::lock_guard<std::mutex> L(M);
      if (Draining)
        Rsp.Reason = "draining";
    }
    Done(std::move(Rsp));
    return;
  case RequestKind::Stats:
    Rsp.Status = ResponseStatus::Ok;
    Rsp.Stats = statsJson();
    {
      std::lock_guard<std::mutex> L(M);
      ++Stats.StatsRequests;
    }
    Done(std::move(Rsp));
    return;
  case RequestKind::Shutdown:
    beginShutdown();
    Rsp.Status = ResponseStatus::Ok;
    Rsp.Reason = "draining";
    Done(std::move(Rsp));
    return;
  case RequestKind::Hello:
    // Codec negotiation is transport business; SocketServer answers it
    // before the request ever reaches a handler. A hello arriving here
    // came over the loopback transport, which has no frames to re-encode
    // — so the honest answer is the codec loopback already speaks.
    Rsp.Status = ResponseStatus::Ok;
    Rsp.Codec = codecName(WireCodec::Json);
    Done(std::move(Rsp));
    return;
  case RequestKind::Validate:
    break;
  }

  // Admission-time validation: anything malformed is answered now, on the
  // caller's thread, without consuming queue capacity.
  auto Bugs = parseBugs(R.Bugs);
  if (!Bugs) {
    std::lock_guard<std::mutex> L(M);
    ++Stats.BadRequests;
    Rsp.Status = ResponseStatus::Error;
    Rsp.Reason = "unknown bugs preset '" + R.Bugs + "'";
  }
  std::optional<ir::Module> Mod;
  if (Bugs && !R.ModuleText.empty()) {
    std::string Err;
    Mod = ir::parseModule(R.ModuleText, &Err);
    if (!Mod) {
      std::lock_guard<std::mutex> L(M);
      ++Stats.BadRequests;
      Rsp.Status = ResponseStatus::Error;
      Rsp.Reason = "module parse error: " + Err;
    }
  }
  if (Rsp.Status == ResponseStatus::Error && !Rsp.Reason.empty()) {
    Done(std::move(Rsp));
    return;
  }

  // Quarantine: a unit that repeatedly crashed or hung gets refused at
  // admission instead of burning another worker (and another watchdog
  // deadline). The rejection is deliberate, so the client must not retry
  // it the way it retries queue_full.
  if (Opts.QuarantineAfter) {
    std::lock_guard<std::mutex> L(M);
    auto It = FailStreaks.find(unitKey(R));
    if (It != FailStreaks.end() && It->second >= Opts.QuarantineAfter) {
      ++Stats.RejectedQuarantined;
      Rsp.Status = ResponseStatus::Rejected;
      Rsp.Reason = "quarantined";
    }
  }
  if (Rsp.Status == ResponseStatus::Rejected) {
    Done(std::move(Rsp));
    return;
  }

  Pending P;
  P.R = R;
  P.Done = std::move(Done);
  P.Mod = std::move(Mod);
  P.Bugs = *Bugs;
  P.Arrival = Clock::now();
  if (R.DeadlineMs)
    P.Deadline = P.Arrival + std::chrono::milliseconds(R.DeadlineMs);

  bool Admitted = false, Start = false;
  {
    std::lock_guard<std::mutex> L(M);
    if (Draining) {
      ++Stats.RejectedShutdown;
      Rsp.Status = ResponseStatus::Rejected;
      Rsp.Reason = "shutting_down";
    } else if (Queue.size() >= Opts.QueueMax ||
               fault::shouldFail("queue.admit")) {
      // The chaos site models admission pressure: a forced shed is
      // answered exactly like a genuinely full queue (rejected +
      // retry_after_ms), so load is shed, never deadlocked on.
      ++Stats.RejectedQueueFull;
      Rsp.Status = ResponseStatus::Rejected;
      Rsp.Reason = "queue_full";
      Rsp.RetryAfterMs = retryAfterMsHint();
    } else {
      ++Stats.Accepted;
      Queue.push_back(std::move(P));
      Admitted = true;
      Start = !Paused;
    }
  }
  if (Start)
    startTasks(1);
  if (!Admitted)
    P.Done(std::move(Rsp)); // rejected: P was not moved into the queue
}

Response ValidationService::call(const Request &R) {
  struct Waiter {
    std::mutex M;
    std::condition_variable Cv;
    bool Ready = false;
    Response Rsp;
  };
  auto W = std::make_shared<Waiter>();
  submit(R, [W](Response Rsp) {
    std::lock_guard<std::mutex> L(W->M);
    W->Rsp = std::move(Rsp);
    W->Ready = true;
    W->Cv.notify_all();
  });
  std::unique_lock<std::mutex> L(W->M);
  W->Cv.wait(L, [&W] { return W->Ready; });
  return W->Rsp;
}

void ValidationService::finishOne(Pending &P, Response Rsp,
                                  Clock::time_point Start) {
  auto Now = Clock::now();
  auto Us = [](Clock::duration D) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(D).count());
  };
  Rsp.Id = P.R.Id;
  Rsp.QueueUs = Us(Start - P.Arrival);
  Rsp.TotalUs = Us(Now - P.Arrival);
  QueueLatencyUs.record(Rsp.QueueUs);
  TotalLatencyUs.record(Rsp.TotalUs);
  {
    std::lock_guard<std::mutex> L(M);
    if (Rsp.Status == ResponseStatus::DeadlineExceeded) {
      ++Stats.DeadlineExpired;
    } else if (Rsp.Status == ResponseStatus::InternalError) {
      ++Stats.InternalErrors;
    } else {
      ++Stats.Completed;
      Stats.VerdictsV += Rsp.totalV();
      Stats.VerdictsF += Rsp.totalF();
      Stats.VerdictsNS += Rsp.totalNS();
      Stats.DiffMismatches += Rsp.totalDiff();
      Stats.OracleDivergences += Rsp.totalDiv();
      Stats.CacheHits += Rsp.CacheHits;
      Stats.CacheMisses += Rsp.CacheMisses;
    }
  }
  Callback Done = std::move(P.Done);
  Done(std::move(Rsp));
}

void ValidationService::runOne() {
  Pending P;
  {
    std::lock_guard<std::mutex> L(M);
    // Tasks pop the FIFO rather than carry their own request: the pool's
    // per-worker deques are owner-LIFO, the admission order is not.
    P = std::move(Queue.front());
    Queue.pop_front();
    ++Running;
    ++Stats.Batches;
    ++Stats.BatchedUnits;
  }
  Clock::time_point Start = Clock::now();
  static std::atomic<uint64_t> TaskSeq{0};
  driver::DriverOptions DOpts = Opts.Driver;
  DOpts.ExchangeTag =
      "srv" + std::to_string(TaskSeq.fetch_add(1, std::memory_order_relaxed));

  driver::BatchOptions BOpts;
  BOpts.Jobs = 1; // this task is the request's one pool slot
  BOpts.UnitTimeoutMs = Opts.UnitTimeoutMs;
  BOpts.CancelUnit = [&P](size_t) {
    return P.R.DeadlineMs != 0 && Clock::now() > P.Deadline;
  };
  BOpts.OnUnitDone = [this, &P, Start](size_t, const driver::StatsMap &Unit,
                                       driver::UnitOutcome Outcome,
                                       const std::string &Detail) {
    Response Rsp;
    switch (Outcome) {
    case driver::UnitOutcome::Cancelled:
      Rsp.Status = ResponseStatus::DeadlineExceeded;
      Rsp.Reason = "deadline passed before validation started";
      break;
    case driver::UnitOutcome::InternalError:
      Rsp.Status = ResponseStatus::InternalError;
      Rsp.Reason = "validation unit failed: " + Detail;
      break;
    case driver::UnitOutcome::TimedOut:
      Rsp.Status = ResponseStatus::InternalError;
      Rsp.Reason = "watchdog: " + Detail;
      {
        std::lock_guard<std::mutex> L(M);
        ++Stats.WatchdogTimeouts;
      }
      break;
    case driver::UnitOutcome::Ok:
      Rsp.Status = ResponseStatus::Ok;
      Rsp.Passes = passVerdictsOf(Unit);
      for (const auto &KV : Unit) {
        for (const std::string &S : KV.second.FailureSamples)
          if (Rsp.Failures.size() < 16)
            Rsp.Failures.push_back("[" + KV.first + "] " + S);
        for (const std::string &S : KV.second.OracleSamples)
          if (Rsp.Divergences.size() < 16)
            Rsp.Divergences.push_back(S); // already "[pass]"-prefixed
        Rsp.CacheHits += KV.second.CacheHits;
        Rsp.CacheMisses += KV.second.CacheMisses;
      }
      break;
    }
    // Only Ok and the two failure outcomes touch the quarantine streak; a
    // deadline expiry says nothing about the unit itself.
    if (Outcome != driver::UnitOutcome::Cancelled)
      noteUnitResult(P.R, Outcome != driver::UnitOutcome::Ok);
    finishOne(P, std::move(Rsp), Start);
  };

  driver::runBatchValidated(
      P.Bugs, DOpts, 1,
      [&P](size_t) {
        if (P.Mod)
          return *P.Mod;
        // Exactly what `crellvm-validate --seed S --modules 1` feeds the
        // driver, so verdicts are comparable bit for bit.
        workload::GenOptions G;
        G.Seed = P.R.Seed;
        return workload::generateModule(G);
      },
      BOpts);

  std::lock_guard<std::mutex> L(M);
  if (--Running == 0 && Queue.empty())
    IdleCv.notify_all();
}

void ValidationService::drain() {
  std::unique_lock<std::mutex> L(M);
  IdleCv.wait(L, [this] { return Queue.empty() && Running == 0; });
}

json::Value ValidationService::statsJson() {
  ServiceCounters C;
  size_t Depth;
  bool IsDraining;
  {
    std::lock_guard<std::mutex> L(M);
    C = Stats;
    Depth = Queue.size();
    IsDraining = Draining;
  }

  json::Value Root = json::Value::object();
  // Schema stamp first: the router's aggregator checks these two fields
  // before trusting any counter below them.
  Root.set("schema_version", json::Value(StatsSchemaVersion));
  Root.set("member_id", json::Value(Opts.MemberId));

  json::Value Server = json::Value::object();
  Server.set("draining", json::Value(IsDraining));
  Server.set("jobs", json::Value(static_cast<uint64_t>(Pool.numThreads())));
  Server.set("queue_depth", json::Value(static_cast<uint64_t>(Depth)));
  Server.set("queue_max", json::Value(static_cast<uint64_t>(Opts.QueueMax)));
  // Campaign clients check this before a bug-hunt: without the oracle the
  // daemon cannot expose checker-accepted miscompilations (PR33673).
  Server.set("oracle", json::Value(Opts.Driver.RunOracle));
  json::Value PoolV = json::Value::object();
  PoolV.set("queue_depth", json::Value(Pool.queueDepth()));
  PoolV.set("active_workers",
            json::Value(static_cast<uint64_t>(Pool.activeWorkers())));
  Server.set("pool", std::move(PoolV));
  Root.set("server", std::move(Server));

  json::Value Req = json::Value::object();
  Req.set("received", json::Value(C.Received));
  Req.set("accepted", json::Value(C.Accepted));
  Req.set("completed", json::Value(C.Completed));
  Req.set("rejected_queue_full", json::Value(C.RejectedQueueFull));
  Req.set("rejected_shutting_down", json::Value(C.RejectedShutdown));
  Req.set("rejected_quarantined", json::Value(C.RejectedQuarantined));
  Req.set("bad_requests", json::Value(C.BadRequests));
  Req.set("deadline_exceeded", json::Value(C.DeadlineExpired));
  Req.set("internal_errors", json::Value(C.InternalErrors));
  Req.set("watchdog_timeouts", json::Value(C.WatchdogTimeouts));
  Req.set("stats_requests", json::Value(C.StatsRequests));
  Root.set("requests", std::move(Req));

  json::Value Verd = json::Value::object();
  Verd.set("V", json::Value(C.VerdictsV));
  Verd.set("F", json::Value(C.VerdictsF));
  Verd.set("NS", json::Value(C.VerdictsNS));
  Verd.set("diff", json::Value(C.DiffMismatches));
  Verd.set("oracle_div", json::Value(C.OracleDivergences));
  Root.set("verdicts", std::move(Verd));

  json::Value CacheV = json::Value::object();
  CacheV.set("policy", json::Value(policyName(Cache.policy())));
  CacheV.set("configured_policy",
             json::Value(policyName(Cache.configuredPolicy())));
  CacheV.set("demotions", json::Value(Cache.demotions()));
  CacheV.set("disk_faults", json::Value(Cache.diskFaults()));
  CacheV.set("hits", json::Value(C.CacheHits));
  CacheV.set("misses", json::Value(C.CacheMisses));
  uint64_t Lookups = C.CacheHits + C.CacheMisses;
  CacheV.set("hit_rate_ppm",
             json::Value(Lookups ? static_cast<uint64_t>(
                                       C.CacheHits * 1000000.0 / Lookups + 0.5)
                                 : 0));
  CacheV.set("mem_entries", json::Value(static_cast<uint64_t>(Cache.memSize())));
  CacheV.set("disk_bytes", json::Value(Cache.diskBytes()));
  Root.set("cache", std::move(CacheV));

  // Checker-plan pipeline (plan/PlanManager.h): flat totals sum across
  // members; the nested per_preset detail stays per-member.
  Root.set("plan", Plans.statsJson());

  json::Value Lat = json::Value::object();
  Lat.set("queue", histJson(QueueLatencyUs));
  Lat.set("total", histJson(TotalLatencyUs));
  Root.set("latency_us", std::move(Lat));

  // Fault-injection telemetry, so an operator can tell a chaos run (and
  // what it injected) apart from a genuinely failing disk or peer.
  json::Value Chaos = json::Value::object();
  Chaos.set("armed", json::Value(fault::armed()));
  Chaos.set("spec", json::Value(fault::activeSpec()));
  Chaos.set("injected", json::Value(fault::totalInjected()));
  Root.set("chaos", std::move(Chaos));
  return Root;
}

// --- LoopbackTransport -------------------------------------------------------

void LoopbackTransport::submit(const Request &R,
                               ValidationService::Callback Done) {
  std::string Err;
  auto Decoded = requestFromJson(requestToJson(R), &Err);
  if (!Decoded) {
    Response Rsp;
    Rsp.Id = R.Id;
    Rsp.Status = ResponseStatus::Error;
    Rsp.Reason = Err;
    Done(std::move(Rsp));
    return;
  }
  S.submit(*Decoded, [Done = std::move(Done)](Response Rsp) {
    std::string CodecErr;
    auto Back = responseFromJson(responseToJson(Rsp), &CodecErr);
    if (!Back) {
      Response Bad;
      Bad.Id = Rsp.Id;
      Bad.Status = ResponseStatus::Error;
      Bad.Reason = "response codec round-trip failed: " + CodecErr;
      Done(std::move(Bad));
      return;
    }
    Done(std::move(*Back));
  });
}

Response LoopbackTransport::call(const Request &R) {
  struct Waiter {
    std::mutex M;
    std::condition_variable Cv;
    bool Ready = false;
    Response Rsp;
  };
  auto W = std::make_shared<Waiter>();
  submit(R, [W](Response Rsp) {
    std::lock_guard<std::mutex> L(W->M);
    W->Rsp = std::move(Rsp);
    W->Ready = true;
    W->Cv.notify_all();
  });
  std::unique_lock<std::mutex> L(W->M);
  W->Cv.wait(L, [&W] { return W->Ready; });
  return W->Rsp;
}

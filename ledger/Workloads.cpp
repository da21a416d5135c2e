//===- ledger/Workloads.cpp - The three ledger workloads -------*- C++ -*-===//
//
// batch_cold     runBatchValidated on a 4-worker ThreadPool, preset 371,
//                cache off, in-memory exchange.
// daemon_closed  ValidationService (default batching, cache off) behind a
//                SocketServer; 4 closed-loop clients on 4 connections.
// cluster_warm   ClusterRouter behind a front SocketServer over 3 members
//                (1 worker each, rw MemCache, warmed);
//                open-loop arrivals at a fixed rate on 4 connections.
//
// Each workload measures an untraced window for the end-to-end metrics
// (--trace 0), or an untraced reference half plus a traced half for the
// per-layer metrics (--trace 1).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "cluster/HashRing.h"
#include "cluster/Router.h"
#include "ir/Printer.h"
#include "server/Service.h"
#include "server/SocketServer.h"
#include "support/Histogram.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace crellvm;
using namespace crellvm::ledger;

namespace {

/// Validation workers of every stack together (sized for nproc = 4).
constexpr unsigned Workers = 4;
/// cluster_warm: workers per member (3 members stay within nproc).
constexpr unsigned MemberWorkers = 1;
/// Load-generator connections (and closed-loop client threads).
constexpr unsigned Connections = 4;
/// Stack constructions per run; setup_s is their median.
constexpr unsigned SetupReps = 5;
/// Warm-up units per batch worker and per daemon connection. With 8, a
/// set-up lasted under 0.1 s, and one large unit or one stall of the host
/// moved setup_s by a fifth between sets of runs.
constexpr unsigned WarmUpUnits = 32;
/// Served units re-run through spanned driver calls for attribution.
constexpr size_t ReplayUnits = 48;
/// cluster_warm: hot-set size, and the open-loop arrival rate. A saturation
/// probe (64-unit hot set) peaked near 680/s, but on a shared machine
/// queueing amplifies every slow phase: at 340/s p50 went from 7 to 184 ms,
/// and at 200/s p99 still ranged 20-61 ms where 100/s stayed at 21-27 ms.
constexpr size_t HotSetSize = 256;
constexpr double ClusterRatePerS = 100;

driver::DriverOptions inMemoryExchange() {
  driver::DriverOptions D;
  D.WriteFiles = false;
  return D;
}

std::string fmt(double V, int Digits = 1) {
  std::ostringstream SS;
  SS.setf(std::ios::fixed);
  SS.precision(Digits);
  SS << V;
  return SS.str();
}

/// Everything the traced run reports; zero where a workload has no such
/// layer (cluster counters on batch_cold, say).
struct LayerReport {
  PhaseTotals Phases;
  double CacheHits = 0, CacheLookups = 0, CacheStores = 0;
  double AdmitMs = 0, QueueMs = 0, RunMs = 0;
  double Batches = 0, BatchedUnits = 0, LingerWaits = 0;
  double SocketMs = 0;
  double StatsP50Ratio = 0, StatsP99Ratio = 0;
  double RouteMs = 0, HopMs = 0, Forwarded = 0, Failovers = 0;
  double LagP99Ms = 0, Samples = 0;
  double ClosureRatio = 0, OverheadRatio = 0;
};

Metrics perLayerMetrics(const LayerReport &L) {
  Metrics Out;
  addPhaseMetrics(Out, L.Phases);
  auto Put = [&](const char *Name, double V, const char *Unit) {
    Out.push_back({Name, {V, Unit}});
  };
  Put("cache.hit_ratio", L.CacheLookups ? L.CacheHits / L.CacheLookups : 0,
      "ratio");
  Put("cache.hits", L.CacheHits, "count");
  Put("cache.lookups", L.CacheLookups, "count");
  Put("cache.stores", L.CacheStores, "count");
  Put("server.admit_ms", L.AdmitMs, "ms");
  Put("server.queue_ms", L.QueueMs, "ms");
  Put("server.run_ms", L.RunMs, "ms");
  Put("server.batches", L.Batches, "count");
  Put("server.mean_batch_size", L.Batches ? L.BatchedUnits / L.Batches : 0,
      "count");
  Put("server.linger_waits", L.LingerWaits, "count");
  Put("server.socket_ms", L.SocketMs, "ms");
  Put("server.stats_p50_ratio", L.StatsP50Ratio, "ratio");
  Put("server.stats_p99_ratio", L.StatsP99Ratio, "ratio");
  Put("cluster.route_ms", L.RouteMs, "ms");
  Put("cluster.hop_ms", L.HopMs, "ms");
  Put("cluster.forwarded", L.Forwarded, "count");
  Put("cluster.failovers", L.Failovers, "count");
  Put("loadgen.lag_p99_ms", L.LagP99Ms, "ms");
  Put("loadgen.samples", L.Samples, "count");
  Put("trace.closure_ratio", L.ClosureRatio, "ratio");
  Put("trace.overhead_ratio", L.OverheadRatio, "ratio");
  return Out;
}

std::string windowLine(const std::string &Name, const WindowStats &W) {
  return Name + ": " + std::to_string(W.Completed) + " units in " +
         fmt(W.WallS, 2) + " s (" + fmt(W.unitsPerS()) +
         " units/s); latency p50/p99 over " +
         std::to_string(W.LatencyMs.size()) + " samples: " +
         fmt(exactQuantile(W.LatencyMs, 0.5), 2) + "/" +
         fmt(exactQuantile(W.LatencyMs, 0.99), 2) + " ms";
}

/// Checks one answered unit and files it into \p W (caller holds the lock).
void fileAnswer(WindowStats &W, const UnitRef &U, const server::Response &Rsp,
                double LatencyMs) {
  ++W.Attempted;
  if (Rsp.Status != server::ResponseStatus::Ok) {
    W.notOk(std::string(server::statusName(Rsp.Status)) + " " + Rsp.Reason);
    return;
  }
  ++W.Completed;
  W.LatencyMs.push_back(LatencyMs);
  std::string Bad = wrongVerdict(U, Rsp.Passes);
  if (!Bad.empty())
    W.wrong(Bad);
}

/// The stats document's own latency percentile over the exact one.
double statsRatio(const json::Value &Stats, const char *Q,
                  const std::vector<double> &ExactUs, double Quantile) {
  const json::Value *Lat = Stats.find("latency_us");
  const json::Value *Total = Lat ? Lat->find("total") : nullptr;
  const json::Value *P = Total ? Total->find(Q) : nullptr;
  double Exact = exactQuantile(ExactUs, Quantile);
  if (!P || P->kind() != json::Value::Kind::Int || Exact <= 0)
    return 0;
  return double(P->getInt()) / Exact;
}

// --- batch_cold ---------------------------------------------------------------

/// batch_cold's unit list: the two recorded campaign-1 bug-hunt
/// reproducers first, then the 371 pool in seeded order, cycled.
class BatchPlan {
public:
  explicit BatchPlan(uint64_t Seed)
      : Pool(pools().Batch371), Perm(seededPermutation(Pool.size(), Seed)) {}

  UnitRef at(size_t I) const {
    if (I < 2)
      return UnitRef{&Pool, I == 0 ? 0u : 45u};
    return UnitRef{&Pool, Perm[(I - 2) % Perm.size()]};
  }

private:
  const KnownAnswers &Pool;
  std::vector<uint64_t> Perm;
};

/// Units per runBatchValidated call: one CLI-sized batch, so memory stays
/// bounded however many units a window completes.
constexpr size_t BatchUnits = 1024;

/// The untraced window: back-to-back runBatchValidated calls whose
/// CancelUnit hook closes the window at the deadline.
WindowStats batchWindow(ThreadPool &Pool, const BatchPlan &Plan,
                        double Seconds) {
  WindowStats W;
  std::mutex M;
  std::vector<Clock::time_point> Start(BatchUnits);
  size_t Base = 0; // plan index of the current batch's unit 0
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline = secondsAfter(T0, Seconds);

  driver::BatchOptions BOpts;
  BOpts.Jobs = Workers;
  BOpts.CancelUnit = [&](size_t I) {
    Clock::time_point Now = Clock::now();
    if (Now >= Deadline)
      return true;
    Start[I] = Now;
    return false;
  };
  BOpts.OnUnitDone = [&](size_t I, const driver::StatsMap &Unit,
                         driver::UnitOutcome O, const std::string &Detail) {
    if (O == driver::UnitOutcome::Cancelled)
      return;
    double Ms = msBetween(Start[I], Clock::now());
    server::Response Rsp;
    Rsp.Status = O == driver::UnitOutcome::Ok
                     ? server::ResponseStatus::Ok
                     : server::ResponseStatus::InternalError;
    Rsp.Reason = Detail;
    Rsp.Passes = server::passVerdictsOf(Unit);
    std::lock_guard<std::mutex> L(M);
    fileAnswer(W, Plan.at(Base + I), Rsp, Ms);
  };
  double Cpu0 = processCpuSeconds();
  for (; Clock::now() < Deadline; Base += BatchUnits)
    driver::runBatchValidated(
        *passes::BugConfig::byName("371"), inMemoryExchange(), BatchUnits,
        [&](size_t I) { return generateUnit(Plan.at(Base + I)); }, BOpts,
        &Pool);
  W.WallS = msBetween(T0, Clock::now()) / 1e3;
  W.CpuS = processCpuSeconds() - Cpu0;
  return W;
}

/// The traced window: the same units through spanned runPassValidated
/// calls on the same pool.
WindowStats batchTracedWindow(ThreadPool &Pool, const BatchPlan &Plan,
                              double Seconds, LayerReport &L) {
  WindowStats W;
  std::mutex M;
  Histogram UnitUs;
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline = secondsAfter(T0, Seconds);
  double Cpu0 = processCpuSeconds();
  // Indices past what the window can reach are skipped at the deadline.
  parallelFor(Pool, size_t(Seconds * 2500) + 64, [&](size_t I) {
    Clock::time_point Start = Clock::now();
    if (Start >= Deadline)
      return;
    PhaseTotals Local;
    server::Response Rsp;
    try {
      Rsp.Passes = runUnitTraced(Plan.at(I), inMemoryExchange(), Local);
      Rsp.Status = server::ResponseStatus::Ok;
    } catch (const std::exception &E) {
      Rsp.Status = server::ResponseStatus::InternalError;
      Rsp.Reason = E.what();
    }
    double Ms = msBetween(Start, Clock::now());
    UnitUs.record(static_cast<uint64_t>(Ms * 1e3));
    std::lock_guard<std::mutex> G(M);
    L.Phases.add(Local);
    fileAnswer(W, Plan.at(I), Rsp, Ms);
  });
  W.WallS = msBetween(T0, Clock::now()) / 1e3;
  W.CpuS = processCpuSeconds() - Cpu0;

  double Named = L.Phases.GenerateMs;
  for (const auto &KV : L.Phases.Passes)
    Named += KV.second.SpanMs;
  L.ClosureRatio = Named / (Workers * W.WallS * 1e3);
  std::vector<double> Us;
  for (double Ms : W.LatencyMs)
    Us.push_back(Ms * 1e3);
  Histogram::Snapshot S = UnitUs.snapshot();
  double E50 = exactQuantile(Us, 0.5), E99 = exactQuantile(Us, 0.99);
  L.StatsP50Ratio = E50 > 0 ? S.quantile(0.5) / E50 : 0;
  L.StatsP99Ratio = E99 > 0 ? S.quantile(0.99) / E99 : 0;
  L.Samples = double(W.LatencyMs.size());
  return W;
}

// --- Served stacks ---------------------------------------------------------------

/// Spans one RequestHandler layer from outside: time inside submit(), and
/// submit -> Done; for a service also the response's queue/run split.
struct LayerSpans {
  Accum Admit, Span, Queue, Run;
  std::mutex M;
  /// Every ok verdict's Response::TotalUs since the stack was built — the
  /// same requests the service's own latency histogram has seen.
  std::vector<double> TotalUs;

  /// Starts the measured window (set-up traffic is not counted).
  void startWindow() {
    for (Accum *A : {&Admit, &Span, &Queue, &Run})
      A->reset();
  }
};

class TracingHandler final : public server::RequestHandler {
public:
  TracingHandler(server::RequestHandler &Inner, LayerSpans &Spans)
      : Inner(Inner), Spans(Spans) {}

  void submit(const server::Request &R, Callback Done) override {
    if (R.Kind != server::RequestKind::Validate) {
      Inner.submit(R, std::move(Done));
      return;
    }
    Clock::time_point Start = Clock::now();
    LayerSpans *S = &Spans;
    Inner.submit(R, [S, Start, Done = std::move(Done)](server::Response Rsp) {
      S->Span.add(msBetween(Start, Clock::now()));
      if (Rsp.Status == server::ResponseStatus::Ok) {
        S->Queue.add(Rsp.QueueUs / 1e3);
        S->Run.add((Rsp.TotalUs - Rsp.QueueUs) / 1e3);
        std::lock_guard<std::mutex> L(S->M);
        S->TotalUs.push_back(double(Rsp.TotalUs));
      }
      Done(std::move(Rsp));
    });
    Spans.Admit.add(msBetween(Start, Clock::now()));
  }
  void beginShutdown() override { Inner.beginShutdown(); }
  void drain() override { Inner.drain(); }

private:
  server::RequestHandler &Inner;
  LayerSpans &Spans;
};

/// A handler (optionally wrapped in a TracingHandler) served on a Unix
/// socket by its own SocketServer::run thread.
class Listener {
public:
  Listener(server::RequestHandler &H, const std::string &Path,
           LayerSpans *Spans) {
    if (Spans) {
      Tracer = std::make_unique<TracingHandler>(H, *Spans);
      Server = std::make_unique<server::SocketServer>(
          *Tracer, server::SocketServerOptions{Path});
    } else {
      Server = std::make_unique<server::SocketServer>(
          H, server::SocketServerOptions{Path});
    }
    std::string Err;
    if (!Server->start(&Err))
      throw std::runtime_error("cannot listen on " + Path + ": " + Err);
    Runner = std::thread([this] { Server->run(); });
  }
  /// Stops accepting, drains the handler, joins the serving thread.
  ~Listener() {
    Server->requestStop();
    Runner.join();
  }
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

private:
  std::unique_ptr<TracingHandler> Tracer;
  std::unique_ptr<server::SocketServer> Server;
  std::thread Runner;
};

/// One client connection speaking the json wire protocol.
class Conn {
public:
  explicit Conn(const std::string &Path) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      throw std::runtime_error("socket path too long: " + Path);
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Fd >= 0)
        ::close(Fd);
      throw std::runtime_error("cannot connect to " + Path);
    }
  }
  ~Conn() { ::close(Fd); }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  int fd() const { return Fd; }
  bool send(const server::Request &R) {
    return server::writeFrame(Fd, server::requestToJson(R));
  }
  std::optional<server::Response> receive() {
    std::string Payload;
    if (!server::readFrame(Fd, Payload))
      return std::nullopt;
    return server::responseFromJson(Payload);
  }

private:
  int Fd = -1;
};

using ConnSet = std::vector<std::unique_ptr<Conn>>;

ConnSet connectAll(const std::string &Path) {
  ConnSet Cs;
  for (unsigned I = 0; I != Connections; ++I)
    Cs.push_back(std::make_unique<Conn>(Path));
  return Cs;
}

/// Printed module texts of the units sent as `module` requests.
using ModuleTexts = std::map<std::pair<const KnownAnswers *, uint64_t>,
                             std::string>;

server::Request validateRequest(const UnitRef &U, int64_t Id,
                                const ModuleTexts &Texts) {
  server::Request R;
  R.Kind = server::RequestKind::Validate;
  R.Id = Id;
  R.Bugs = U.preset();
  if (U.AsModule) {
    R.ModuleText = Texts.at({U.Pool, U.Index});
  } else {
    R.Seed = U.seed();
    R.HasSeed = true;
  }
  return R;
}

/// Sends \p Units pipelined over all connections and waits for every
/// answer (stack warm-up); answers are checked into \p W.
void pipelined(ConnSet &Cs, const std::vector<UnitRef> &Units,
               const ModuleTexts &Texts, WindowStats &W) {
  std::vector<size_t> PerConn(Cs.size());
  for (size_t I = 0; I != Units.size(); ++I) {
    Conn &C = *Cs[I % Cs.size()];
    if (!C.send(validateRequest(Units[I], int64_t(I), Texts)))
      throw std::runtime_error("warm-up send failed");
    ++PerConn[I % Cs.size()];
  }
  for (size_t C = 0; C != Cs.size(); ++C)
    for (size_t N = 0; N != PerConn[C]; ++N) {
      auto Rsp = Cs[C]->receive();
      if (!Rsp || Rsp->Id < 0 || size_t(Rsp->Id) >= Units.size())
        throw std::runtime_error("warm-up answer lost");
      fileAnswer(W, Units[size_t(Rsp->Id)], *Rsp, 0);
    }
}

/// The attribution replay for served workloads: \p Units re-run through
/// spanned runPassValidated calls, each against the cache its request met.
template <typename CacheFor>
void replay(const std::vector<UnitRef> &Units, CacheFor &&CacheOf,
            LayerReport &L, WindowStats &W) {
  for (const UnitRef &U : Units) {
    driver::DriverOptions D = inMemoryExchange();
    D.Cache = CacheOf(U);
    server::Response Rsp;
    Rsp.Status = server::ResponseStatus::Ok;
    Rsp.Passes = runUnitTraced(U, D, L.Phases);
    std::string Bad = wrongVerdict(U, Rsp.Passes);
    if (!Bad.empty())
      W.wrong("replay: " + Bad);
  }
}

template <typename T>
std::vector<T> evenSample(const std::vector<T> &All, size_t N) {
  std::vector<T> Out;
  for (size_t I = 0; I < N && !All.empty(); ++I)
    Out.push_back(All[I * All.size() / N]);
  return Out;
}

template <typename MakeStack>
auto timedSetups(unsigned Reps, MakeStack &&Make, double &SetupS) {
  std::vector<double> Times;
  decltype(Make()) Stack;
  for (unsigned I = 0; I != Reps; ++I) {
    Stack.reset(); // tear the previous one down outside the timed part
    Clock::time_point T0 = Clock::now();
    Stack = Make();
    Times.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  SetupS = median(Times);
  return Stack;
}

// --- daemon_closed ----------------------------------------------------------------

class DaemonStack {
public:
  DaemonStack(const std::string &Dir, LayerSpans *Spans, WindowStats &Warm)
      : Service(options()), Front(Service, Dir + "/daemon.sock", Spans),
        Clients(connectAll(Dir + "/daemon.sock")) {
    // Warm-up requests from the end of the pool.
    std::vector<UnitRef> Units;
    const KnownAnswers &Pool = pools().Fixed;
    for (unsigned I = 0; I != WarmUpUnits * Connections; ++I)
      Units.push_back(UnitRef{&Pool, Pool.size() - 1 - I});
    pipelined(Clients, Units, {}, Warm);
  }
  ~DaemonStack() { Clients.clear(); }

  server::ValidationService Service;
  Listener Front;
  ConnSet Clients;

private:
  static server::ServiceOptions options() {
    server::ServiceOptions SO; // batch 32, linger 200us, cache off
    SO.Jobs = Workers;
    SO.Driver = inMemoryExchange();
    SO.MemberId = "daemon";
    return SO;
  }
};

/// Four closed-loop clients, each waiting for its verdict before sending
/// the next distinct unit of the seeded order.
WindowStats closedLoop(ConnSet &Cs, const std::vector<uint64_t> &Order,
                       double Seconds, Accum *Rtt) {
  WindowStats W;
  std::mutex M;
  std::atomic<size_t> Cursor{0};
  const KnownAnswers &Pool = pools().Fixed;
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline = secondsAfter(T0, Seconds);
  double Cpu0 = processCpuSeconds();
  std::vector<std::thread> Clients;
  for (auto &C : Cs)
    Clients.emplace_back([&, Client = C.get()] {
      while (Clock::now() < Deadline) {
        size_t I = Cursor.fetch_add(1);
        UnitRef U{&Pool, Order[I % Order.size()]};
        Clock::time_point Sent = Clock::now();
        std::optional<server::Response> Rsp;
        if (Client->send(validateRequest(U, int64_t(I), {})))
          Rsp = Client->receive();
        double Ms = msBetween(Sent, Clock::now());
        std::lock_guard<std::mutex> L(M);
        if (!Rsp) {
          ++W.Attempted;
          W.notOk("connection lost");
          return;
        }
        if (Rtt)
          Rtt->add(Ms);
        fileAnswer(W, U, *Rsp, Ms);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  W.WallS = msBetween(T0, Clock::now()) / 1e3;
  W.CpuS = processCpuSeconds() - Cpu0;
  return W;
}

// --- cluster_warm -----------------------------------------------------------------

class ClusterStack {
public:
  static constexpr unsigned NumMembers = 3;

  ClusterStack(const std::string &Dir, bool Traced,
               const std::vector<UnitRef> &HotSet, const ModuleTexts &Texts,
               WindowStats &Warm) {
    cluster::ClusterOptions CO;
    CO.RouterId = "router";
    for (unsigned I = 0; I != NumMembers; ++I) {
      server::ServiceOptions SO;
      SO.Jobs = MemberWorkers;
      SO.Driver = inMemoryExchange();
      SO.MemberId = "m" + std::to_string(I);
      SO.Cache.Policy = cache::CachePolicy::ReadWrite;
      // Memory tier only. With the shared disk tier, the lease holder
      // merges and rewrites the whole index on every store, so over a
      // 30 s window member p99 climbed to 270-430 ms and never settled
      // between runs (see ledger/README.md).
      std::string Path = Dir + "/" + SO.MemberId + ".sock";
      CO.Members.push_back({SO.MemberId, Path});
      Services.push_back(std::make_unique<server::ValidationService>(SO));
      Members.push_back(std::make_unique<Listener>(
          *Services.back(), Path, Traced ? &MemberSpans : nullptr));
    }
    Router = std::make_unique<cluster::ClusterRouter>(CO);
    std::string Err;
    if (!Router->start(&Err))
      throw std::runtime_error("cluster router: " + Err);
    Front = std::make_unique<Listener>(*Router, Dir + "/front.sock",
                                       Traced ? &RouterSpans : nullptr);
    Clients = connectAll(Dir + "/front.sock");
    pipelined(Clients, HotSet, Texts, Warm);
  }

  ~ClusterStack() {
    Clients.clear();
    Front.reset();  // drains the router
    Router.reset();
    Members.clear(); // drains each member
    Services.clear();
  }

  /// The member whose cache a request meets: the router's own ring.
  server::ValidationService &ownerOf(const server::Request &R) const {
    cluster::HashRing Ring(cluster::ClusterOptions().VNodes);
    for (unsigned I = 0; I != NumMembers; ++I)
      Ring.addMember("m" + std::to_string(I));
    std::string Id = Ring.route(cluster::routePointOf(R));
    return *Services[std::stoul(Id.substr(1))];
  }

  LayerSpans MemberSpans, RouterSpans;
  std::vector<std::unique_ptr<server::ValidationService>> Services;
  std::vector<std::unique_ptr<Listener>> Members;
  std::unique_ptr<cluster::ClusterRouter> Router;
  std::unique_ptr<Listener> Front;
  ConnSet Clients;
};

/// A seeded order of \p Pool in which every Strata consecutive draws take
/// one unit from each size stratum (by printed module length). The seed
/// picks the units, but every seed's hot set and fresh units share one
/// size profile, so the seed does not shift the latency percentiles.
std::vector<uint64_t> stratifiedOrder(const KnownAnswers &Pool,
                                      uint64_t Seed) {
  constexpr size_t Strata = 16;
  std::vector<std::pair<size_t, uint64_t>> BySize;
  for (uint64_t I = 0; I != Pool.size(); ++I)
    BySize.push_back(
        {ir::printModule(generateUnit(UnitRef{&Pool, I})).size(), I});
  std::sort(BySize.begin(), BySize.end());
  size_t PerStratum = Pool.size() / Strata;
  std::vector<std::vector<uint64_t>> Within;
  for (size_t K = 0; K != Strata; ++K)
    Within.push_back(seededPermutation(PerStratum, Seed * Strata + K));
  std::vector<uint64_t> Order;
  for (size_t Round = 0; Round != PerStratum; ++Round)
    for (size_t K = 0; K != Strata; ++K)
      Order.push_back(BySize[K * PerStratum + Within[K][Round]].second);
  return Order;
}

/// cluster_warm's traffic: a hot set warmed at set-up, and a seeded
/// open-loop schedule of 90% hot repeats and 10% fresh units.
struct ClusterPlan {
  std::vector<UnitRef> HotSet;
  struct Arrival {
    UnitRef U;
    double DueMs;
  };
  std::vector<Arrival> Schedule;
  ModuleTexts Texts;

  ClusterPlan(uint64_t Seed, double Rate, double Seconds) {
    RNG R(Seed * 0x9e3779b97f4a7c15ull + 3);
    const KnownAnswers &Fixed = pools().Fixed, &Hist = pools().Historical;
    std::vector<uint64_t> FixedOrder = stratifiedOrder(Fixed, Seed);
    std::vector<uint64_t> HistOrder = stratifiedOrder(Hist, Seed + 1);
    size_t Draws = 0, NextFixed = 0, NextHist = 0;
    // Four in five draws use `fixed`, the fifth one historical bug preset;
    // one in four carries module text instead of a seed. Exact shares keep
    // the mix the same for every seed.
    auto Draw = [&](bool Fresh) {
      bool Historical = Draws % 5 == 4;
      UnitRef U;
      U.Pool = Historical ? &Hist : &Fixed;
      U.Index = Historical ? HistOrder[NextHist++ % HistOrder.size()]
                           : FixedOrder[NextFixed++ % FixedOrder.size()];
      U.AsModule = Draws % 4 == 1;
      U.Fresh = Fresh;
      ++Draws;
      if (U.AsModule && !Texts.count({U.Pool, U.Index}))
        Texts[{U.Pool, U.Index}] = ir::printModule(generateUnit(U));
      return U;
    };
    for (size_t I = 0; I != HotSetSize; ++I)
      HotSet.push_back(Draw(false));
    // Evenly spaced arrivals: the open loop's offered load is the same
    // in every window, so latency reflects the system, not burst luck.
    // Each block of ten arrivals holds one fresh unit, at a seeded place.
    size_t FreshAt = 0;
    for (double Due = 0; Due < Seconds * 1e3; Due += 1e3 / Rate) {
      size_t I = Schedule.size();
      if (I % 10 == 0)
        FreshAt = I + R.below(10);
      UnitRef U = I == FreshAt ? Draw(true) : HotSet[R.below(HotSet.size())];
      Schedule.push_back({U, Due});
    }
  }
};

/// Sends the schedule open-loop (one sender thread) over all connections
/// and collects answers on one poll() reader thread. Latency counts from
/// each request's due time.
WindowStats openLoop(ConnSet &Cs, const ClusterPlan &Plan, double &LagP99Ms,
                     Accum *Rtt) {
  WindowStats W;
  const auto &S = Plan.Schedule;
  std::vector<std::atomic<int64_t>> SentNs(S.size());
  std::vector<double> LagMs(S.size(), 0);
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(5);
  auto Due = [&](size_t I) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(S[I].DueMs));
  };
  double Cpu0 = processCpuSeconds();
  std::atomic<size_t> SendFailures{0};

  std::thread Sender([&] {
    for (size_t I = 0; I != S.size(); ++I) {
      std::this_thread::sleep_until(Due(I));
      Clock::time_point Now = Clock::now();
      LagMs[I] = msBetween(Due(I), Now);
      SentNs[I].store((Now - T0).count(), std::memory_order_relaxed);
      if (!Cs[I % Cs.size()]->send(validateRequest(S[I].U, int64_t(I),
                                                   Plan.Texts)))
        SendFailures.fetch_add(1);
    }
  });

  // Reader: everything not answered by the last due time + 60 s is lost.
  size_t Answered = 0;
  Clock::time_point GiveUp = Due(S.size() - 1) + std::chrono::seconds(60);
  std::vector<pollfd> Fds;
  for (auto &C : Cs)
    Fds.push_back({C->fd(), POLLIN, 0});
  while (Answered + SendFailures.load() < S.size() && Clock::now() < GiveUp) {
    if (::poll(Fds.data(), Fds.size(), 100) <= 0)
      continue;
    for (size_t C = 0; C != Fds.size(); ++C) {
      if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      std::optional<server::Response> Rsp = Cs[C]->receive();
      Clock::time_point Now = Clock::now();
      if (!Rsp) {
        GiveUp = Now; // a dead connection: stop waiting, count the rest
        break;
      }
      if (Rsp->Id < 0 || size_t(Rsp->Id) >= S.size())
        continue;
      size_t I = size_t(Rsp->Id);
      ++Answered;
      if (Rtt)
        Rtt->add(msBetween(T0 + Clock::duration(SentNs[I].load()), Now));
      fileAnswer(W, S[I].U, *Rsp, msBetween(Due(I), Now));
    }
  }
  Sender.join();
  W.WallS = msBetween(T0, Clock::now()) / 1e3;
  W.CpuS = processCpuSeconds() - Cpu0;
  for (size_t I = W.Attempted; I < S.size(); ++I) {
    ++W.Attempted;
    W.notOk("no answer");
  }
  LagP99Ms = exactQuantile(LagMs, 0.99);
  return W;
}

struct MemberTotals {
  server::ServiceCounters C;
  uint64_t CacheEntries = 0;
};

MemberTotals sumMembers(
    const std::vector<std::unique_ptr<server::ValidationService>> &Ss) {
  MemberTotals T;
  for (const auto &S : Ss) {
    server::ServiceCounters C = S->counters();
    T.C.Batches += C.Batches;
    T.C.BatchedUnits += C.BatchedUnits;
    T.C.LingerWaits += C.LingerWaits;
    T.C.CacheHits += C.CacheHits;
    T.C.CacheMisses += C.CacheMisses;
    T.CacheEntries += S->cache().memSize();
  }
  return T;
}

void counterDeltas(LayerReport &L, const MemberTotals &A,
                   const MemberTotals &B) {
  L.Batches = double(B.C.Batches - A.C.Batches);
  L.BatchedUnits = double(B.C.BatchedUnits - A.C.BatchedUnits);
  L.LingerWaits = double(B.C.LingerWaits - A.C.LingerWaits);
  L.CacheHits = double(B.C.CacheHits - A.C.CacheHits);
  L.CacheLookups = L.CacheHits + double(B.C.CacheMisses - A.C.CacheMisses);
  L.CacheStores = double(B.CacheEntries - A.CacheEntries);
}

WorkloadResult finish(const std::string &Name, WindowStats Window,
                      const WindowStats &Warm, double SetupS,
                      const LayerReport *L) {
  WorkloadResult R;
  R.Lines.push_back(windowLine(Name, Window));
  // Warm-up answers are verdicts too: fold their problems in.
  Window.Attempted += Warm.Attempted;
  Window.NotOk += Warm.NotOk;
  Window.Wrong += Warm.Wrong;
  for (const std::string &P : Warm.Problems)
    Window.Problems.push_back("set-up " + P);
  R.Window = std::move(Window);
  if (L) {
    R.Out = perLayerMetrics(*L);
  } else {
    addEndToEndMetrics(R.Out, R.Window, SetupS);
    R.Lines.push_back("setup_s (median over stack constructions): " +
                      fmt(SetupS, 3) + " s");
  }
  return R;
}

} // namespace

// --- Entry points ---------------------------------------------------------------

WorkloadResult ledger::runBatchCold(const RunOptions &O) {
  BatchPlan Plan(O.Seed);
  WindowStats Warm;
  // Set-up: a 4-worker pool plus a fixed warm-up batch on it.
  auto MakePool = [&]() {
    auto Pool = std::make_unique<ThreadPool>(Workers);
    driver::BatchOptions BOpts;
    BOpts.Jobs = Workers;
    driver::runBatchValidated(
        *passes::BugConfig::byName("371"), inMemoryExchange(),
        WarmUpUnits * Workers,
        [&Plan](size_t I) { return generateUnit(Plan.at(I)); }, BOpts,
        Pool.get());
    return Pool;
  };
  double SetupS = 0;
  std::unique_ptr<ThreadPool> Pool =
      timedSetups(O.Smoke ? 1 : SetupReps, MakePool, SetupS);
  if (!O.Trace)
    return finish("batch_cold", batchWindow(*Pool, Plan, O.Seconds), Warm,
                  SetupS, nullptr);

  WindowStats Ref = batchWindow(*Pool, Plan, O.Seconds / 2);
  LayerReport L;
  WindowStats Traced = batchTracedWindow(*Pool, Plan, O.Seconds / 2, L);
  L.OverheadRatio =
      Ref.unitsPerS() > 0 ? Traced.unitsPerS() / Ref.unitsPerS() : 0;
  WorkloadResult R = finish("batch_cold traced", Traced, Warm, SetupS, &L);
  R.Lines.push_back(windowLine("batch_cold untraced reference", Ref));
  R.Lines.push_back("phase closure: named layers cover " +
                    fmt(L.ClosureRatio * 100, 2) + "% of " +
                    std::to_string(Workers) + " x traced wall");
  return R;
}

WorkloadResult ledger::runDaemonClosed(const RunOptions &O) {
  std::vector<uint64_t> Order = seededPermutation(pools().Fixed.size(), O.Seed);
  WindowStats Warm;
  double SetupS = 0;
  if (!O.Trace) {
    auto Stack = timedSetups(
        O.Smoke ? 1 : SetupReps,
        [&] { return std::make_unique<DaemonStack>(O.WorkDir, nullptr, Warm); },
        SetupS);
    return finish("daemon_closed",
                  closedLoop(Stack->Clients, Order, O.Seconds, nullptr), Warm,
                  SetupS, nullptr);
  }

  WindowStats Ref;
  {
    DaemonStack Stack(O.WorkDir, nullptr, Warm);
    Ref = closedLoop(Stack.Clients, Order, O.Seconds / 2, nullptr);
  }
  LayerSpans Spans;
  LayerReport L;
  Accum Rtt;
  DaemonStack Stack(O.WorkDir, &Spans, Warm);
  server::ServiceCounters C0 = Stack.Service.counters();
  Spans.startWindow();
  WindowStats Traced = closedLoop(Stack.Clients, Order, O.Seconds / 2, &Rtt);
  server::ServiceCounters C1 = Stack.Service.counters();
  L.AdmitMs = Spans.Admit.mean();
  L.QueueMs = Spans.Queue.mean();
  L.RunMs = Spans.Run.mean();
  L.SocketMs = Rtt.mean() - Spans.Span.mean();
  L.Batches = double(C1.Batches - C0.Batches);
  L.BatchedUnits = double(C1.BatchedUnits - C0.BatchedUnits);
  L.LingerWaits = double(C1.LingerWaits - C0.LingerWaits);
  {
    json::Value Stats = Stack.Service.statsJson();
    std::lock_guard<std::mutex> G(Spans.M);
    L.StatsP50Ratio = statsRatio(Stats, "p50", Spans.TotalUs, 0.5);
    L.StatsP99Ratio = statsRatio(Stats, "p99", Spans.TotalUs, 0.99);
  }
  L.Samples = double(Traced.LatencyMs.size());
  L.OverheadRatio =
      Ref.unitsPerS() > 0 ? Traced.unitsPerS() / Ref.unitsPerS() : 0;
  std::vector<UnitRef> Sample;
  for (uint64_t I : evenSample(Order, ReplayUnits))
    Sample.push_back(UnitRef{&pools().Fixed, I});
  replay(Sample, [](const UnitRef &) { return nullptr; }, L, Traced);
  WorkloadResult R = finish("daemon_closed traced", Traced, Warm, SetupS, &L);
  R.Lines.push_back(windowLine("daemon_closed untraced reference", Ref));
  return R;
}

WorkloadResult ledger::runClusterWarm(const RunOptions &O) {
  double Rate = ClusterRatePerS;
  double Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  ClusterPlan Plan(O.Seed, Rate, Seconds);
  if (Plan.Schedule.empty())
    throw std::runtime_error("cluster_warm: empty arrival schedule");
  WindowStats Warm;
  double SetupS = 0, LagP99Ms = 0;
  auto Make = [&](bool Traced) {
    return std::make_unique<ClusterStack>(O.WorkDir, Traced, Plan.HotSet,
                                          Plan.Texts, Warm);
  };
  std::string Mix = "cluster_warm mix: " + std::to_string(Plan.Schedule.size()) +
                    " arrivals at " + fmt(Rate) + "/s, hot set " +
                    std::to_string(Plan.HotSet.size()) + ", " +
                    std::to_string(Plan.Texts.size()) + " module texts";
  if (!O.Trace) {
    auto Stack = timedSetups(O.Smoke ? 1 : SetupReps,
                             [&] { return Make(false); }, SetupS);
    WindowStats W = openLoop(Stack->Clients, Plan, LagP99Ms, nullptr);
    WorkloadResult R = finish("cluster_warm", std::move(W), Warm, SetupS,
                              nullptr);
    R.Lines.push_back(Mix + "; loadgen lag p99 " + fmt(LagP99Ms, 3) + " ms");
    return R;
  }

  WindowStats Ref;
  {
    auto Stack = Make(false);
    Ref = openLoop(Stack->Clients, Plan, LagP99Ms, nullptr);
  }
  auto Stack = Make(true);
  LayerReport L;
  Accum Rtt;
  MemberTotals M0 = sumMembers(Stack->Services);
  Stack->MemberSpans.startWindow();
  Stack->RouterSpans.startWindow();
  cluster::RouterCounters R0 = Stack->Router->counters();
  WindowStats Traced = openLoop(Stack->Clients, Plan, L.LagP99Ms, &Rtt);
  MemberTotals M1 = sumMembers(Stack->Services);
  cluster::RouterCounters R1 = Stack->Router->counters();
  counterDeltas(L, M0, M1);
  L.Forwarded = double(R1.Forwarded - R0.Forwarded);
  L.Failovers = double(R1.Failovers - R0.Failovers);
  L.AdmitMs = Stack->MemberSpans.Admit.mean();
  L.QueueMs = Stack->MemberSpans.Queue.mean();
  L.RunMs = Stack->MemberSpans.Run.mean();
  L.RouteMs = Stack->RouterSpans.Admit.mean();
  L.HopMs = Stack->RouterSpans.Span.mean() - Stack->MemberSpans.Span.mean();
  L.SocketMs = Rtt.mean() - Stack->RouterSpans.Span.mean();
  {
    json::Value Stats = Stack->Router->statsJson();
    std::lock_guard<std::mutex> G(Stack->MemberSpans.M);
    L.StatsP50Ratio = statsRatio(Stats, "p50", Stack->MemberSpans.TotalUs, 0.5);
    L.StatsP99Ratio =
        statsRatio(Stats, "p99", Stack->MemberSpans.TotalUs, 0.99);
  }
  L.Samples = double(Traced.LatencyMs.size());
  L.OverheadRatio =
      Ref.unitsPerS() > 0 ? Traced.unitsPerS() / Ref.unitsPerS() : 0;

  // Replay a sample of the schedule: hot units against the member cache
  // the router sent them to, fresh ones against an empty cache (their
  // window request was a miss and a store).
  cache::ValidationCacheOptions Cold;
  Cold.Policy = cache::CachePolicy::ReadWrite;
  cache::ValidationCache Scratch(Cold);
  std::vector<UnitRef> Sample;
  for (const auto &A : evenSample(Plan.Schedule, ReplayUnits))
    Sample.push_back(A.U);
  replay(
      Sample,
      [&](const UnitRef &U) {
        return U.Fresh ? &Scratch
                       : &Stack->ownerOf(validateRequest(U, 0, Plan.Texts))
                              .cache();
      },
      L, Traced);
  WorkloadResult R = finish("cluster_warm traced", Traced, Warm, SetupS, &L);
  R.Lines.push_back(windowLine("cluster_warm untraced reference", Ref));
  R.Lines.push_back(Mix);
  return R;
}

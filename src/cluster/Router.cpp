//===- cluster/Router.cpp ---------------------------------------*- C++ -*-===//

#include "cluster/Router.h"

#include "cache/Fingerprint.h"
#include "server/HealthProbe.h"
#include "support/Backoff.h"
#include "support/Histogram.h"
#include "support/RNG.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace crellvm;
using namespace crellvm::cluster;
using server::Request;
using server::RequestKind;
using server::Response;
using server::ResponseStatus;

namespace {

int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.size() + 1 > sizeof(Addr.sun_path))
    return -1;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

uint64_t intField(const json::Value *Obj, const char *Key) {
  const json::Value *V = Obj ? Obj->find(Key) : nullptr;
  return V && V->kind() == json::Value::Kind::Int
             ? static_cast<uint64_t>(V->getInt())
             : 0;
}

/// Sums every integer field of \p Section across \p Docs, preserving the
/// first-seen field order so the aggregated document diffs stably.
json::Value sumIntSection(const std::vector<json::Value> &Docs,
                          const char *Section) {
  std::vector<std::string> Order;
  std::map<std::string, uint64_t> Sums;
  for (const json::Value &D : Docs) {
    const json::Value *S =
        D.kind() == json::Value::Kind::Object ? D.find(Section) : nullptr;
    if (!S || S->kind() != json::Value::Kind::Object)
      continue;
    for (const auto &KV : S->members()) {
      if (KV.second.kind() != json::Value::Kind::Int)
        continue;
      if (!Sums.count(KV.first))
        Order.push_back(KV.first);
      Sums[KV.first] += static_cast<uint64_t>(KV.second.getInt());
    }
  }
  json::Value Out = json::Value::object();
  for (const std::string &Key : Order)
    Out.set(Key, json::Value(Sums[Key]));
  return Out;
}

/// Exact histogram merge: member documents carry raw log2 bucket counts
/// (Service.cpp histJson), which sum exactly — unlike quantiles, which
/// cannot be combined — so cluster-wide p50/p95/p99 are true quantiles
/// of the union, not averages of averages.
json::Value mergeHists(const std::vector<const json::Value *> &Hists) {
  Histogram::Snapshot S{};
  for (const json::Value *H : Hists) {
    if (!H || H->kind() != json::Value::Kind::Object)
      continue;
    const json::Value *B = H->find("buckets");
    if (B && B->kind() == json::Value::Kind::Array) {
      size_t N = std::min<size_t>(B->size(), Histogram::NumBuckets);
      for (size_t I = 0; I != N; ++I)
        if (B->at(I).kind() == json::Value::Kind::Int)
          S.Buckets[I] += static_cast<uint64_t>(B->at(I).getInt());
    }
    S.Sum += intField(H, "sum");
    S.Max = std::max(S.Max, intField(H, "max"));
  }
  for (uint64_t Bk : S.Buckets)
    S.Count += Bk;
  json::Value O = json::Value::object();
  O.set("count", json::Value(S.Count));
  O.set("sum", json::Value(S.Sum));
  O.set("mean", json::Value(static_cast<uint64_t>(S.mean() + 0.5)));
  O.set("p50", json::Value(S.quantile(0.50)));
  O.set("p95", json::Value(S.quantile(0.95)));
  O.set("p99", json::Value(S.quantile(0.99)));
  O.set("max", json::Value(S.Max));
  json::Value Buckets = json::Value::array();
  unsigned Last = Histogram::NumBuckets;
  while (Last > 0 && S.Buckets[Last - 1] == 0)
    --Last;
  for (unsigned I = 0; I != Last; ++I)
    Buckets.push(json::Value(S.Buckets[I]));
  O.set("buckets", std::move(Buckets));
  return O;
}

/// Renders one live Histogram snapshot (the router's own ping RTTs) in
/// the same shape the merged member histograms use, minus the raw
/// buckets nobody re-aggregates above the router.
json::Value histSnapshotJson(const Histogram::Snapshot &S) {
  json::Value O = json::Value::object();
  O.set("count", json::Value(S.Count));
  O.set("sum", json::Value(S.Sum));
  O.set("mean", json::Value(static_cast<uint64_t>(S.mean() + 0.5)));
  O.set("p50", json::Value(S.quantile(0.50)));
  O.set("p95", json::Value(S.quantile(0.95)));
  O.set("p99", json::Value(S.quantile(0.99)));
  O.set("max", json::Value(S.Max));
  return O;
}

const json::Value *histAt(const json::Value &Doc, const char *Section,
                          const char *Name) {
  const json::Value *S =
      Doc.kind() == json::Value::Kind::Object ? Doc.find(Section) : nullptr;
  if (!Name)
    return S;
  return S && S->kind() == json::Value::Kind::Object ? S->find(Name) : nullptr;
}

} // namespace

uint64_t crellvm::cluster::routePointOf(const Request &R) {
  // The member-local cache key covers (src, tgt, proof, pass, version,
  // bugs) — more than the router can see — but every one of those is a
  // deterministic function of what it CAN see: the unit (module text or
  // generation seed) and the bugs preset. Hashing exactly those keeps
  // equal units on one member, where their cache entries live.
  cache::FingerprintBuilder B;
  if (!R.ModuleText.empty())
    B.str(R.ModuleText);
  else
    B.u64(R.Seed);
  B.str(R.Bugs);
  cache::Fingerprint FP = B.digest();
  return FP.Hi ^ FP.Lo;
}

std::optional<json::Value>
crellvm::cluster::scrapeMemberStats(const std::string &SocketPath,
                                    std::string *Err) {
  int Fd = connectUnix(SocketPath);
  if (Fd < 0) {
    if (Err)
      *Err = "cannot connect to " + SocketPath;
    return std::nullopt;
  }
  Request R;
  R.Kind = RequestKind::Stats;
  R.Id = -1;
  std::string Frame, E;
  bool Ok = server::writeFrame(Fd, server::requestToJson(R)) &&
            server::readFrame(Fd, Frame, &E);
  ::close(Fd);
  if (!Ok) {
    if (Err)
      *Err = "stats scrape of " + SocketPath + " failed" +
             (E.empty() ? "" : ": " + E);
    return std::nullopt;
  }
  auto Rsp = server::responseFromJson(Frame, &E);
  if (!Rsp || Rsp->Status != ResponseStatus::Ok || Rsp->Stats.isNull()) {
    if (Err)
      *Err = "bad stats response from " + SocketPath +
             (E.empty() ? "" : ": " + E);
    return std::nullopt;
  }
  return Rsp->Stats;
}

std::optional<json::Value>
crellvm::cluster::aggregateMemberStats(const std::vector<json::Value> &Docs,
                                       std::string *Err) {
  // Schema gate first: merging counters across incompatible schemas
  // would produce plausible-looking nonsense, the one failure mode an
  // aggregator must refuse loudly.
  for (size_t I = 0; I != Docs.size(); ++I) {
    const json::Value &D = Docs[I];
    std::string Who = "member #" + std::to_string(I);
    if (D.kind() == json::Value::Kind::Object) {
      const json::Value *Id = D.find("member_id");
      if (Id && Id->kind() == json::Value::Kind::String)
        Who = "member " + Id->getString();
    }
    const json::Value *Ver =
        D.kind() == json::Value::Kind::Object ? D.find("schema_version")
                                              : nullptr;
    if (!Ver || Ver->kind() != json::Value::Kind::Int) {
      if (Err)
        *Err = Who + ": stats document carries no schema_version";
      return std::nullopt;
    }
    if (static_cast<uint64_t>(Ver->getInt()) != server::StatsSchemaVersion) {
      if (Err)
        *Err = Who + ": stats schema_version " +
               std::to_string(Ver->getInt()) + " != " +
               std::to_string(server::StatsSchemaVersion);
      return std::nullopt;
    }
  }

  json::Value Root = json::Value::object();
  Root.set("requests", sumIntSection(Docs, "requests"));
  Root.set("verdicts", sumIntSection(Docs, "verdicts"));
  // Per-codec frame/byte counters from each member's socket front end;
  // the router's own SocketServer adds its client-facing traffic to this
  // section as the response passes through it.
  Root.set("wire", sumIntSection(Docs, "wire"));

  json::Value CacheV = sumIntSection(Docs, "cache");
  uint64_t Hits = intField(&CacheV, "hits"),
           Misses = intField(&CacheV, "misses");
  uint64_t Lookups = Hits + Misses;
  // A summed ratio is meaningless; recompute it from the summed parts.
  CacheV.set("hit_rate_ppm",
             json::Value(Lookups ? static_cast<uint64_t>(
                                       Hits * 1000000.0 / Lookups + 0.5)
                                 : 0));
  Root.set("cache", std::move(CacheV));

  // Checker plans: specialized/fallback/divergence totals sum; a nonzero
  // cluster-wide `divergences` (or `demotions`) is the alarm the shadow
  // ladder exists to ring. Mode strings are per-member and skipped.
  Root.set("plan", sumIntSection(Docs, "plan"));

  auto Collect = [&Docs](const char *Section, const char *Name) {
    std::vector<const json::Value *> Hs;
    for (const json::Value &D : Docs)
      Hs.push_back(histAt(D, Section, Name));
    return Hs;
  };
  json::Value Lat = json::Value::object();
  Lat.set("queue", mergeHists(Collect("latency_us", "queue")));
  Lat.set("total", mergeHists(Collect("latency_us", "total")));
  Root.set("latency_us", std::move(Lat));

  // Gauges: capacities sum; oracle is only claimable cluster-wide when
  // EVERY member runs it (a bug-hunt through the router must not trust
  // a cluster where one member would skip the differential oracle).
  json::Value Server = json::Value::object();
  uint64_t Jobs = 0, Depth = 0, QueueMax = 0;
  bool Oracle = !Docs.empty(), AnyDraining = false;
  for (const json::Value &D : Docs) {
    const json::Value *S = histAt(D, "server", nullptr);
    Jobs += intField(S, "jobs");
    Depth += intField(S, "queue_depth");
    QueueMax += intField(S, "queue_max");
    const json::Value *O = S ? S->find("oracle") : nullptr;
    Oracle = Oracle && O && O->kind() == json::Value::Kind::Bool &&
             O->getBool();
    const json::Value *Dr = S ? S->find("draining") : nullptr;
    AnyDraining = AnyDraining || (Dr && Dr->kind() == json::Value::Kind::Bool &&
                                  Dr->getBool());
  }
  Server.set("jobs", json::Value(Jobs));
  Server.set("queue_depth", json::Value(Depth));
  Server.set("queue_max", json::Value(QueueMax));
  Server.set("oracle", json::Value(Oracle));
  Server.set("draining", json::Value(AnyDraining));
  Root.set("server", std::move(Server));
  Root.set("members_aggregated",
           json::Value(static_cast<uint64_t>(Docs.size())));
  return Root;
}

// --- ClusterRouter -----------------------------------------------------------

ClusterRouter::ClusterRouter(ClusterOptions Options)
    : Opts(std::move(Options)), Ring(Opts.VNodes) {
  if (Opts.RouterId.empty())
    Opts.RouterId =
        "router:pid:" + std::to_string(static_cast<uint64_t>(::getpid()));
  for (MemberConfig MC : Opts.Members) {
    MC.Codec = Opts.MemberCodec;
    Links.push_back(std::make_unique<MemberLink>(
        std::move(MC), Opts.MaxInflightPerMember,
        [this](MemberLink &L, std::vector<MemberLink::Orphan> Orphans) {
          onMemberDeath(L, std::move(Orphans));
        }));
  }
}

ClusterRouter::~ClusterRouter() {
  {
    std::lock_guard<std::mutex> L(RM);
    Stopping = true;
    Draining = true;
  }
  ReattachCv.notify_all();
  if (Reattacher.joinable())
    Reattacher.join();
  for (auto &Up : Links)
    Up->close(); // silent: orphans (none after a proper drain) answered
}

bool ClusterRouter::start(std::string *Err) {
  size_t Live = 0;
  for (auto &Up : Links) {
    // A gated-out member (not yet ready, or flap-quarantined) is not an
    // error: it stays off the ring until the supervisor's readiness
    // nudge, exactly like a member the reattach loop hasn't revived yet.
    {
      std::lock_guard<std::mutex> L(RM);
      if (Opts.AdmissionGate && !Opts.AdmissionGate(Up->id()))
        continue;
    }
    if (Up->connect()) {
      std::lock_guard<std::mutex> L(RM);
      Ring.addMember(Up->id());
      ++Live;
    }
  }
  if (Live == 0) {
    if (Err)
      *Err = "no cluster member reachable (" +
             std::to_string(Links.size()) + " configured)";
    return false;
  }
  Reattacher = std::thread([this] { reattachLoop(); });
  return true;
}

MemberLink *ClusterRouter::linkById(const std::string &Id) {
  for (auto &Up : Links)
    if (Up->id() == Id)
      return Up.get();
  return nullptr;
}

std::vector<std::string> ClusterRouter::liveMembers() const {
  std::vector<std::string> Out;
  for (const auto &Up : Links)
    if (Up->alive())
      Out.push_back(Up->id());
  return Out;
}

RouterCounters ClusterRouter::counters() const {
  std::lock_guard<std::mutex> L(RM);
  return C;
}

void ClusterRouter::noteAnswered(ResponseStatus S) {
  std::lock_guard<std::mutex> L(RM);
  switch (S) {
  case ResponseStatus::Ok:
    ++C.AnsweredOk;
    break;
  case ResponseStatus::Rejected:
    ++C.AnsweredRejected;
    break;
  case ResponseStatus::DeadlineExceeded:
    ++C.AnsweredDeadline;
    break;
  case ResponseStatus::InternalError:
    ++C.AnsweredInternal;
    break;
  case ResponseStatus::Error:
    ++C.AnsweredError;
    break;
  }
  if (--Outstanding == 0)
    DrainCv.notify_all();
}

void ClusterRouter::submit(const Request &R, Callback Done) {
  Response Rsp;
  Rsp.Id = R.Id;
  switch (R.Kind) {
  case RequestKind::Ping: {
    {
      std::lock_guard<std::mutex> L(RM);
      ++C.Received;
    }
    Rsp.Status = ResponseStatus::Ok;
    if (R.Deep)
      // Probes members; synchronous on purpose, like Stats below.
      Rsp.Stats = deepPing(R.DeadlineMs);
    {
      std::lock_guard<std::mutex> L(RM);
      ++C.AnsweredOk;
      // Same liveness-vs-readiness contract as a member (Protocol.h): a
      // draining router still answers, but is not ready for admission.
      if (Draining)
        Rsp.Reason = "draining";
    }
    Done(std::move(Rsp));
    return;
  }
  case RequestKind::Stats: {
    {
      std::lock_guard<std::mutex> L(RM);
      ++C.Received;
      ++C.StatsRequests;
    }
    Rsp.Status = ResponseStatus::Ok;
    Rsp.Stats = statsJson(); // scrapes members; synchronous on purpose
    {
      std::lock_guard<std::mutex> L(RM);
      ++C.AnsweredOk;
    }
    Done(std::move(Rsp));
    return;
  }
  case RequestKind::Shutdown: {
    {
      std::lock_guard<std::mutex> L(RM);
      ++C.Received;
      ++C.AnsweredOk;
    }
    beginShutdown();
    Rsp.Status = ResponseStatus::Ok;
    Rsp.Reason = "draining";
    Done(std::move(Rsp));
    return;
  }
  case RequestKind::Validate:
    break;
  }

  {
    std::lock_guard<std::mutex> L(RM);
    ++C.Received;
    if (Draining) {
      ++C.AnsweredRejected;
      Rsp.Status = ResponseStatus::Rejected;
      Rsp.Reason = "shutting_down";
    } else {
      // Counted before the first send so a racing drain() cannot observe
      // zero while this request is between admission and forwarding.
      ++Outstanding;
    }
  }
  if (Rsp.Status == ResponseStatus::Rejected) {
    Done(std::move(Rsp));
    return;
  }
  // Every path out of routeForwarded — a member's response, a failover
  // answer, or the router's own rejection — funnels through this wrapper,
  // which settles the Outstanding accounting exactly once.
  Callback Wrapped = [this, Done = std::move(Done)](Response MemberRsp) {
    noteAnswered(MemberRsp.Status);
    Done(std::move(MemberRsp));
  };
  routeForwarded(R, Wrapped, /*IsFailover=*/false);
}

void ClusterRouter::routeForwarded(const Request &R, const Callback &Done,
                                   bool IsFailover) {
  uint64_t Point = routePointOf(R);
  std::vector<MemberLink *> Cands;
  {
    std::lock_guard<std::mutex> L(RM);
    if (IsFailover)
      ++C.Failovers;
    // Owner first, then its ring successors: only capacity exhaustion or
    // death moves a request off its warm member.
    for (const std::string &Id : Ring.routeN(Point, Links.size()))
      if (MemberLink *ML = linkById(Id))
        Cands.push_back(ML);
  }
  for (MemberLink *ML : Cands) {
    if (ML->send(R, Done) == MemberLink::SendResult::Sent) {
      std::lock_guard<std::mutex> L(RM);
      ++C.Forwarded;
      return;
    }
  }
  // Cluster-wide full (or everyone dead): a *retryable* rejection, shaped
  // exactly like a member's own backpressure so existing client/campaign
  // retry loops ride it out unchanged.
  Response Rsp;
  Rsp.Id = R.Id;
  Rsp.Status = ResponseStatus::Rejected;
  Rsp.Reason = "queue_full";
  // Same hard minimum as the service's own hint: a floor configured to 0
  // must not turn cluster-wide backpressure into client hot-spin.
  Rsp.RetryAfterMs = std::max(Opts.RetryAfterMsFloor, server::MinRetryAfterMs);
  Done(std::move(Rsp));
}

void ClusterRouter::onMemberDeath(MemberLink &L,
                                  std::vector<MemberLink::Orphan> Orphans) {
  {
    std::lock_guard<std::mutex> G(RM);
    ++C.MemberDeaths;
    // Quarantine: off the ring until the reattach loop revives it. Its
    // arc redistributes to ring successors; everyone else's arcs — and
    // warm caches — are untouched (consistent hashing's whole point).
    Ring.removeMember(L.id());
    // The reattach loop parks indefinitely while everything is healthy;
    // the dirty flag is what its wait predicate sees (a bare notify can
    // race the predicate evaluation and be lost).
    ReattachDirty = true;
  }
  ReattachCv.notify_all();
  // The dead member accepted these but never answered; their callbacks
  // are already accounting-wrapped, so re-routing (or the rejection
  // fallback inside) keeps the zero-loss equation intact.
  for (MemberLink::Orphan &O : Orphans)
    routeForwarded(O.R, O.Done, /*IsFailover=*/true);
}

void ClusterRouter::reattachLoop() {
  using Clock = std::chrono::steady_clock;
  RNG Rng(Opts.Seed * 0x9e3779b97f4a7c15ull + 0xc1a5ull);
  std::map<std::string, uint64_t> FailedTries;
  std::map<std::string, Clock::time_point> NextTry;
  std::unique_lock<std::mutex> L(RM);
  while (!Stopping) {
    // Event-driven sleep, not a poll: with every admitted member
    // attached the loop parks indefinitely (an idle healthy cluster's
    // reattach thread makes zero wakeups — RouterCounters pins this);
    // with dead members pending it sleeps only until the earliest
    // backoff expiry. A death or a supervisor nudge sets ReattachDirty
    // under RM before notifying, so the predicate cannot miss it.
    bool AnyDead = false;
    Clock::time_point Earliest = Clock::time_point::max();
    for (auto &Up : Links) {
      if (Up->alive())
        continue;
      if (Opts.AdmissionGate && !Opts.AdmissionGate(Up->id()))
        continue; // not admitted: reattach when the nudge says so
      AnyDead = true;
      auto ItN = NextTry.find(Up->id());
      Earliest = std::min(Earliest, ItN == NextTry.end()
                                        ? Clock::time_point::min()
                                        : ItN->second);
    }
    if (!AnyDead)
      ReattachCv.wait(L, [this] { return Stopping || ReattachDirty; });
    else if (Earliest > Clock::now())
      ReattachCv.wait_until(L, Earliest,
                            [this] { return Stopping || ReattachDirty; });
    ReattachDirty = false;
    for (const std::string &Id : ReattachResets) {
      FailedTries.erase(Id);
      NextTry.erase(Id);
    }
    ReattachResets.clear();
    if (Stopping)
      return;
    std::vector<MemberLink *> Dead;
    for (auto &Up : Links)
      if (!Up->alive() &&
          (!Opts.AdmissionGate || Opts.AdmissionGate(Up->id())))
        Dead.push_back(Up.get());
    if (Dead.empty())
      continue;
    ++C.ReattachWakeups;
    L.unlock();
    Clock::time_point Now = Clock::now();
    for (MemberLink *D : Dead) {
      auto ItN = NextTry.find(D->id());
      if (ItN != NextTry.end() && Now < ItN->second)
        continue;
      if (D->connect()) {
        std::lock_guard<std::mutex> G(RM);
        if (!Stopping)
          Ring.addMember(D->id());
        ++C.Reattaches;
        FailedTries.erase(D->id());
        NextTry.erase(D->id());
      } else {
        // Seeded exponential backoff + jitter: a member that stays dead
        // costs one cheap connect attempt per backoff period, and
        // routers sharing a seed schedule still decorrelate per member.
        // delayMs is overflow-proof however long the member stays dead.
        uint64_t B = backoff::delayMs(Opts.ReattachBaseMs,
                                      FailedTries[D->id()]++,
                                      Opts.ReattachMaxMs);
        NextTry[D->id()] =
            Now + std::chrono::milliseconds(B + Rng.below(B / 2 + 1));
      }
    }
    L.lock();
  }
}

void ClusterRouter::nudgeReattach(const std::string &Id) {
  {
    std::lock_guard<std::mutex> L(RM);
    ReattachResets.insert(Id);
    ReattachDirty = true;
  }
  ReattachCv.notify_all();
}

void ClusterRouter::notePingRtt(const std::string &Id, uint64_t RttUs) {
  Histogram *H;
  {
    std::lock_guard<std::mutex> L(RM);
    H = &PingRtts[Id]; // node-stable; record() itself is lock-free
  }
  H->record(RttUs);
}

json::Value ClusterRouter::deepPing(uint64_t DeadlineMs) {
  if (DeadlineMs == 0)
    DeadlineMs = 1000;
  struct Snap {
    std::string Id, Path;
    bool Linked;
  };
  std::vector<Snap> Snaps;
  for (const auto &Up : Links)
    Snaps.push_back({Up->id(), Up->socketPath(), Up->alive()});
  // All members probed concurrently: one hung member costs the deadline
  // once, not once per member behind it in the list.
  std::vector<server::ProbeResult> Results(Snaps.size());
  std::vector<std::thread> Probers;
  Probers.reserve(Snaps.size());
  for (size_t I = 0; I != Snaps.size(); ++I)
    Probers.emplace_back([&, I] {
      Results[I] = server::probePing(Snaps[I].Path, DeadlineMs);
    });
  for (std::thread &T : Probers)
    T.join();

  json::Value O = json::Value::object();
  O.set("deep", json::Value(true));
  json::Value Arr = json::Value::array();
  size_t Live = 0;
  for (size_t I = 0; I != Snaps.size(); ++I) {
    const server::ProbeResult &PR = Results[I];
    json::Value MV = json::Value::object();
    MV.set("member_id", json::Value(Snaps[I].Id));
    MV.set("socket", json::Value(Snaps[I].Path));
    MV.set("linked", json::Value(Snaps[I].Linked));
    MV.set("reachable", json::Value(PR.Reachable));
    MV.set("ready", json::Value(PR.Ready));
    MV.set("rtt_us", json::Value(PR.RttUs));
    if (!PR.Reachable)
      MV.set("error", json::Value(PR.Error));
    else
      notePingRtt(Snaps[I].Id, PR.RttUs);
    Live += PR.Reachable ? 1 : 0;
    Arr.push(std::move(MV));
  }
  O.set("size", json::Value(static_cast<uint64_t>(Snaps.size())));
  O.set("live", json::Value(static_cast<uint64_t>(Live)));
  O.set("members", std::move(Arr));
  return O;
}

void ClusterRouter::beginShutdown() {
  {
    std::lock_guard<std::mutex> L(RM);
    Draining = true;
  }
  ReattachCv.notify_all();
}

void ClusterRouter::drain() {
  std::unique_lock<std::mutex> L(RM);
  DrainCv.wait(L, [this] { return Outstanding == 0; });
}

json::Value ClusterRouter::statsJson() {
  struct Snap {
    std::string Id, Path;
    bool Live;
  };
  std::vector<Snap> Snaps;
  RouterCounters Cnt;
  size_t Out;
  bool Drn;
  {
    std::lock_guard<std::mutex> L(RM);
    Cnt = C;
    Out = Outstanding;
    Drn = Draining;
  }
  for (const auto &Up : Links)
    Snaps.push_back({Up->id(), Up->socketPath(), Up->alive()});

  // Aggregation sums LIVE members only: a dead member's last-seen
  // counters cannot advance, and freezing them into the sums would break
  // the drain equality the campaign gates on once its requests fail over
  // (they complete on — and are counted by — a different member).
  std::vector<json::Value> Docs;
  json::Value MembersArr = json::Value::array();
  size_t LiveN = 0;
  for (const Snap &S : Snaps) {
    json::Value MV = json::Value::object();
    MV.set("member_id", json::Value(S.Id));
    MV.set("socket", json::Value(S.Path));
    {
      // Supervisor health-ping RTTs, when any were recorded for this
      // member (empty map entries are never created by rendering).
      std::lock_guard<std::mutex> L(RM);
      auto It = PingRtts.find(S.Id);
      if (It != PingRtts.end())
        MV.set("ping_rtt_us", histSnapshotJson(It->second.snapshot()));
    }
    bool Usable = S.Live;
    if (S.Live) {
      std::string E;
      auto Doc = scrapeMemberStats(S.Path, &E);
      if (Doc) {
        Docs.push_back(*Doc);
        MV.set("stats", std::move(*Doc));
      } else {
        Usable = false;
        MV.set("scrape_error", json::Value(E));
      }
    }
    MV.set("live", json::Value(Usable));
    LiveN += Usable ? 1 : 0;
    MembersArr.push(std::move(MV));
  }

  std::string AggErr;
  auto Agg = aggregateMemberStats(Docs, &AggErr);
  json::Value Root;
  if (Agg) {
    Root = std::move(*Agg);
  } else {
    Root = json::Value::object();
    Root.set("aggregation_error", json::Value(AggErr));
  }
  Root.set("schema_version", json::Value(server::StatsSchemaVersion));
  Root.set("member_id", json::Value(Opts.RouterId));

  json::Value Cluster = json::Value::object();
  Cluster.set("size", json::Value(static_cast<uint64_t>(Snaps.size())));
  Cluster.set("live", json::Value(static_cast<uint64_t>(LiveN)));
  json::Value RouterV = json::Value::object();
  RouterV.set("received", json::Value(Cnt.Received));
  RouterV.set("forwarded", json::Value(Cnt.Forwarded));
  RouterV.set("failovers", json::Value(Cnt.Failovers));
  RouterV.set("member_deaths", json::Value(Cnt.MemberDeaths));
  RouterV.set("reattaches", json::Value(Cnt.Reattaches));
  RouterV.set("answered_ok", json::Value(Cnt.AnsweredOk));
  RouterV.set("answered_rejected", json::Value(Cnt.AnsweredRejected));
  RouterV.set("answered_deadline_exceeded", json::Value(Cnt.AnsweredDeadline));
  RouterV.set("answered_internal_errors", json::Value(Cnt.AnsweredInternal));
  RouterV.set("answered_errors", json::Value(Cnt.AnsweredError));
  RouterV.set("stats_requests", json::Value(Cnt.StatsRequests));
  RouterV.set("outstanding", json::Value(static_cast<uint64_t>(Out)));
  RouterV.set("draining", json::Value(Drn));
  RouterV.set("reattach_wakeups", json::Value(Cnt.ReattachWakeups));
  Cluster.set("router", std::move(RouterV));
  Cluster.set("members", std::move(MembersArr));
  Root.set("cluster", std::move(Cluster));
  // The supervisor's section (spawns/restarts/hung kills/quarantines)
  // attaches here, outside the member aggregation and its schema gate.
  if (Opts.StatsAugment)
    Opts.StatsAugment(Root);
  return Root;
}

bool ClusterRouter::clusterDrainEquationHolds(std::string *Detail) {
  std::vector<std::pair<std::string, std::string>> LiveSnap;
  for (const auto &Up : Links)
    if (Up->alive())
      LiveSnap.push_back({Up->id(), Up->socketPath()});
  uint64_t Accepted = 0, Completed = 0, Deadline = 0, Internal = 0;
  std::string Problems;
  for (const auto &[Id, Path] : LiveSnap) {
    std::string E;
    auto Doc = scrapeMemberStats(Path, &E);
    if (!Doc) {
      Problems += " [" + Id + ": " + E + "]";
      continue;
    }
    const json::Value *Req = Doc->find("requests");
    Accepted += intField(Req, "accepted");
    Completed += intField(Req, "completed");
    Deadline += intField(Req, "deadline_exceeded");
    Internal += intField(Req, "internal_errors");
  }
  bool Ok =
      Problems.empty() && Accepted == Completed + Deadline + Internal;
  if (Detail)
    *Detail = "accepted=" + std::to_string(Accepted) +
              " completed=" + std::to_string(Completed) +
              " deadline_exceeded=" + std::to_string(Deadline) +
              " internal_errors=" + std::to_string(Internal) +
              " (live_members=" + std::to_string(LiveSnap.size()) + ")" +
              Problems;
  return Ok;
}

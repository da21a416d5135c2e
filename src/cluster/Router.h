//===- cluster/Router.h - Consistent-hash validation router -----*- C++ -*-===//
///
/// \file
/// The cluster front end behind `crellvm-cluster`: a server::RequestHandler
/// that owns N MemberLinks to `crellvm-served` daemons and routes every
/// validate request by consistent-hashing its cache-identity fingerprint
/// (seed or module text, plus the bugs preset — exactly the inputs that
/// determine the member-local validation-cache key), so repeat requests
/// keep hitting the member whose MemCache is warm for them.
///
/// The router adds scheduling and availability, never semantics: a
/// verdict is only ever produced by a member's driver + checker stack, so
/// verdicts through the router are bit-identical to standalone
/// `runBatchValidated` on the same units (ClusterTest pins this). On a
/// member death the dead member leaves the ring (quarantined until the
/// seeded-backoff reattach loop revives it), its unanswered in-flight
/// requests fail over to the ring successors, and only when no live
/// member can take a request is it answered with a *retryable*
/// `queue_full` rejection — an accepted request is never silently lost.
/// Member-issued `queue_full` (+ retry_after_ms) passes through
/// untouched.
///
/// Stats aggregate across members: summed counters, exact histogram
/// merges from the per-bucket counts each member publishes, and a
/// `cluster` section with the router's own accounting plus every member
/// document. The aggregator refuses members whose stats schema_version
/// differs (server/Protocol.h) with an error naming the member. At
/// shutdown the cluster-level drain equation gates the exit code:
/// Σ accepted == Σ (completed + deadline_exceeded + internal_errors)
/// across live members, on top of the router's own zero-loss equation
/// (every received request answered).
///
//===----------------------------------------------------------------------===//
#ifndef CRELLVM_CLUSTER_ROUTER_H
#define CRELLVM_CLUSTER_ROUTER_H

#include "cluster/HashRing.h"
#include "cluster/MemberLink.h"
#include "server/RequestHandler.h"
#include "support/Histogram.h"

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

namespace crellvm {
namespace cluster {

struct ClusterOptions {
  std::vector<MemberConfig> Members;
  /// Virtual nodes per member on the hash ring.
  unsigned VNodes = 64;
  /// Bounded pipeline per member link; beyond it the router tries the
  /// ring successors, and a cluster-wide full answers retryable
  /// queue_full.
  size_t MaxInflightPerMember = 128;
  /// Reattach backoff for dead members: seeded exponential from Base,
  /// capped at Max, jittered so a cluster of routers never thunders.
  uint64_t ReattachBaseMs = 50;
  uint64_t ReattachMaxMs = 2000;
  uint64_t Seed = 1;
  /// retry_after_ms floor for router-generated queue_full answers
  /// (clamped up to server::MinRetryAfterMs like the service's own hint).
  uint64_t RetryAfterMsFloor = 10;
  /// Wire codec negotiated on every member hop (MemberConfig::Codec);
  /// independent of what front-socket clients negotiate for themselves.
  server::WireCodec MemberCodec = server::WireCodec::Cbj1;
  /// Identity stamped into the aggregated stats document.
  std::string RouterId;
  /// Optional admission gate (the member supervisor, src/supervise/): a
  /// member whose id it refuses is skipped by start() and the reattach
  /// loop entirely — off the ring until admitted (ready, un-quarantined)
  /// again. Called with the router lock held; must not block or call
  /// back into the router.
  std::function<bool(const std::string &Id)> AdmissionGate;
  /// Optional augmentation of the aggregated stats root — the
  /// supervisor attaches its "supervisor" section here, after member
  /// aggregation (router-local, so no StatsSchemaVersion bump).
  std::function<void(json::Value &Root)> StatsAugment;
};

/// Monotone router-side counters. The router's zero-loss equation is
/// Received == Σ Answered* once drained (every request got exactly one
/// answer — ok, pass-through or router-generated rejection, deadline,
/// internal, or error — never silence).
struct RouterCounters {
  uint64_t Received = 0;   ///< every submit(), any kind
  uint64_t Forwarded = 0;  ///< validate requests handed to a member
  uint64_t Failovers = 0;  ///< orphaned requests re-routed after a death
  uint64_t MemberDeaths = 0;
  uint64_t Reattaches = 0;
  /// Work passes of the reattach loop (a pass with at least one dead
  /// admitted member to consider). An idle all-healthy cluster makes
  /// exactly zero — the loop parks on its condition variable instead of
  /// polling (ClusterTest pins this).
  uint64_t ReattachWakeups = 0;
  uint64_t AnsweredOk = 0;
  uint64_t AnsweredRejected = 0;
  uint64_t AnsweredDeadline = 0;
  uint64_t AnsweredInternal = 0;
  uint64_t AnsweredError = 0;
  uint64_t StatsRequests = 0;

  uint64_t answered() const {
    return AnsweredOk + AnsweredRejected + AnsweredDeadline +
           AnsweredInternal + AnsweredError;
  }
};

/// The routing point for \p R: a 64-bit fold of the fingerprint over the
/// request's cache identity (module text or seed, plus bugs preset).
/// Exposed for the stickiness tests.
uint64_t routePointOf(const server::Request &R);

/// Pure aggregation over member stats documents, unit-testable without
/// any socket. Sums the integer counters of the "requests", "verdicts"
/// and "cache" sections, merges latency histograms exactly from
/// their per-bucket counts, and folds the "server" gauges. Returns
/// std::nullopt with \p Err naming the offending member when a document
/// is missing a schema stamp or carries a version other than
/// server::StatsSchemaVersion.
std::optional<json::Value>
aggregateMemberStats(const std::vector<json::Value> &Docs, std::string *Err);

/// One-shot stats scrape of \p SocketPath on a short-lived connection.
std::optional<json::Value> scrapeMemberStats(const std::string &SocketPath,
                                             std::string *Err);

class ClusterRouter : public server::RequestHandler {
public:
  explicit ClusterRouter(ClusterOptions Opts);
  ~ClusterRouter() override;

  ClusterRouter(const ClusterRouter &) = delete;
  ClusterRouter &operator=(const ClusterRouter &) = delete;

  /// Connects every member and starts the reattach loop. False with
  /// \p Err when no member is reachable (members that fail to connect
  /// while at least one succeeds are left to the reattach loop).
  bool start(std::string *Err);

  void submit(const server::Request &R, Callback Done) override;
  void beginShutdown() override;
  /// Blocks until every forwarded request has been answered.
  void drain() override;

  std::vector<std::string> liveMembers() const;
  size_t numMembers() const { return Links.size(); }
  RouterCounters counters() const;

  /// Clears \p Id's reattach backoff and wakes the reattach loop now:
  /// the supervisor's readiness nudge, so a restarted member rejoins the
  /// ring immediately instead of waiting out a stale backoff expiry.
  void nudgeReattach(const std::string &Id);

  /// Records one supervisor health-ping round trip for \p Id, surfaced
  /// as `ping_rtt_us` in that member's cluster stats entry.
  void notePingRtt(const std::string &Id, uint64_t RttUs);

  /// Deep ping (Protocol.h): probes every configured member once on a
  /// short-lived connection, all in parallel so a hung member costs the
  /// deadline once, and returns the per-member liveness document that
  /// rides the ping response's `stats` field. \p DeadlineMs 0 means 1 s.
  json::Value deepPing(uint64_t DeadlineMs);

  /// The aggregated cluster stats document (see file comment).
  json::Value statsJson();

  /// Post-drain gate: scrapes every live member once and checks
  /// Σ accepted == Σ (completed + deadline_exceeded + internal_errors).
  /// \p Detail receives the summed counters (and the failure, if any) in
  /// the drained-line format.
  bool clusterDrainEquationHolds(std::string *Detail);

private:
  void onMemberDeath(MemberLink &L, std::vector<MemberLink::Orphan> Orphans);
  /// Routes \p R to the first live candidate in ring order; \p Done must
  /// already be the accounting-wrapped callback. Answers a retryable
  /// queue_full itself when the whole cluster is full or dead.
  void routeForwarded(const server::Request &R, const Callback &Done,
                      bool IsFailover);
  void reattachLoop();
  void noteAnswered(server::ResponseStatus S);
  MemberLink *linkById(const std::string &Id);

  ClusterOptions Opts;
  /// Stable storage: links are created once and never destroyed until
  /// the router dies, so MemberLink* snapshots stay valid outside RM.
  std::vector<std::unique_ptr<MemberLink>> Links;

  mutable std::mutex RM;
  std::condition_variable DrainCv;
  std::condition_variable ReattachCv;
  HashRing Ring;
  RouterCounters C;
  size_t Outstanding = 0; ///< forwarded (or failing-over) requests owed
  bool Draining = false;
  bool Stopping = false;
  /// Reattach-loop wake reasons beyond Stopping: set by onMemberDeath
  /// and nudgeReattach so the loop can park indefinitely when every
  /// admitted member is attached (the predicate never misses an event).
  bool ReattachDirty = false;
  /// Members whose backoff state the loop must forget on next wake.
  std::set<std::string> ReattachResets;
  /// Supervisor health-ping RTTs per member (node-stable map: Histogram
  /// is atomic-based and pinned in place).
  std::map<std::string, Histogram> PingRtts;
  std::thread Reattacher;
};

} // namespace cluster
} // namespace crellvm

#endif // CRELLVM_CLUSTER_ROUTER_H

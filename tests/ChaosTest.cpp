//===- tests/ChaosTest.cpp - Fault injection & degradation ----------------===//
//
// The deterministic chaos harness (support/FaultInjection.h) and every
// degradation ladder it exercises (DESIGN.md §13), bottom-up:
//
//   ChaosGrammar   schedule parsing: unknown sites and malformed params
//                  are hard errors; every/after/at/ppm fire on exactly
//                  the scheduled hits; counters account for every probe.
//   ChaosProtocol  frame I/O under injected partial transfers, EINTR and
//                  mid-frame disconnects (the retry loops of satellite 1).
//   ChaosPool      pool.submit degrades to caller-runs: capacity loss,
//                  never work loss.
//   ChaosDriver    unit.run / unit.hang isolation: a crashing or hanging
//                  unit becomes a structured outcome while its batch
//                  siblings validate normally, bit-identically.
//   ChaosCache     disk faults walk the rw -> ro -> off ladder; a sick
//                  disk costs throughput, never a wrong verdict.
//   ChaosService   the three headline invariants — every accepted request
//                  is answered, completed verdicts are bit-identical to a
//                  fault-free run, quarantine stops repeat offenders.
//
// Suite names all contain "Chaos" so the TSan/ASan sweeps in ci.yml pick
// the whole file up. The fault registry is process-global, so every test
// scopes its schedule with ScopedChaos (disarms on destruction) — under
// ctest each TEST is its own process, but the guard keeps same-process
// runs (e.g. --gtest_filter=Chaos*) honest too.
//
//===----------------------------------------------------------------------===//

#include "cache/Fingerprint.h"
#include "cache/ValidationCache.h"
#include "cache/Verdict.h"
#include "driver/Driver.h"
#include "plan/PlanManager.h"
#include "server/Service.h"
#include "support/Backoff.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "workload/RandomProgram.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

using namespace crellvm;

namespace {

/// Arms a schedule for the lifetime of one scope and disarms on exit, so
/// no test can leak faults into the next.
struct ScopedChaos {
  explicit ScopedChaos(const std::string &Spec) {
    std::string Err;
    Ok = fault::configure(Spec, &Err);
    EXPECT_TRUE(Ok) << Err;
  }
  ~ScopedChaos() { fault::disarm(); }
  bool Ok;
};

std::string freshDir(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("crellvm-chaos-" + std::string(Tag) + "." +
           std::to_string(::getpid()) + "." +
           std::to_string(Counter.fetch_add(1))))
      .string();
}

struct DirGuard {
  std::string Dir;
  explicit DirGuard(std::string D) : Dir(std::move(D)) {}
  ~DirGuard() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

/// The verdict-relevant slice of a StatsMap (counts only, no timings):
/// what "bit-identical" means for batch runs.
std::map<std::string, server::PassVerdicts>
verdictsOf(const driver::StatsMap &S) {
  return server::passVerdictsOf(S);
}

driver::BatchReport seededBatch(const std::vector<uint64_t> &Seeds,
                                const driver::BatchOptions &BOpts) {
  driver::DriverOptions DOpts;
  DOpts.WriteFiles = false;
  return driver::runBatchValidated(
      passes::BugConfig::fixed(), DOpts, Seeds.size(),
      [&](size_t I) {
        workload::GenOptions G;
        G.Seed = Seeds[I];
        return workload::generateModule(G);
      },
      BOpts);
}

//===----------------------------------------------------------------------===//
// ChaosGrammar
//===----------------------------------------------------------------------===//

TEST(ChaosGrammar, RejectsUnknownSitesAndMalformedParams) {
  std::string Err;
  EXPECT_FALSE(fault::configure("disk.teleport:every=2", &Err));
  EXPECT_NE(Err.find("disk.teleport"), std::string::npos);
  EXPECT_FALSE(fault::configure("disk.read:frobs=2", &Err));
  EXPECT_FALSE(fault::configure("disk.read:every=x", &Err));
  EXPECT_FALSE(fault::configure("disk.read:every=0", &Err));
  EXPECT_FALSE(fault::configure("disk.read", &Err))
      << "a site with no schedule is a typo, not a no-op";
  EXPECT_FALSE(fault::configure("disk.read:ms=5", &Err))
      << "an argument alone is not a firing schedule";
  EXPECT_FALSE(fault::configure("disk.read:ppm=1000001", &Err));
  EXPECT_FALSE(fault::configure("seed=banana", &Err));

  // A failed configure must leave the previous schedule untouched.
  ASSERT_TRUE(fault::configure("disk.read:at=1", &Err)) << Err;
  EXPECT_FALSE(fault::configure("disk.teleport:every=2", &Err));
  EXPECT_TRUE(fault::armed());
  EXPECT_EQ(fault::activeSpec(), "disk.read:at=1");
  fault::disarm();
}

TEST(ChaosGrammar, EveryAfterAtFireOnExactHits) {
  {
    ScopedChaos C("disk.read:every=3");
    std::vector<int> Fired;
    for (int Hit = 1; Hit <= 9; ++Hit)
      if (fault::shouldFail("disk.read"))
        Fired.push_back(Hit);
    EXPECT_EQ(Fired, (std::vector<int>{3, 6, 9}));
  }
  {
    ScopedChaos C("disk.write:after=2");
    std::vector<int> Fired;
    for (int Hit = 1; Hit <= 5; ++Hit)
      if (fault::shouldFail("disk.write"))
        Fired.push_back(Hit);
    EXPECT_EQ(Fired, (std::vector<int>{3, 4, 5}));
  }
  {
    ScopedChaos C("sock.read:at=4");
    std::vector<int> Fired;
    for (int Hit = 1; Hit <= 8; ++Hit)
      if (fault::shouldFail("sock.read"))
        Fired.push_back(Hit);
    EXPECT_EQ(Fired, (std::vector<int>{4}));
  }
  // Unscheduled sites never fire even while armed.
  {
    ScopedChaos C("disk.read:every=1");
    EXPECT_FALSE(fault::shouldFail("disk.write"));
  }
  // Disarmed, nothing fires and counters are empty.
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::shouldFail("disk.read"));
  EXPECT_TRUE(fault::counters().empty());
  EXPECT_EQ(fault::totalInjected(), 0u);
}

TEST(ChaosGrammar, PpmScheduleIsDeterministicPerSeed) {
  auto Pattern = [](const std::string &Spec) {
    ScopedChaos C(Spec);
    std::vector<bool> P;
    for (int Hit = 0; Hit != 200; ++Hit)
      P.push_back(fault::shouldFail("queue.admit"));
    return P;
  };
  std::vector<bool> A = Pattern("seed=7;queue.admit:ppm=400000");
  EXPECT_EQ(A, Pattern("seed=7;queue.admit:ppm=400000"))
      << "same seed, same spec: the firing pattern must replay exactly";
  size_t FiredA = static_cast<size_t>(std::count(A.begin(), A.end(), true));
  EXPECT_GT(FiredA, 0u);
  EXPECT_LT(FiredA, A.size());
  // ppm=1000000 is "always".
  std::vector<bool> All = Pattern("queue.admit:ppm=1000000");
  EXPECT_EQ(std::count(All.begin(), All.end(), true),
            static_cast<long>(All.size()));
}

TEST(ChaosGrammar, CountersAccountForEveryProbe) {
  ScopedChaos C("unit.run:every=2;unit.hang:at=1:ms=77");
  for (int I = 0; I != 10; ++I)
    fault::shouldFail("unit.run");
  uint64_t Arg = 0;
  EXPECT_TRUE(fault::shouldFail("unit.hang", &Arg));
  EXPECT_EQ(Arg, 77u) << "the ms argument must reach the firing site";

  auto Counters = fault::counters();
  ASSERT_EQ(Counters.count("unit.run"), 1u);
  EXPECT_EQ(Counters["unit.run"].Hits, 10u);
  EXPECT_EQ(Counters["unit.run"].Injected, 5u);
  EXPECT_EQ(Counters["unit.hang"].Hits, 1u);
  EXPECT_EQ(Counters["unit.hang"].Injected, 1u);
  EXPECT_EQ(fault::totalInjected(), 6u);

  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_TRUE(fault::activeSpec().empty());
  EXPECT_TRUE(fault::counters().empty());
}

TEST(ChaosGrammar, EnvironmentConfiguresLikeTheFlag) {
  ASSERT_EQ(::setenv("CRELLVM_CHAOS", "disk.rename:at=2", 1), 0);
  std::string Err;
  EXPECT_TRUE(fault::configureFromEnv(&Err)) << Err;
  EXPECT_TRUE(fault::armed());
  EXPECT_EQ(fault::activeSpec(), "disk.rename:at=2");
  fault::disarm();

  ASSERT_EQ(::setenv("CRELLVM_CHAOS", "bogus.site:every=1", 1), 0);
  EXPECT_FALSE(fault::configureFromEnv(&Err));
  EXPECT_FALSE(Err.empty());

  ASSERT_EQ(::unsetenv("CRELLVM_CHAOS"), 0);
  EXPECT_TRUE(fault::configureFromEnv(&Err)) << "unset env is not an error";
  EXPECT_FALSE(fault::armed());
}

//===----------------------------------------------------------------------===//
// ChaosProtocol
//===----------------------------------------------------------------------===//

TEST(ChaosProtocol, ShortTransfersAndEintrStillRoundTripFrames) {
  // One byte per syscall plus periodic EINTR: the retry loops must
  // reassemble every frame intact. (Never every=1 on eintr — an EINTR on
  // every attempt can make no progress by construction.)
  ScopedChaos C("sock.short:every=1;sock.eintr:every=5");
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  const std::string Payload(300, 'x');
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(server::writeFrame(Fds[1], Payload + std::to_string(I)));
    std::string Out, Err;
    ASSERT_TRUE(server::readFrame(Fds[0], Out, &Err)) << Err;
    EXPECT_EQ(Out, Payload + std::to_string(I));
  }
  EXPECT_GT(fault::totalInjected(), 0u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ChaosProtocol, InjectedDisconnectsSurfaceAsFrameErrors) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  {
    ScopedChaos C("sock.write:at=1");
    EXPECT_FALSE(server::writeFrame(Fds[1], "doomed"));
  }
  ASSERT_TRUE(server::writeFrame(Fds[1], "fine"));
  {
    ScopedChaos C("sock.read:at=1");
    std::string Out, Err;
    EXPECT_FALSE(server::readFrame(Fds[0], Out, &Err));
  }
  ::close(Fds[0]);
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// ChaosPool
//===----------------------------------------------------------------------===//

TEST(ChaosPool, SubmitFaultDegradesToCallerRunsWithoutWorkLoss) {
  ScopedChaos C("pool.submit:every=2");
  ThreadPool Pool(2);
  constexpr int N = 20;
  std::atomic<int> Ran{0};
  for (int I = 0; I != N; ++I)
    Pool.submit([&] { ++Ran; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), N)
      << "a degraded submit runs the task inline — it must never drop it";
  EXPECT_EQ(fault::counters()["pool.submit"].Injected, N / 2u);
}

//===----------------------------------------------------------------------===//
// ChaosDriver
//===----------------------------------------------------------------------===//

TEST(ChaosDriver, ThrowingUnitIsIsolatedFromItsBatch) {
  const std::vector<uint64_t> Seeds = {500, 501, 502, 503, 504, 505};
  // Jobs=1 probes units in index order, so hit 2 is exactly unit 1.
  driver::BatchOptions BOpts;
  BOpts.Jobs = 1;

  std::mutex M;
  std::vector<driver::UnitOutcome> Outcomes(Seeds.size(),
                                            driver::UnitOutcome::Ok);
  std::vector<std::string> Details(Seeds.size());
  int Callbacks = 0;
  BOpts.OnUnitDone = [&](size_t I, const driver::StatsMap &,
                         driver::UnitOutcome O, const std::string &D) {
    std::lock_guard<std::mutex> L(M);
    ++Callbacks;
    Outcomes[I] = O;
    Details[I] = D;
  };

  driver::BatchReport Faulty;
  {
    ScopedChaos C("unit.run:at=2");
    Faulty = seededBatch(Seeds, BOpts);
  }
  EXPECT_EQ(Callbacks, static_cast<int>(Seeds.size()))
      << "exactly one OnUnitDone per unit";
  EXPECT_EQ(Faulty.InternalErrors, 1u);
  EXPECT_EQ(Faulty.Units, Seeds.size());
  EXPECT_EQ(Outcomes[1], driver::UnitOutcome::InternalError);
  EXPECT_NE(Details[1].find("unit.run"), std::string::npos)
      << "the exception text must reach the caller: " << Details[1];

  // The survivors' verdicts are bit-identical to a fault-free batch over
  // just those seeds: the crash was isolated, not contagious.
  std::vector<uint64_t> Survivors = {500, 502, 503, 504, 505};
  driver::BatchOptions Plain;
  Plain.Jobs = 1;
  EXPECT_EQ(verdictsOf(Faulty.Stats),
            verdictsOf(seededBatch(Survivors, Plain).Stats));
}

TEST(ChaosDriver, WatchdogAnswersHungUnitWhileBatchContinues) {
  const std::vector<uint64_t> Seeds = {510, 511, 512, 513};
  driver::BatchOptions BOpts;
  BOpts.Jobs = 2;
  // Far above any honest unit's validation time — even under TSan/ASan
  // slowdown — so only the injected hang can trip it.
  BOpts.UnitTimeoutMs = 1500;

  std::mutex M;
  std::map<size_t, driver::UnitOutcome> Outcomes;
  std::map<size_t, std::string> Details;
  BOpts.OnUnitDone = [&](size_t I, const driver::StatsMap &Unit,
                         driver::UnitOutcome O, const std::string &D) {
    std::lock_guard<std::mutex> L(M);
    Outcomes[I] = O;
    Details[I] = D;
    if (O == driver::UnitOutcome::TimedOut) {
      EXPECT_TRUE(Unit.empty())
          << "a timed-out answer must not leak partial stats";
    }
  };

  driver::BatchReport R;
  {
    // One unit stalls for 4s, far past the 1.5s deadline; which unit
    // draws the stall under Jobs=2 varies, the count does not.
    ScopedChaos C("unit.hang:at=1:ms=4000");
    R = seededBatch(Seeds, BOpts);
  }
  EXPECT_EQ(R.TimedOut, 1u);
  EXPECT_EQ(R.Units, Seeds.size());
  ASSERT_EQ(Outcomes.size(), Seeds.size());
  int TimedOut = 0, Ok = 0;
  for (const auto &KV : Outcomes) {
    if (KV.second == driver::UnitOutcome::TimedOut) {
      ++TimedOut;
      EXPECT_NE(Details[KV.first].find("watchdog"), std::string::npos)
          << Details[KV.first];
    } else {
      EXPECT_EQ(KV.second, driver::UnitOutcome::Ok);
      ++Ok;
    }
  }
  EXPECT_EQ(TimedOut, 1);
  EXPECT_EQ(Ok, static_cast<int>(Seeds.size()) - 1);
}

//===----------------------------------------------------------------------===//
// ChaosPlan
//===----------------------------------------------------------------------===//

// The plan.apply site simulates a guard-failure storm: every fired probe
// skips the specialized path for that call and runs the general checker
// (plan/PlanManager.h). Whatever subset of calls the schedule hits — and
// at any --jobs N, where which call draws which probe is scheduling
// noise — verdicts and verdict stats must be bit-identical to --plan=off.
TEST(ChaosPlan, ForcedGuardFailuresMidBatchNeverChangeVerdicts) {
  const std::vector<uint64_t> Seeds = {900, 901, 902, 903, 904, 905, 906,
                                       907};
  driver::BatchOptions Plain;
  Plain.Jobs = 1;
  auto Baseline = verdictsOf(seededBatch(Seeds, Plain).Stats);

  for (unsigned Jobs : {1u, 4u}) {
    plan::PlanManagerOptions PO;
    PO.Mode = plan::PlanMode::On;
    plan::PlanManager Plans(PO);

    driver::DriverOptions DOpts;
    DOpts.WriteFiles = false;
    DOpts.Plans = &Plans;
    driver::BatchOptions BOpts;
    BOpts.Jobs = Jobs;

    driver::BatchReport R;
    uint64_t Fired = 0;
    {
      ScopedChaos C("plan.apply:every=3");
      R = driver::runBatchValidated(
          passes::BugConfig::fixed(), DOpts, Seeds.size(),
          [&](size_t I) {
            workload::GenOptions G;
            G.Seed = Seeds[I];
            return workload::generateModule(G);
          },
          BOpts);
      Fired = fault::counters()["plan.apply"].Injected;
    }

    EXPECT_EQ(verdictsOf(R.Stats), Baseline) << "jobs=" << Jobs;
    EXPECT_EQ(R.InternalErrors, 0u) << "a guard failure is not an error";
    EXPECT_GT(Fired, 0u) << "the schedule must actually have fired";

    // The surviving two-thirds of calls still went through the plan: the
    // fault degrades throughput for the hit calls only.
    uint64_t Specialized = 0, Fallbacks = 0;
    for (const auto &KV : R.Stats) {
      Specialized += KV.second.PlanSpecialized;
      Fallbacks += KV.second.PlanFallbacks;
    }
    EXPECT_GT(Specialized, 0u) << "jobs=" << Jobs;
    // Forced-general calls bypass both plan counters, so specialized +
    // fallback function counts stay below the fault-free total — the gap
    // is the storm's footprint, visible in stats, invisible in verdicts.
    (void)Fallbacks;
    EXPECT_EQ(Plans.divergences(), 0u);
    EXPECT_EQ(Plans.effectiveMode(), plan::PlanMode::On)
        << "a chaos-forced guard failure must not demote the mode";
  }
}

//===----------------------------------------------------------------------===//
// ChaosCache
//===----------------------------------------------------------------------===//

TEST(ChaosCache, DiskFaultsWalkTheDegradationLadder) {
  DirGuard D(freshDir("ladder"));
  cache::ValidationCacheOptions Opts;
  Opts.Policy = cache::CachePolicy::ReadWrite;
  Opts.Dir = D.Dir;
  Opts.DemoteAfterFaults = 2;
  cache::ValidationCache VC(Opts);
  ASSERT_TRUE(VC.writable());

  auto FP = [](uint64_t Seed) {
    cache::FingerprintBuilder B;
    B.u64(Seed);
    return B.digest();
  };

  ScopedChaos C("disk.write:every=1;disk.read:every=1");
  // Two failed stores cross DemoteAfterFaults: rw -> ro.
  VC.store(FP(1), cache::Verdict{});
  VC.store(FP(2), cache::Verdict{});
  EXPECT_EQ(VC.policy(), cache::CachePolicy::ReadOnly);
  EXPECT_FALSE(VC.writable());
  EXPECT_EQ(VC.demotions(), 1u);
  // Read-only stores are no-ops (no further write faults); two failed
  // disk reads reach 2x the threshold: ro -> off.
  EXPECT_FALSE(VC.lookup(FP(3)).has_value());
  EXPECT_FALSE(VC.lookup(FP(4)).has_value());
  EXPECT_EQ(VC.policy(), cache::CachePolicy::Off);
  EXPECT_FALSE(VC.enabled()) << "off = pure pass-through for the driver";
  EXPECT_EQ(VC.demotions(), 2u);
  EXPECT_GE(VC.diskFaults(), 4u);
  EXPECT_EQ(VC.configuredPolicy(), cache::CachePolicy::ReadWrite)
      << "the ladder moves the effective policy, not the configured one";
}

TEST(ChaosCache, DegradedCacheNeverChangesAVerdict) {
  const std::vector<uint64_t> Seeds = {520, 521, 522, 523, 524};
  driver::BatchOptions BOpts;
  BOpts.Jobs = 1;

  // Baseline: no cache, no faults.
  auto Baseline = verdictsOf(seededBatch(Seeds, BOpts).Stats);

  // Every disk write fails and every disk read is corrupted; the cache
  // demotes itself while the batch runs. Verdicts must not move.
  DirGuard D(freshDir("verdicts"));
  cache::ValidationCacheOptions COpts;
  COpts.Policy = cache::CachePolicy::ReadWrite;
  COpts.Dir = D.Dir;
  COpts.DemoteAfterFaults = 2;
  cache::ValidationCache VC(COpts);

  driver::DriverOptions DOpts;
  DOpts.WriteFiles = false;
  DOpts.Cache = &VC;
  driver::BatchReport Faulty;
  {
    ScopedChaos C("disk.write:every=1;disk.corrupt:every=1");
    Faulty = driver::runBatchValidated(
        passes::BugConfig::fixed(), DOpts, Seeds.size(),
        [&](size_t I) {
          workload::GenOptions G;
          G.Seed = Seeds[I];
          return workload::generateModule(G);
        },
        BOpts);
  }
  EXPECT_EQ(verdictsOf(Faulty.Stats), Baseline)
      << "cache degradation may cost throughput, never correctness";
  EXPECT_GE(VC.demotions(), 1u) << "the sick disk must have tripped the "
                                   "ladder during the batch";
  EXPECT_EQ(Faulty.InternalErrors, 0u);
}

//===----------------------------------------------------------------------===//
// ChaosService
//===----------------------------------------------------------------------===//

server::ServiceOptions fastOptions() {
  server::ServiceOptions O;
  O.Jobs = 4;
  O.Driver.WriteFiles = false;
  return O;
}

server::Request validateSeed(uint64_t Seed, int64_t Id = 0) {
  server::Request R;
  R.Kind = server::RequestKind::Validate;
  R.Id = Id;
  R.HasSeed = true;
  R.Seed = Seed;
  return R;
}

TEST(ChaosService, EveryAcceptedRequestAnsweredUnderFaults) {
  server::ValidationService S(fastOptions());
  server::LoopbackTransport T(S);

  constexpr int N = 12;
  std::mutex M;
  std::condition_variable Cv;
  int Answered = 0;
  std::map<server::ResponseStatus, int> ByStatus;
  {
    ScopedChaos C("unit.run:every=3;queue.admit:every=5;pool.submit:every=4");
    for (int I = 0; I != N; ++I)
      T.submit(validateSeed(600 + I, I), [&](server::Response R) {
        std::lock_guard<std::mutex> L(M);
        ++ByStatus[R.Status];
        if (++Answered == N)
          Cv.notify_all();
      });
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Answered == N; });
  }
  // Zero verdict loss: every submit produced exactly one response, and
  // the drain equation balances — the invariant crellvm-served exits
  // nonzero on.
  EXPECT_EQ(Answered, N);
  server::ServiceCounters C = S.counters();
  EXPECT_EQ(C.Received, static_cast<uint64_t>(N));
  EXPECT_EQ(C.Accepted,
            C.Completed + C.DeadlineExpired + C.InternalErrors);
  EXPECT_EQ(C.Accepted + C.RejectedQueueFull, static_cast<uint64_t>(N))
      << "forced sheds are rejections, not losses";
  EXPECT_GT(C.InternalErrors, 0u) << "unit.run:every=3 must have fired";
  EXPECT_EQ(ByStatus[server::ResponseStatus::Ok] +
                ByStatus[server::ResponseStatus::InternalError] +
                ByStatus[server::ResponseStatus::Rejected],
            N);
}

TEST(ChaosService, CompletedVerdictsBitIdenticalToFaultFreeRun) {
  const std::vector<uint64_t> Seeds = {610, 611, 612, 613, 614, 615};

  // Fault-free baseline, one service call per seed.
  std::map<uint64_t, std::map<std::string, server::PassVerdicts>> Baseline;
  {
    server::ValidationService S(fastOptions());
    server::LoopbackTransport T(S);
    for (size_t I = 0; I != Seeds.size(); ++I) {
      server::Response R =
          T.call(validateSeed(Seeds[I], static_cast<int64_t>(I)));
      ASSERT_EQ(R.Status, server::ResponseStatus::Ok);
      Baseline[Seeds[I]] = R.Passes;
    }
  }

  // Same seeds with every fourth unit crashing: the crashed ones answer
  // internal_error, every completed one matches the baseline bit for bit.
  server::ValidationService S(fastOptions());
  server::LoopbackTransport T(S);
  int Completed = 0, Internal = 0;
  {
    ScopedChaos C("unit.run:every=4");
    for (size_t I = 0; I != Seeds.size(); ++I) {
      server::Response R =
          T.call(validateSeed(Seeds[I], static_cast<int64_t>(I)));
      if (R.Status == server::ResponseStatus::Ok) {
        ++Completed;
        EXPECT_EQ(R.Passes, Baseline[Seeds[I]])
            << "seed " << Seeds[I]
            << ": chaos may fail a unit, never skew a completed one";
      } else {
        ASSERT_EQ(R.Status, server::ResponseStatus::InternalError);
        ++Internal;
        EXPECT_FALSE(R.Reason.empty());
      }
    }
  }
  EXPECT_EQ(Internal, 1) << "6 sequential single-unit batches, every=4";
  EXPECT_EQ(Completed, static_cast<int>(Seeds.size()) - 1);
}

TEST(ChaosService, QuarantineStopsRepeatInternalErrorOffenders) {
  server::ServiceOptions O = fastOptions();
  O.QuarantineAfter = 2;
  server::ValidationService S(O);
  server::LoopbackTransport T(S);

  ScopedChaos C("unit.run:every=1"); // the unit crashes every time
  const uint64_t Seed = 620;
  server::Response R1 = T.call(validateSeed(Seed, 1));
  server::Response R2 = T.call(validateSeed(Seed, 2));
  EXPECT_EQ(R1.Status, server::ResponseStatus::InternalError);
  EXPECT_EQ(R2.Status, server::ResponseStatus::InternalError);

  // The streak reached QuarantineAfter: the same unit is now refused at
  // admission instead of burning a pool slot to crash again.
  server::Response R3 = T.call(validateSeed(Seed, 3));
  EXPECT_EQ(R3.Status, server::ResponseStatus::Rejected);
  EXPECT_EQ(R3.Reason, "quarantined");

  // A different unit is unaffected — quarantine is per identity.
  server::Response Other = T.call(validateSeed(621, 4));
  EXPECT_NE(Other.Status, server::ResponseStatus::Rejected);

  server::ServiceCounters C2 = S.counters();
  EXPECT_EQ(C2.RejectedQuarantined, 1u);
  EXPECT_EQ(C2.InternalErrors, 3u);
  EXPECT_EQ(C2.Accepted, C2.Completed + C2.DeadlineExpired + C2.InternalErrors);
}

// A refused enqueue runs the task inline on the submitting thread, and
// the task takes the service lock: the service must never call into the
// pool while it holds that lock, or this request deadlocks.
TEST(ChaosService, RefusedPoolEnqueueStillAnswersTheRequest) {
  server::ValidationService S(fastOptions());
  server::LoopbackTransport T(S);

  ScopedChaos C("pool.submit:at=1");
  server::Response R = T.call(validateSeed(640, 1));
  EXPECT_EQ(R.Status, server::ResponseStatus::Ok) << R.Reason;
  EXPECT_GT(R.totalV(), 0u);
  EXPECT_EQ(fault::counters()["pool.submit"].Injected, 1u)
      << "the request's own task must have run inline";
}

TEST(ChaosService, ForcedShedIsClientVisibleBackpressure) {
  server::ServiceOptions O = fastOptions();
  O.StartPaused = true;
  server::ValidationService S(O);
  server::LoopbackTransport T(S);

  ScopedChaos C("queue.admit:at=1");
  std::mutex M;
  std::vector<server::Response> Rsps;
  auto Collect = [&](server::Response R) {
    std::lock_guard<std::mutex> L(M);
    Rsps.push_back(std::move(R));
  };
  T.submit(validateSeed(630, 1), Collect); // shed despite the empty queue
  {
    std::lock_guard<std::mutex> L(M);
    ASSERT_EQ(Rsps.size(), 1u);
    EXPECT_EQ(Rsps[0].Status, server::ResponseStatus::Rejected);
    EXPECT_EQ(Rsps[0].Reason, "queue_full");
    EXPECT_GE(Rsps[0].RetryAfterMs, O.RetryAfterMsFloor)
        << "a shed must carry the retry hint the client backoff honors";
  }
  EXPECT_EQ(S.counters().RejectedQueueFull, 1u);
  S.resume();
}

//===----------------------------------------------------------------------===//
// ChaosBackoff — the shared overflow-proof retry schedule
//===----------------------------------------------------------------------===//

// Every retry loop in the tree (crellvm-client --retries, the campaign
// socket backend, the cluster reattach loop) delegates its schedule to
// backoff::delayMs. The contract: monotone non-decreasing in the attempt
// number until the cap, then exactly the cap forever — even for attempt
// counts far beyond the 63 doublings that would overflow a uint64_t
// shift.
TEST(ChaosBackoff, MonotoneThenCappedNeverOverflows) {
  constexpr uint64_t Base = 25, Cap = 6400;
  uint64_t Prev = 0;
  bool SawCap = false;
  for (uint64_t Attempt = 0; Attempt != 200; ++Attempt) {
    uint64_t D = backoff::delayMs(Base, Attempt, Cap);
    EXPECT_GE(D, Prev) << "attempt " << Attempt;
    EXPECT_LE(D, Cap) << "attempt " << Attempt;
    if (SawCap)
      EXPECT_EQ(D, Cap) << "attempt " << Attempt << " left the cap";
    SawCap = SawCap || D == Cap;
    Prev = D;
  }
  EXPECT_TRUE(SawCap);
  // The attempt counts that used to shift into undefined behavior.
  EXPECT_EQ(backoff::delayMs(Base, 63, Cap), Cap);
  EXPECT_EQ(backoff::delayMs(Base, 64, Cap), Cap);
  EXPECT_EQ(backoff::delayMs(Base, 10000000000ull, Cap), Cap);
  EXPECT_EQ(backoff::delayMs(Base, UINT64_MAX, Cap), Cap);
}

TEST(ChaosBackoff, EdgesAndLegacyEquivalence) {
  // Base 0 means "no backoff configured": always 0, never the cap.
  EXPECT_EQ(backoff::delayMs(0, 0, 1000), 0u);
  EXPECT_EQ(backoff::delayMs(0, 50, 1000), 0u);
  // Base at or above the cap pins to the cap from the first attempt.
  EXPECT_EQ(backoff::delayMs(5000, 0, 1000), 1000u);
  // The client's legacy schedule (25ms << min(round, 8)) is reproduced
  // exactly inside the safe range.
  for (uint64_t Round = 0; Round != 9; ++Round)
    EXPECT_EQ(backoff::delayMs(25, Round, 25 * 256), 25ull << Round)
        << "round " << Round;
  EXPECT_EQ(backoff::delayMs(25, 9, 25 * 256), 6400u);
}

} // namespace

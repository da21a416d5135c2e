//===- tests/PlanTest.cpp - Per-preset checker-plan pipeline --------------===//
//
// The plan subsystem (src/plan, DESIGN.md §17), tested bottom-up:
//
//   PlanJson       serialization: round trip, schema gate, unknown-name
//                  rejection — a plan that cannot be fully understood is
//                  a miss, never a partially-applied plan;
//   PlanBuild      profile-guided derivation is deterministic;
//   PlanChecker    the soundness core: checker::validateWithPlan agrees
//                  with checker::validate on every verdict, across the
//                  fixed tree and every historical bug preset, and the
//                  guard hard-falls-back on out-of-profile proofs;
//   PlanCache      LRU + shared disk tier + corrupt-payload handling;
//   PlanManager    mode dispatch, once-per-key builds at any concurrency,
//                  the shadow comparison and the divergence demotion
//                  ladder;
//   PlanServer     the service stats document carries the "plan" section
//                  cluster aggregation sums. (Suite name contains
//                  "Server" so the TSan sweep in ci.yml picks it up.)
//
//===----------------------------------------------------------------------===//

#include "cache/DiskStore.h"
#include "cache/Fingerprint.h"
#include "checker/Validator.h"
#include "checker/Version.h"
#include "erhl/Infrule.h"
#include "json/Json.h"
#include "passes/Pipeline.h"
#include "plan/Plan.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanCache.h"
#include "plan/PlanManager.h"
#include "server/Service.h"
#include "workload/RandomProgram.h"

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include <unistd.h>

using namespace crellvm;

namespace {

std::string freshDir(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("crellvm-plan-" + std::string(Tag) + "." +
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

/// Full per-function comparison — stricter than summary counts: the
/// specialized path must reproduce Status, Where and Reason exactly.
void expectSameResults(const checker::ModuleResult &A,
                       const checker::ModuleResult &B,
                       const std::string &Context) {
  ASSERT_EQ(A.Functions.size(), B.Functions.size()) << Context;
  for (const auto &KV : A.Functions) {
    auto It = B.Functions.find(KV.first);
    ASSERT_NE(It, B.Functions.end()) << Context << " @" << KV.first;
    EXPECT_EQ(static_cast<int>(KV.second.Status),
              static_cast<int>(It->second.Status))
        << Context << " @" << KV.first;
    EXPECT_EQ(KV.second.Where, It->second.Where) << Context << " @" << KV.first;
    EXPECT_EQ(KV.second.Reason, It->second.Reason)
        << Context << " @" << KV.first;
  }
}

int64_t statInt(const json::Value &Stats, const char *Section,
                const char *Key) {
  const json::Value *S = Stats.find(Section);
  if (!S)
    return -1;
  const json::Value *V = S->find(Key);
  return V ? V->getInt() : -1;
}

//===----------------------------------------------------------------------===//
// PlanJson
//===----------------------------------------------------------------------===//

TEST(PlanJson, RoundTripPreservesEveryField) {
  plan::PlanBuildOptions BO;
  BO.FeedstockModules = 2;
  plan::CheckerPlan P =
      plan::buildPlan("gvn", passes::BugConfig::fixed(), BO);

  std::string Err;
  auto Back = plan::planFromJson(plan::planToJson(P), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->PassName, P.PassName);
  EXPECT_EQ(Back->Bugs, P.Bugs);
  EXPECT_EQ(Back->Spec.AllowedRules, P.Spec.AllowedRules);
  EXPECT_EQ(Back->Spec.AllowedAutos, P.Spec.AllowedAutos);
  EXPECT_EQ(Back->Spec.SkipNonphysSweepCmd, P.Spec.SkipNonphysSweepCmd);
  EXPECT_EQ(Back->Spec.SkipLoadBridge, P.Spec.SkipLoadBridge);
  EXPECT_EQ(Back->Spec.MaydiffRoundCap, P.Spec.MaydiffRoundCap);
  EXPECT_EQ(Back->Spec.ReuseEqualPostCmd, P.Spec.ReuseEqualPostCmd);
  EXPECT_EQ(Back->Spec.ReuseEqualPostPhi, P.Spec.ReuseEqualPostPhi);
  EXPECT_EQ(Back->Spec.MaydiffCandidatesDefinedOnlyCmd,
            P.Spec.MaydiffCandidatesDefinedOnlyCmd);
  EXPECT_EQ(Back->Spec.MaydiffCandidatesDefinedOnlyPhi,
            P.Spec.MaydiffCandidatesDefinedOnlyPhi);
  EXPECT_EQ(Back->Spec.RelatedProbeFirst, P.Spec.RelatedProbeFirst);
  EXPECT_EQ(Back->FeedstockModules, P.FeedstockModules);
  EXPECT_EQ(Back->ProfiledFunctions, P.ProfiledFunctions);
  EXPECT_EQ(Back->ProfiledValidated, P.ProfiledValidated);

  // Serialization is canonical: round-tripping reproduces the bytes, the
  // property that makes plans shareable through the content-addressed
  // store (two members building the same key store the same object).
  EXPECT_EQ(plan::planToJson(*Back), plan::planToJson(P));
}

TEST(PlanJson, RejectsForeignSchemaUnknownNamesAndGarbage) {
  plan::PlanBuildOptions BO;
  BO.FeedstockModules = 1;
  plan::CheckerPlan P =
      plan::buildPlan("instcombine", passes::BugConfig::fixed(), BO);
  std::string Good = plan::planToJson(P);

  std::string Err;
  ASSERT_TRUE(plan::planFromJson(Good, &Err)) << Err;

  // Schema version from a future (or past) writer: refused, named.
  std::string Schema = Good;
  std::string Needle = "\"schema_version\":" +
                       std::to_string(checker::PlanSchemaVersion);
  size_t At = Schema.find(Needle);
  ASSERT_NE(At, std::string::npos) << Good;
  Schema.replace(At, Needle.size(), "\"schema_version\":999");
  EXPECT_FALSE(plan::planFromJson(Schema, &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;

  // An unknown rule name (e.g. after a rule was removed) poisons the
  // whole plan: a guard over a rule set we cannot name is no guard.
  ASSERT_FALSE(P.Spec.AllowedRules.empty());
  std::string FirstRule;
  for (uint16_t K = 0; K != erhl::NumInfruleKinds; ++K)
    if (P.Spec.AllowedRules[K]) {
      FirstRule = erhl::infruleKindName(static_cast<erhl::InfruleKind>(K));
      break;
    }
  if (!FirstRule.empty()) {
    std::string Renamed = Good;
    At = Renamed.find("\"" + FirstRule + "\"");
    ASSERT_NE(At, std::string::npos);
    Renamed.replace(At, FirstRule.size() + 2, "\"no-such-rule\"");
    EXPECT_FALSE(plan::planFromJson(Renamed, &Err));
    EXPECT_NE(Err.find("no-such-rule"), std::string::npos) << Err;
  }

  EXPECT_FALSE(plan::planFromJson("not json", &Err));
  EXPECT_FALSE(plan::planFromJson("{}", &Err));
  EXPECT_FALSE(plan::planFromJson("[1,2,3]", &Err));
}

//===----------------------------------------------------------------------===//
// PlanBuild
//===----------------------------------------------------------------------===//

TEST(PlanBuild, DerivationIsDeterministic) {
  for (const char *Pass : {"mem2reg", "instcombine", "licm", "gvn"}) {
    plan::CheckerPlan A = plan::buildPlan(Pass, passes::BugConfig::fixed());
    plan::CheckerPlan B = plan::buildPlan(Pass, passes::BugConfig::fixed());
    EXPECT_EQ(plan::planToJson(A), plan::planToJson(B)) << Pass;
    EXPECT_GT(A.ProfiledFunctions, 0u) << Pass;
  }
}

//===----------------------------------------------------------------------===//
// PlanChecker — the soundness core
//===----------------------------------------------------------------------===//

// Specialized dispatch must reproduce the general checker's verdicts
// function-for-function on the fixed tree AND on every historical bug
// preset — on the buggy trees the *failures* (Where, Reason) must match
// too, because that is what a campaign reports and an engineer debugs.
TEST(PlanChecker, SpecializedAgreesWithGeneralAcrossPresets) {
  std::vector<std::pair<std::string, passes::BugConfig>> Presets;
  Presets.emplace_back("fixed", passes::BugConfig::fixed());
  for (const auto &KV : passes::BugConfig::historicalPresets())
    Presets.emplace_back(KV.first, KV.second);

  for (const auto &Preset : Presets) {
    auto Pipe = passes::makeO2Pipeline(Preset.second);
    std::map<std::string, plan::CheckerPlan> Plans;
    for (const auto &P : Pipe)
      if (!Plans.count(P->name())) {
        plan::PlanBuildOptions BO;
        BO.FeedstockModules = 2;
        Plans.emplace(P->name(),
                      plan::buildPlan(P->name(), Preset.second, BO));
      }

    for (uint64_t Seed : {11ull, 12ull}) {
      workload::GenOptions G;
      G.Seed = Seed;
      ir::Module Cur = workload::generateModule(G);
      for (const auto &P : Pipe) {
        passes::PassResult PR = P->run(Cur, /*GenProof=*/true);
        checker::ModuleResult General = checker::validate(Cur, PR.Tgt, PR.Proof);
        checker::PlanRunStats PS;
        checker::ModuleResult Spec = checker::validateWithPlan(
            Cur, PR.Tgt, PR.Proof, Plans.at(P->name()).Spec, &PS);
        expectSameResults(General, Spec,
                          Preset.first + "/" + P->name() + "/seed " +
                              std::to_string(Seed));
        EXPECT_EQ(PS.Specialized + PS.Fallbacks, General.Functions.size())
            << "every function is either specialized or fell back";
        Cur = std::move(PR.Tgt);
      }
    }
  }
}

// A plan whose profile never saw the proof's rules must fail the guard
// and fall back — and still produce the general checker's verdict.
TEST(PlanChecker, OutOfProfileProofHardFallsBack) {
  workload::GenOptions G;
  G.Seed = 21;
  ir::Module Src = workload::generateModule(G);
  auto P = passes::makePass("instcombine", passes::BugConfig::fixed());
  passes::PassResult PR = P->run(Src, /*GenProof=*/true);

  checker::PlanSpec Paranoid; // admits no rules, no autos
  Paranoid.AllowedRules.assign(erhl::NumInfruleKinds, 0);
  checker::PlanRunStats PS;
  checker::ModuleResult Spec =
      checker::validateWithPlan(Src, PR.Tgt, PR.Proof, Paranoid, &PS);
  checker::ModuleResult General = checker::validate(Src, PR.Tgt, PR.Proof);
  expectSameResults(General, Spec, "paranoid plan");
  EXPECT_GT(PS.Fallbacks, 0u)
      << "an instcombine proof applies rules an empty guard cannot admit";
}

//===----------------------------------------------------------------------===//
// PlanCache
//===----------------------------------------------------------------------===//

plan::CheckerPlan tinyPlan(const char *Pass) {
  plan::PlanBuildOptions BO;
  BO.FeedstockModules = 1;
  return plan::buildPlan(Pass, passes::BugConfig::fixed(), BO);
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed) {
  plan::PlanCacheOptions CO;
  CO.MaxMemEntries = 1;
  plan::PlanCache C(CO);
  cache::Fingerprint K1{1, 1}, K2{2, 2};
  C.store(K1, std::make_shared<plan::CheckerPlan>(tinyPlan("mem2reg")));
  C.store(K2, std::make_shared<plan::CheckerPlan>(tinyPlan("gvn")));
  EXPECT_EQ(C.load(K2) != nullptr, true) << "newest entry survives";
  EXPECT_EQ(C.load(K1), nullptr) << "capacity 1: oldest entry evicted";
  plan::PlanCacheCounters N = C.counters();
  EXPECT_EQ(N.MemHits, 1u);
  EXPECT_EQ(N.Misses, 1u);
  EXPECT_EQ(N.Stores, 2u);
}

TEST(PlanCache, DiskTierSharesPlansAcrossInstances) {
  DirGuard Dir(freshDir("share"));
  cache::DiskStoreOptions DO;
  DO.Dir = Dir.Dir;
  cache::DiskStore Disk(DO);
  ASSERT_TRUE(Disk.ok());

  cache::Fingerprint Key = cache::fingerprintPlan(
      "gvn", passes::BugConfig::fixed(), checker::versionFingerprint(),
      checker::PlanSchemaVersion);

  {
    plan::PlanCacheOptions CO;
    CO.Disk = &Disk;
    plan::PlanCache Writer(CO);
    Writer.store(Key, std::make_shared<plan::CheckerPlan>(tinyPlan("gvn")));
  }

  // A second cache (another "member") over the same tier warm-hits disk.
  plan::PlanCacheOptions CO;
  CO.Disk = &Disk;
  plan::PlanCache Reader(CO);
  auto Hit = Reader.load(Key);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->PassName, "gvn");
  plan::PlanCacheCounters N = Reader.counters();
  EXPECT_EQ(N.DiskHits, 1u);
  // The disk hit was promoted: the next load is a memory hit.
  EXPECT_NE(Reader.load(Key), nullptr);
  EXPECT_EQ(Reader.counters().MemHits, 1u);
}

TEST(PlanCache, CorruptDiskPayloadIsACountedMissNeverAnError) {
  DirGuard Dir(freshDir("corrupt"));
  cache::DiskStoreOptions DO;
  DO.Dir = Dir.Dir;
  cache::DiskStore Disk(DO);
  ASSERT_TRUE(Disk.ok());

  cache::Fingerprint Key{0xbad, 0xf00d};
  Disk.store(Key, "this is not a plan");

  plan::PlanCacheOptions CO;
  CO.Disk = &Disk;
  plan::PlanCache C(CO);
  EXPECT_EQ(C.load(Key), nullptr);
  plan::PlanCacheCounters N = C.counters();
  EXPECT_EQ(N.CorruptPlans, 1u);
  EXPECT_EQ(N.Misses, 1u);
}

//===----------------------------------------------------------------------===//
// PlanManager
//===----------------------------------------------------------------------===//

struct Unit {
  ir::Module Src;
  ir::Module Tgt;
  proofgen::Proof Proof;
  std::string Pass;
};

Unit makeUnit(uint64_t Seed, const char *Pass,
              const passes::BugConfig &Bugs = passes::BugConfig::fixed()) {
  workload::GenOptions G;
  G.Seed = Seed;
  Unit U;
  U.Src = workload::generateModule(G);
  auto P = passes::makePass(Pass, Bugs);
  passes::PassResult PR = P->run(U.Src, /*GenProof=*/true);
  U.Tgt = std::move(PR.Tgt);
  U.Proof = std::move(PR.Proof);
  U.Pass = Pass;
  return U;
}

TEST(PlanManager, OffModeRunsTheGeneralCheckerOnly) {
  plan::PlanManagerOptions PO; // Mode = Off
  plan::PlanManager M(PO);
  Unit U = makeUnit(31, "instcombine");
  plan::PlanCallStats PS;
  checker::ModuleResult R = M.validate(U.Pass, passes::BugConfig::fixed(),
                                       U.Src, U.Tgt, U.Proof, &PS);
  expectSameResults(checker::validate(U.Src, U.Tgt, U.Proof), R, "off mode");
  EXPECT_EQ(PS.Builds, 0u);
  EXPECT_EQ(PS.Specialized, 0u);
  EXPECT_EQ(PS.ShadowChecks, 0u);
}

TEST(PlanManager, BuildsOncePerKeyAtAnyConcurrency) {
  plan::PlanManagerOptions PO;
  PO.Mode = plan::PlanMode::On;
  plan::PlanManager M(PO);

  constexpr unsigned Threads = 8;
  std::atomic<uint64_t> Builds{0}, Hits{0};
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Threads; ++I)
    Ts.emplace_back([&] {
      plan::PlanCallStats PS;
      auto P = M.getOrBuild("gvn", passes::BugConfig::fixed(), &PS);
      EXPECT_NE(P, nullptr);
      Builds += PS.Builds;
      Hits += PS.Hits;
    });
  for (auto &T : Ts)
    T.join();

  // Deterministic at any interleaving: the first caller builds, every
  // other caller blocks on the build and then hits memory — never a
  // timing-dependent second build or miss.
  EXPECT_EQ(Builds.load(), 1u);
  EXPECT_EQ(Hits.load(), Threads - 1);
}

TEST(PlanManager, ShadowModeEmitsGeneralVerdictAndCountsChecks) {
  plan::PlanManagerOptions PO;
  PO.Mode = plan::PlanMode::Shadow;
  plan::PlanManager M(PO);
  Unit U = makeUnit(33, "gvn");
  plan::PlanCallStats PS;
  checker::ModuleResult R = M.validate(U.Pass, passes::BugConfig::fixed(),
                                       U.Src, U.Tgt, U.Proof, &PS);
  expectSameResults(checker::validate(U.Src, U.Tgt, U.Proof), R, "shadow");
  EXPECT_EQ(PS.ShadowChecks, R.Functions.size());
  EXPECT_EQ(PS.Divergences, 0u)
      << "divergence is unreachable absent a checker bug";
  EXPECT_EQ(M.effectiveMode(), plan::PlanMode::Shadow);
}

TEST(PlanManager, InjectedDivergenceWalksTheDemotionLadder) {
  plan::PlanManagerOptions PO;
  PO.Mode = plan::PlanMode::Shadow;
  plan::PlanManager M(PO);
  Unit U = makeUnit(34, "instcombine");

  M.injectDivergenceForTest();
  plan::PlanCallStats PS;
  checker::ModuleResult R = M.validate(U.Pass, passes::BugConfig::fixed(),
                                       U.Src, U.Tgt, U.Proof, &PS);
  // Even the diverging call emits the general verdict — shadow mode's
  // specialized run is observation, never the answer.
  expectSameResults(checker::validate(U.Src, U.Tgt, U.Proof), R, "diverged");
  EXPECT_EQ(PS.Divergences, 1u);
  EXPECT_EQ(M.divergences(), 1u);
  EXPECT_EQ(M.demotions(), 1u);
  EXPECT_EQ(M.configuredMode(), plan::PlanMode::Shadow);
  EXPECT_EQ(M.effectiveMode(), plan::PlanMode::Off)
      << "one strike: plans stop influencing the hot path";

  // Demoted: later calls run the general checker with no plan activity.
  plan::PlanCallStats After;
  checker::ModuleResult R2 = M.validate(U.Pass, passes::BugConfig::fixed(),
                                        U.Src, U.Tgt, U.Proof, &After);
  expectSameResults(R, R2, "post-demotion");
  EXPECT_EQ(After.Specialized, 0u);
  EXPECT_EQ(After.ShadowChecks, 0u);
  EXPECT_EQ(M.demotions(), 1u) << "the ladder demotes once, not per call";
}

TEST(PlanManager, StatsJsonCarriesFlatTotalsAndPerPreset) {
  plan::PlanManagerOptions PO;
  PO.Mode = plan::PlanMode::On;
  plan::PlanManager M(PO);
  Unit U = makeUnit(35, "mem2reg");
  M.validate(U.Pass, passes::BugConfig::fixed(), U.Src, U.Tgt, U.Proof);
  M.validate(U.Pass, passes::BugConfig::fixed(), U.Src, U.Tgt, U.Proof);

  json::Value S = M.statsJson();
  const json::Value *Mode = S.find("mode");
  ASSERT_NE(Mode, nullptr);
  EXPECT_EQ(Mode->getString(), "on");
  EXPECT_EQ(S.find("builds")->getInt(), 1);
  EXPECT_EQ(S.find("mem_hits")->getInt(), 1);
  EXPECT_EQ(S.find("divergences")->getInt(), 0);
  const json::Value *PerPreset = S.find("per_preset");
  ASSERT_NE(PerPreset, nullptr);
  EXPECT_EQ(PerPreset->members().size(), 1u);
  for (const auto &KV : PerPreset->members())
    EXPECT_EQ(KV.second.find("requests")->getInt(), 2);
}

TEST(PlanManager, SharedDiskTierSkipsRebuildInSecondManager) {
  DirGuard Dir(freshDir("mgr-share"));
  cache::DiskStoreOptions DO;
  DO.Dir = Dir.Dir;
  cache::DiskStore Disk(DO);
  ASSERT_TRUE(Disk.ok());

  plan::PlanManagerOptions PO;
  PO.Mode = plan::PlanMode::On;
  PO.Disk = &Disk;
  {
    plan::PlanManager First(PO);
    plan::PlanCallStats PS;
    First.getOrBuild("licm", passes::BugConfig::fixed(), &PS);
    EXPECT_EQ(PS.Builds, 1u);
  }
  plan::PlanManager Second(PO); // fresh memory, same tier
  plan::PlanCallStats PS;
  auto P = Second.getOrBuild("licm", passes::BugConfig::fixed(), &PS);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(PS.Builds, 0u) << "the plan came from the shared disk tier";
  EXPECT_EQ(PS.Hits, 1u);
}

//===----------------------------------------------------------------------===//
// PlanServer — the stats document contract
//===----------------------------------------------------------------------===//

TEST(PlanServerStats, ServiceDocumentCarriesPlanSectionAndNoBatching) {
  server::ServiceOptions O;
  O.Jobs = 2;
  O.Driver.WriteFiles = false;
  O.Plan = plan::PlanMode::Shadow;
  server::ValidationService S(O);
  server::LoopbackTransport T(S);

  for (uint64_t Seed : {61, 62, 63}) {
    server::Request R;
    R.Kind = server::RequestKind::Validate;
    R.Id = static_cast<int64_t>(Seed);
    R.HasSeed = true;
    R.Seed = Seed;
    server::Response Resp = T.call(R);
    ASSERT_EQ(Resp.Status, server::ResponseStatus::Ok) << Resp.Reason;
  }

  server::Request StatsReq;
  StatsReq.Kind = server::RequestKind::Stats;
  server::Response R = T.call(StatsReq);
  ASSERT_EQ(R.Status, server::ResponseStatus::Ok);

  // The plan section: mode strings plus cluster-summable flat ints.
  const json::Value *Plan = R.Stats.find("plan");
  ASSERT_NE(Plan, nullptr);
  EXPECT_EQ(Plan->find("mode")->getString(), "shadow");
  EXPECT_EQ(Plan->find("effective_mode")->getString(), "shadow");
  EXPECT_GT(statInt(R.Stats, "plan", "shadow_checks"), 0);
  EXPECT_EQ(statInt(R.Stats, "plan", "divergences"), 0);
  EXPECT_GT(statInt(R.Stats, "plan", "builds"), 0);
  ASSERT_NE(Plan->find("per_preset"), nullptr);

  // Every request runs as its own pool task: nothing batch-shaped is left
  // in the document.
  EXPECT_EQ(R.Stats.find("batching"), nullptr);
  EXPECT_EQ(R.Stats.find("batch_size"), nullptr);
  EXPECT_EQ(R.Stats.find("server")->find("batch_max"), nullptr);

  // Verdicts under shadow plans are the general checker's: the document
  // must show zero divergences after real traffic.
  EXPECT_EQ(S.counters().InternalErrors, 0u);
}

} // namespace

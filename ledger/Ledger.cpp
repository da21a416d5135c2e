//===- ledger/Ledger.cpp - crellvm-ledger entry point -----------*- C++ -*-===//
//
// Usage:
//   crellvm-ledger --workload batch_cold|daemon_closed|cluster_warm
//                  --seed N --seconds S --trace 0|1
//                  [--tables DIR] [--work DIR] [--smoke]
//   crellvm-ledger --write-tables DIR
//
// The last line of standard output is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it state sample counts, error_rate and
// wrong_verdicts in words. Exit status: 0 when the run completed (even
// with wrong verdicts, which `correct` reports), 2 on bad usage or a
// setup failure.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "campaign/Campaign.h"
#include "passes/Pipeline.h"
#include "support/RNG.h"
#include "support/Resource.h"
#include "workload/RandomProgram.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace crellvm;
using namespace crellvm::ledger;

double ledger::processCpuSeconds() {
  rusage RU;
  if (::getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(RU.ru_utime) + Sec(RU.ru_stime);
}

double ledger::exactQuantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Pos = Q * double(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * (Pos - double(Lo));
}

double ledger::median(std::vector<double> Samples) {
  return exactQuantile(std::move(Samples), 0.5);
}

std::vector<uint64_t> ledger::seededPermutation(uint64_t N, uint64_t Seed) {
  std::vector<uint64_t> P(N);
  for (uint64_t I = 0; I != N; ++I)
    P[I] = I;
  RNG R(Seed);
  for (uint64_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

// --- Known answers ------------------------------------------------------------

uint64_t UnitRef::seed() const {
  return campaign::unitSeed(Pool->campaign(), Index);
}

ir::Module ledger::generateUnit(const UnitRef &U) {
  // Exactly what the service generates for a seed-named request.
  workload::GenOptions G;
  G.Seed = U.seed();
  return workload::generateModule(G);
}

std::string KnownAnswers::fileName() const {
  return "c" + std::to_string(Campaign) + "-" + Preset + ".txt";
}

namespace {

std::string verdictText(const server::PassVerdicts &V) {
  return std::to_string(V.V) + "/" + std::to_string(V.F) + "/" +
         std::to_string(V.NS) + "/" + std::to_string(V.Diff);
}

bool parseVerdict(const std::string &Tok, server::PassVerdicts &Out) {
  unsigned long long V, F, NS, D;
  char Tail;
  if (std::sscanf(Tok.c_str(), "%llu/%llu/%llu/%llu%c", &V, &F, &NS, &D,
                  &Tail) != 4)
    return false;
  Out.V = V;
  Out.F = F;
  Out.NS = NS;
  Out.Diff = D;
  return true;
}

/// Passes a preset's planted bugs may make fail (anything else failing,
/// or any llvm-diff mismatch outside them, is a wrong verdict).
std::set<std::string> passesAllowedToFail(const std::string &Preset) {
  if (Preset == "371")
    return {"mem2reg", "gvn"};
  if (Preset == "pr28562")
    return {"gvn"};
  return {};
}

} // namespace

// Table format: '#' comments; `passes <name>...`; one `p<K> <V/F/NS/diff
// per pass>` line per distinct verdict pattern; then `u <K>...` lines that
// give each unit's pattern in unit-index order.
bool KnownAnswers::load(const std::string &Dir, std::string *Err) {
  std::string Path = Dir + "/" + fileName();
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read " + Path;
    return false;
  }
  std::vector<std::string> PassNames;
  std::vector<Verdicts> Patterns;
  Rows.clear();
  auto Fail = [&](const std::string &Why) {
    *Err = Path + ": " + Why;
    return false;
  };
  for (std::string Line; std::getline(In, Line);) {
    std::istringstream SS(Line);
    std::string Key;
    if (!(SS >> Key) || Key[0] == '#')
      continue;
    std::vector<std::string> Toks;
    for (std::string T; SS >> T;)
      Toks.push_back(T);
    if (Key == "passes") {
      PassNames = Toks;
    } else if (Key[0] == 'p' && Key == "p" + std::to_string(Patterns.size())) {
      if (Toks.size() != PassNames.size())
        return Fail("pattern " + Key + " has the wrong pass count");
      Verdicts Row;
      for (size_t I = 0; I != Toks.size(); ++I)
        if (!parseVerdict(Toks[I], Row[PassNames[I]]))
          return Fail("bad verdict '" + Toks[I] + "'");
      Patterns.push_back(std::move(Row));
    } else if (Key == "u") {
      for (const std::string &T : Toks) {
        size_t K = std::strtoul(T.c_str(), nullptr, 10);
        if (K >= Patterns.size())
          return Fail("unknown pattern " + T);
        Rows.push_back(Patterns[K]);
      }
    } else {
      return Fail("unexpected line '" + Line + "'");
    }
  }
  if (Rows.size() != Units)
    return Fail("expected " + std::to_string(Units) + " units, found " +
                std::to_string(Rows.size()));
  return true;
}

bool KnownAnswers::write(const std::string &Dir, std::string *Err) const {
  auto Bugs = passes::BugConfig::byName(Preset);
  std::vector<Verdicts> Got(Units);
  std::vector<std::string> Bad;
  std::mutex BadM;
  driver::DriverOptions DOpts;
  DOpts.WriteFiles = false;
  driver::BatchOptions BOpts;
  BOpts.Jobs = 4;
  BOpts.OnUnitDone = [&](size_t I, const driver::StatsMap &Unit,
                         driver::UnitOutcome O, const std::string &Detail) {
    if (O != driver::UnitOutcome::Ok) {
      std::lock_guard<std::mutex> L(BadM);
      Bad.push_back("unit " + std::to_string(I) + ": " + Detail);
      return;
    }
    Got[I] = server::passVerdictsOf(Unit);
  };
  driver::runBatchValidated(
      *Bugs, DOpts, Units,
      [this](size_t I) { return generateUnit(UnitRef{this, I}); }, BOpts);
  if (!Bad.empty()) {
    *Err = fileName() + ": " + Bad.front();
    return false;
  }

  std::map<std::string, size_t> PatternOf; // row text -> pattern number
  std::vector<std::string> Patterns;
  std::vector<size_t> UnitPattern;
  for (const Verdicts &Row : Got) {
    std::string Text;
    for (const auto &KV : Row)
      Text.append(" ").append(verdictText(KV.second));
    auto [It, New] = PatternOf.try_emplace(Text, Patterns.size());
    if (New)
      Patterns.push_back(Text);
    UnitPattern.push_back(It->second);
  }
  std::string Path = Dir + "/" + fileName();
  std::ofstream Out(Path, std::ios::trunc);
  Out << "# crellvm-ledger known answers: campaign " << Campaign
      << ", preset " << Preset << ", units 0.." << Units - 1 << ".\n"
      << "# Unit I is seed campaign::unitSeed(" << Campaign
      << ", I). A pattern gives V/F/NS/diff per pass; the u lines give\n"
      << "# each unit's pattern in unit order, 32 to a line.\n"
      << "# Regenerate with: crellvm-ledger --write-tables <dir>\n"
      << "passes";
  for (const auto &KV : Got.front())
    Out << " " << KV.first;
  Out << "\n";
  for (size_t K = 0; K != Patterns.size(); ++K)
    Out << "p" << K << Patterns[K] << "\n";
  for (size_t I = 0; I != UnitPattern.size(); ++I)
    Out << (I % 32 ? " " : "u ") << UnitPattern[I]
        << (I % 32 == 31 || I + 1 == UnitPattern.size() ? "\n" : "");
  if (!Out) {
    *Err = "cannot write " + Path;
    return false;
  }
  return true;
}

std::string ledger::wrongVerdict(const UnitRef &U, const Verdicts &Got) {
  std::string Name = "unit " + std::to_string(U.Index) + " (campaign " +
                     std::to_string(U.Pool->campaign()) + ", " + U.preset() +
                     ")";
  const Verdicts &Want = U.Pool->at(U.Index);
  if (Got.size() != Want.size())
    return Name + ": reported " + std::to_string(Got.size()) +
           " passes, expected " + std::to_string(Want.size());
  std::set<std::string> MayFail = passesAllowedToFail(U.preset());
  uint64_t TotalF = 0;
  for (const auto &[Pass, V] : Got) {
    auto It = Want.find(Pass);
    if (It == Want.end())
      return Name + ": unexpected pass " + Pass;
    server::PassVerdicts W = It->second;
    if (V.V != W.V || V.F != W.F || V.NS != W.NS || V.Diff != W.Diff)
      return Name + ": " + Pass + " " + verdictText(V) + ", expected " +
             verdictText(W);
    if ((V.F || V.Diff) && !MayFail.count(Pass))
      return Name + ": " + Pass + " fails (" + verdictText(V) +
             ") but preset " + U.preset() + " plants no bug there";
    TotalF += V.F;
  }
  bool Reproducer = U.Pool->campaign() == 1 && U.preset() == "371" &&
                    (U.Index == 0 || U.Index == 45);
  if (Reproducer && TotalF == 0)
    return Name + ": recorded bug-hunt reproducer validated clean";
  return "";
}

// --- Windows, spans and metrics -----------------------------------------------

void WindowStats::notOk(const std::string &Why) {
  ++NotOk;
  if (Problems.size() < 8)
    Problems.push_back("not ok: " + Why);
}

void WindowStats::wrong(const std::string &Why) {
  ++Wrong;
  if (Problems.size() < 8)
    Problems.push_back("wrong verdict: " + Why);
}

void PhaseTotals::add(const PhaseTotals &O) {
  for (const auto &[Name, R] : O.Passes) {
    PassRow &Mine = Passes[Name];
    Mine.SpanMs += R.SpanMs;
    Mine.OrigMs += R.OrigMs;
    Mine.PCalMs += R.PCalMs;
    Mine.IOMs += R.IOMs;
    Mine.PCheckMs += R.PCheckMs;
    Mine.CacheMs += R.CacheMs;
  }
  GenerateMs += O.GenerateMs;
  Units += O.Units;
}

Verdicts ledger::runUnitTraced(const UnitRef &U,
                               const driver::DriverOptions &Opts,
                               PhaseTotals &Phases) {
  // Mirrors runBatchValidated's unit body plus runPipelineValidated, with a
  // span around the generator and around every runPassValidated call.
  passes::BugConfig Bugs = *passes::BugConfig::byName(U.preset());
  driver::ValidationDriver D(Bugs, Opts);
  Clock::time_point GenStart = Clock::now();
  ir::Module M = generateUnit(U);
  Phases.GenerateMs += msBetween(GenStart, Clock::now());

  driver::StatsMap UnitStats;
  ir::Module Cur = M;
  std::string CurText;
  for (auto &P : passes::makeO2Pipeline(Bugs)) {
    driver::StatsMap One;
    Clock::time_point PassStart = Clock::now();
    Cur = D.runPassValidated(*P, Cur, One, &CurText);
    double SpanMs = msBetween(PassStart, Clock::now());
    const driver::PassStats &S = One[P->name()];
    PhaseTotals::PassRow &Row = Phases.Passes[P->name()];
    Row.SpanMs += SpanMs;
    Row.OrigMs += S.Orig * 1e3;
    Row.PCalMs += S.PCal * 1e3;
    Row.IOMs += S.IO * 1e3;
    Row.PCheckMs += S.PCheck * 1e3;
    Row.CacheMs += S.CacheSec * 1e3;
    UnitStats[P->name()].add(S);
  }
  ++Phases.Units;
  return server::passVerdictsOf(UnitStats);
}

void ledger::addPhaseMetrics(Metrics &Out, const PhaseTotals &P) {
  double N = P.Units ? double(P.Units) : 1;
  auto Put = [&](const std::string &Name, double V) {
    Out.push_back({Name, {V / N, "ms"}});
  };
  static const char *const PassOrder[] = {"mem2reg", "gvn", "licm",
                                          "instcombine"};
  auto PerPass = [&](const std::string &Name,
                     double PhaseTotals::PassRow::*Field) {
    double Sum = 0;
    for (const auto &KV : P.Passes)
      Sum += KV.second.*Field;
    Put(Name, Sum);
    for (const char *Pass : PassOrder) {
      auto It = P.Passes.find(Pass);
      Put(Name + "." + Pass, It == P.Passes.end() ? 0 : It->second.*Field);
    }
  };
  Put("workload.generate_ms", P.GenerateMs);
  PerPass("passes.orig_ms", &PhaseTotals::PassRow::OrigMs);
  PerPass("passes.pcal_ms", &PhaseTotals::PassRow::PCalMs);
  PerPass("checker.validate_ms", &PhaseTotals::PassRow::PCheckMs);
  double CacheMs = 0, SelfMs = 0;
  for (const auto &KV : P.Passes) {
    const PhaseTotals::PassRow &R = KV.second;
    CacheMs += R.CacheMs;
    SelfMs += R.SpanMs - R.OrigMs - R.PCalMs - R.IOMs - R.PCheckMs - R.CacheMs;
  }
  Put("cache.lookup_ms", CacheMs);
  Put("driver.self_ms", SelfMs);
}

void ledger::addEndToEndMetrics(Metrics &Out, const WindowStats &W,
                                double SetupS) {
  double Units = W.Completed ? double(W.Completed) : 1;
  Out.push_back({"units_per_s", {W.unitsPerS(), "1/s"}});
  Out.push_back({"latency_p50_ms", {exactQuantile(W.LatencyMs, 0.50), "ms"}});
  Out.push_back({"latency_p99_ms", {exactQuantile(W.LatencyMs, 0.99), "ms"}});
  Out.push_back({"cpu_ms_per_unit", {W.CpuS * 1e3 / Units, "ms"}});
  Out.push_back(
      {"peak_rss_mb", {double(support::peakRssBytes()) / (1 << 20), "MB"}});
  Out.push_back({"setup_s", {SetupS, "s"}});
}

// --- Pools --------------------------------------------------------------------

namespace {
Pools ThePools;
}

const Pools &ledger::pools() { return ThePools; }

bool ledger::loadPools(const std::string &Dir, std::string *Err) {
  return ThePools.Batch371.load(Dir, Err) && ThePools.Fixed.load(Dir, Err) &&
         ThePools.Historical.load(Dir, Err);
}

bool ledger::writePools(const std::string &Dir, std::string *Err) {
  return ThePools.Batch371.write(Dir, Err) && ThePools.Fixed.write(Dir, Err) &&
         ThePools.Historical.write(Dir, Err);
}

// --- main ---------------------------------------------------------------------

namespace {

int usage(const std::string &Why) {
  std::cerr << "crellvm-ledger: " << Why << "\n"
            << "usage: crellvm-ledger --workload "
               "batch_cold|daemon_closed|cluster_warm --seed N --seconds S "
               "--trace 0|1 [--tables DIR] [--work DIR] [--smoke]\n"
            << "       crellvm-ledger --write-tables DIR\n";
  return 2;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// {steal, all} CPU clock ticks of this machine since boot, from the
/// aggregate line of /proc/stat; {0, 0} where it cannot be read. Steal is
/// time the hypervisor ran something else on this machine's virtual CPUs.
std::pair<uint64_t, uint64_t> cpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t V = 0, Steal = 0, All = 0;
  In >> Cpu;
  // user nice system idle iowait irq softirq steal
  for (int I = 0; I != 8 && In >> V; ++I) {
    All += V;
    if (I == 7)
      Steal = V;
  }
  return {Steal, All};
}

} // namespace

int main(int Argc, char **Argv) {
  // A peer closing its socket must surface as a write error, not a kill.
  std::signal(SIGPIPE, SIG_IGN);

  RunOptions O;
  O.TableDir = "ledger/verdicts";
  O.WorkDir = ".bench_run/ledger." + std::to_string(::getpid());
  std::string WriteTables;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (!(V = Next()))
      return usage("missing value for " + A);
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = O.Trace || std::strcmp(V, "0") == 0;
    } else if (A == "--tables") {
      O.TableDir = V;
    } else if (A == "--work") {
      O.WorkDir = V;
    } else if (A == "--write-tables") {
      WriteTables = V;
    } else {
      return usage("unknown argument " + A);
    }
    if (End && *End)
      return usage("bad number for " + A + ": " + V);
  }

  std::string Err;
  if (!WriteTables.empty()) {
    if (!writePools(WriteTables, &Err)) {
      std::cerr << "crellvm-ledger: " << Err << "\n";
      return 2;
    }
    return 0;
  }
  if (!HaveTrace)
    return usage("--trace must be 0 or 1");
  if (!(O.Seconds > 0 && O.Seconds <= 120))
    return usage("--seconds must be in (0, 120]");
  WorkloadResult (*Run)(const RunOptions &) = nullptr;
  if (O.Workload == "batch_cold")
    Run = runBatchCold;
  else if (O.Workload == "daemon_closed")
    Run = runDaemonClosed;
  else if (O.Workload == "cluster_warm")
    Run = runClusterWarm;
  else
    return usage("unknown workload '" + O.Workload + "'");
  if (!loadPools(O.TableDir, &Err)) {
    std::cerr << "crellvm-ledger: " << Err << "\n";
    return 2;
  }

  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC) {
    std::cerr << "crellvm-ledger: cannot create " << O.WorkDir << "\n";
    return 2;
  }
  WorkloadResult R;
  std::pair<uint64_t, uint64_t> Ticks0 = cpuTicks();
  try {
    R = Run(O);
  } catch (const std::exception &E) {
    std::filesystem::remove_all(O.WorkDir, EC);
    std::cerr << "crellvm-ledger: " << E.what() << "\n";
    return 2;
  }
  std::filesystem::remove_all(O.WorkDir, EC);

  const WindowStats &W = R.Window;
  for (const std::string &P : W.Problems)
    std::cerr << "crellvm-ledger: " << P << "\n";
  for (const std::string &L : R.Lines)
    std::cout << L << "\n";
  // Steal is what moves every timing of a run together; printed so that
  // an outlying run can be told from a regression.
  std::pair<uint64_t, uint64_t> Ticks1 = cpuTicks();
  if (Ticks1.second > Ticks0.second)
    std::cout << "host steal: "
              << 100.0 * double(Ticks1.first - Ticks0.first) /
                     double(Ticks1.second - Ticks0.second)
              << "% of all CPU time during the run\n";
  std::cout << "error_rate=" << jsonNumber(W.Attempted ? double(W.NotOk) /
                                                             W.Attempted
                                                       : 0)
            << " (" << W.NotOk << "/" << W.Attempted
            << ") wrong_verdicts=" << W.Wrong << "\n";

  std::ostringstream J;
  J << "{\"correct\": " << (W.Wrong == 0 && W.Completed > 0 ? "true" : "false")
    << ", \"attempted\": " << W.Attempted << ", \"failed\": " << W.NotOk
    << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : R.Out) {
    J << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
      << jsonNumber(VU.first) << ", \"unit\": \"" << VU.second << "\"}";
    First = false;
  }
  J << "}}";
  std::cout << J.str() << std::endl;
  return 0;
}

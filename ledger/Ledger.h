//===- ledger/Ledger.h - The repository benchmark ---------------*- C++ -*-===//
///
/// \file
/// Shared pieces of crellvm-ledger, the benchmark every performance,
/// simplicity and robustness change is measured against. It drives the
/// real entry points — driver::runBatchValidated, server::ValidationService
/// behind server::SocketServer, cluster::ClusterRouter over three members —
/// with seeded units whose verdicts are known in advance (verdicts/*.txt),
/// and reports end-to-end metrics (untraced) or per-layer metrics (traced).
///
/// Tracing lives only here: spans are taken around calls into each layer's
/// public functions (ValidationDriver::runPassValidated, RequestHandler
/// pass-through wrappers), never inside src/.
///
//===----------------------------------------------------------------------===//
#ifndef CRELLVM_LEDGER_LEDGER_H
#define CRELLVM_LEDGER_LEDGER_H

#include "driver/Driver.h"
#include "server/Protocol.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace crellvm {
namespace ledger {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline Clock::time_point secondsAfter(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

/// Process user+sys CPU seconds (all threads, in-process servers included).
double processCpuSeconds();

/// Exact quantile of raw samples (linear interpolation between order
/// statistics); 0 for no samples.
double exactQuantile(std::vector<double> Samples, double Q);

/// Median of a handful of repeated measurements.
double median(std::vector<double> Samples);

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool Smoke = false;
  std::string TableDir;
  /// Scratch directory for sockets and the disk cache tier (removed at
  /// exit); relative paths keep socket names short.
  std::string WorkDir;
};

/// Per-pass verdict counts of one unit, keyed by pass name.
using Verdicts = std::map<std::string, server::PassVerdicts>;

/// The known answers of one unit pool: units `unitSeed(Campaign, I)` for
/// I in [0, size()) under one bug preset, as recorded in
/// verdicts/c<Campaign>-<Preset>.txt by `crellvm-ledger --write-tables`.
class KnownAnswers {
public:
  KnownAnswers(uint64_t Campaign, std::string Preset, size_t Units)
      : Campaign(Campaign), Preset(std::move(Preset)), Units(Units) {}

  uint64_t campaign() const { return Campaign; }
  const std::string &preset() const { return Preset; }
  size_t size() const { return Units; }
  std::string fileName() const;

  bool load(const std::string &Dir, std::string *Err);
  const Verdicts &at(size_t Index) const { return Rows[Index]; }

  /// Validates the whole pool and writes its table into \p Dir.
  bool write(const std::string &Dir, std::string *Err) const;

private:
  uint64_t Campaign;
  std::string Preset;
  size_t Units;
  std::vector<Verdicts> Rows;
};

/// One seeded unit of a workload.
struct UnitRef {
  const KnownAnswers *Pool = nullptr;
  uint64_t Index = 0;
  /// Sent as printed `module` text instead of a seed (served workloads).
  bool AsModule = false;
  /// cluster_warm: a fresh unit (first sight for the cache) rather than a
  /// member of the warmed hot set.
  bool Fresh = false;

  uint64_t seed() const;
  const std::string &preset() const { return Pool->preset(); }
};

/// The generated module of \p U (what a seed-named request validates).
ir::Module generateUnit(const UnitRef &U);

/// Why \p Got is a wrong verdict for \p U, or empty when it is right:
/// it must equal the recorded answer, a `fixed` unit may never fail or
/// diff, a buggy preset may fail only in the passes its bugs plant, and
/// the two recorded campaign-1 bug-hunt reproducers must fail under 371.
std::string wrongVerdict(const UnitRef &U, const Verdicts &Got);

/// Counts and samples of one measured window, turned into metrics.
struct WindowStats {
  uint64_t Attempted = 0;
  uint64_t NotOk = 0; ///< rejected, deadline, internal_error, error, lost
  uint64_t Wrong = 0;
  uint64_t Completed = 0;
  std::vector<double> LatencyMs;
  double WallS = 0;
  double CpuS = 0;
  std::vector<std::string> Problems; ///< first few failures, for stderr

  void notOk(const std::string &Why);
  void wrong(const std::string &Why);
  double unitsPerS() const { return WallS > 0 ? Completed / WallS : 0; }
};

/// Thread-safe sum/count accumulator for one span or quantity.
class Accum {
public:
  void add(double V) {
    std::lock_guard<std::mutex> L(M);
    Sum += V;
    ++N;
  }
  double mean() const {
    std::lock_guard<std::mutex> L(M);
    return N ? Sum / double(N) : 0;
  }
  void reset() {
    std::lock_guard<std::mutex> L(M);
    Sum = 0;
    N = 0;
  }

private:
  mutable std::mutex M;
  double Sum = 0;
  uint64_t N = 0;
};

/// Driver-level phase totals from spanned runPassValidated calls: the
/// pass span and the PassStats columns the same call returned.
struct PhaseTotals {
  struct PassRow {
    double SpanMs = 0, OrigMs = 0, PCalMs = 0, IOMs = 0, PCheckMs = 0,
           CacheMs = 0;
  };
  std::map<std::string, PassRow> Passes;
  double GenerateMs = 0;
  uint64_t Units = 0;

  void add(const PhaseTotals &O);
};

/// Validates \p U through spanned ValidationDriver::runPassValidated calls
/// (the exact sequence runPipelineValidated makes), recording spans into
/// \p Phases and returning the unit's verdicts.
Verdicts runUnitTraced(const UnitRef &U, const driver::DriverOptions &Opts,
                       PhaseTotals &Phases);

/// An ordered metric list: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Adds the per-unit driver phase metrics (generate/passes/checker/cache
/// lookup/driver self) from \p P.
void addPhaseMetrics(Metrics &Out, const PhaseTotals &P);

/// Adds the shared end-to-end metrics of one untraced window: the rate
/// over the whole window, and percentiles exact over all of its samples.
/// Pooling the window averages over the slow and quiet stretches of a
/// shared machine, where a median of a few sub-windows picks one of them.
void addEndToEndMetrics(Metrics &Out, const WindowStats &W, double SetupS);

/// What one workload run reports.
struct WorkloadResult {
  WindowStats Window; ///< the window whose correctness is reported
  Metrics Out;
  std::vector<std::string> Lines; ///< human-readable summary lines
};

WorkloadResult runBatchCold(const RunOptions &O);
WorkloadResult runDaemonClosed(const RunOptions &O);
WorkloadResult runClusterWarm(const RunOptions &O);

/// The known-answer pools, loaded once by main().
struct Pools {
  KnownAnswers Batch371{1, "371", 1024};
  KnownAnswers Fixed{2, "fixed", 4096};
  KnownAnswers Historical{2, "pr28562", 512};
};
const Pools &pools();
bool loadPools(const std::string &Dir, std::string *Err);
bool writePools(const std::string &Dir, std::string *Err);

/// A seeded permutation of [0, N).
std::vector<uint64_t> seededPermutation(uint64_t N, uint64_t Seed);

} // namespace ledger
} // namespace crellvm

#endif // CRELLVM_LEDGER_LEDGER_H

//===- server/ServedMain.cpp - The crellvm-served daemon --------*- C++ -*-===//
//
// Long-running validation daemon: one warm ValidationCache and one
// ThreadPool serving validation requests over a Unix-domain socket with
// the length-prefixed JSON protocol (server/Protocol.h). SIGTERM/SIGINT
// drain gracefully: in-flight and queued requests finish, new ones are
// rejected, the cache flushes, then the process exits 0.
//
//   crellvm-served --socket PATH [--jobs N] [--queue-max N]
//                  [--files] [--oracle]
//                  [--cache=off|ro|rw] [--cache-dir DIR] [--cache-shared]
//                  [--cache-max-mb N] [--unit-timeout-ms N]
//                  [--quarantine-after N] [--member-id ID] [--chaos SPEC]
//                  [--plan=off|shadow|on] [--version] [--help]
//
//===----------------------------------------------------------------------===//

#include "checker/Version.h"
#include "server/Service.h"
#include "server/SocketServer.h"
#include "support/FaultInjection.h"

#include <csignal>
#include <cstring>
#include <iostream>

#include <unistd.h>

using namespace crellvm;

namespace {

struct CliOptions {
  std::string Socket;
  server::ServiceOptions Service;
  cache::CachePolicy CachePolicy = cache::CachePolicy::Off;
  std::string CacheDir = ".crellvm-cache";
  uint64_t CacheMaxMb = 256;
  std::string Chaos; ///< --chaos SPEC; also CRELLVM_CHAOS env
};

void printUsage(std::ostream &OS, const char *Argv0) {
  OS << "usage: " << Argv0 << " --socket PATH [options]\n"
     << "\n"
     << "Persistent validation service: accepts validation requests over a\n"
     << "Unix-domain socket (length-prefixed JSON frames), runs each one\n"
     << "as its own task on a shared thread pool, and keeps one validation\n"
     << "cache warm across all requests. SIGTERM drains gracefully: every\n"
     << "accepted request still gets its verdict, new ones are rejected.\n"
     << "\n"
     << "options:\n"
     << "  --socket PATH     Unix-domain socket to listen on (required)\n"
     << "  --jobs N          pool worker threads (default: all hardware)\n"
     << "  --queue-max N     admission queue bound; beyond it requests are\n"
     << "                    rejected with retry_after_ms (default 256)\n"
     << "  --files           exchange src/tgt/proof through files (I/O col)\n"
     << "  --oracle          differentially execute accepted translations\n"
     << "  --cache=MODE      validation cache: off (default) | ro | rw\n"
     << "  --cache-dir DIR   cache directory (default .crellvm-cache)\n"
     << "  --cache-shared    open the disk tier in shared multi-writer\n"
     << "                    mode: several cluster members publish into\n"
     << "                    one --cache-dir (writer lease rotates;\n"
     << "                    reads never block)\n"
     << "  --cache-max-mb N  on-disk cache bound in MiB (default 256)\n"
     << "  --unit-timeout-ms N  per-unit watchdog; a unit still running\n"
     << "                    past it is answered internal_error while its\n"
     << "                    worker finishes (default: off)\n"
     << "  --quarantine-after N  reject a unit after N consecutive\n"
     << "                    internal_error runs (default 2; 0 = never)\n"
     << "  --plan=MODE       per-preset checker plans: off (default) |\n"
     << "                    shadow (double-check specialized verdicts\n"
     << "                    against the general checker; a divergence\n"
     << "                    demotes plans to off) | on. Verdicts are\n"
     << "                    identical in every mode; plans persist and\n"
     << "                    are shared through the cache disk tier\n"
     << "  --member-id ID    identity stamped into the stats document\n"
     << "                    (cluster members; default pid:<pid>)\n"
     << "  --chaos SPEC      arm deterministic fault injection, e.g.\n"
     << "                    'seed=42;disk.write:every=7;sock.short:every=3'\n"
     << "                    (also read from $CRELLVM_CHAOS; flag wins)\n"
     << "  --version         print version and exit\n"
     << "  --help, -h        print this help and exit\n";
}

bool WantHelp = false;
bool WantVersion = false;
std::string BadArg;

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    BadArg = A;
    auto NextNum = [&](uint64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 10);
      return true;
    };
    uint64_t N = 0;
    if (A == "--help" || A == "-h") {
      WantHelp = true;
      return true;
    } else if (A == "--version") {
      WantVersion = true;
      return true;
    } else if (A == "--socket" && I + 1 < Argc)
      O.Socket = Argv[++I];
    else if (A == "--jobs" && NextNum(N))
      O.Service.Jobs = static_cast<unsigned>(N);
    else if (A == "--queue-max" && NextNum(N))
      O.Service.QueueMax = static_cast<size_t>(N);
    else if (A == "--files")
      O.Service.Driver.WriteFiles = true;
    else if (A == "--oracle")
      O.Service.Driver.RunOracle = true;
    else if (A.rfind("--cache=", 0) == 0) {
      auto P = cache::parseCachePolicy(A.substr(std::strlen("--cache=")));
      if (!P)
        return false;
      O.CachePolicy = *P;
    } else if (A == "--cache" && I + 1 < Argc) {
      auto P = cache::parseCachePolicy(Argv[++I]);
      if (!P)
        return false;
      O.CachePolicy = *P;
    } else if (A == "--cache-dir" && I + 1 < Argc)
      O.CacheDir = Argv[++I];
    else if (A == "--cache-shared")
      O.Service.Cache.SharedDisk = true;
    else if (A == "--member-id" && I + 1 < Argc)
      O.Service.MemberId = Argv[++I];
    else if (A == "--cache-max-mb" && NextNum(N))
      O.CacheMaxMb = N;
    else if (A == "--unit-timeout-ms" && NextNum(N))
      O.Service.UnitTimeoutMs = N;
    else if (A == "--quarantine-after" && NextNum(N))
      O.Service.QuarantineAfter = N;
    else if (A == "--chaos" && I + 1 < Argc)
      O.Chaos = Argv[++I];
    else if (A.rfind("--plan=", 0) == 0) {
      auto P = plan::parsePlanMode(A.substr(std::strlen("--plan=")));
      if (!P)
        return false;
      O.Service.Plan = *P;
    } else if (A == "--plan" && I + 1 < Argc) {
      auto P = plan::parsePlanMode(Argv[++I]);
      if (!P)
        return false;
      O.Service.Plan = *P;
    } else
      return false;
  }
  return true;
}

/// The self-pipe fd the signal handler writes to. Signal handlers may
/// only touch async-signal-safe calls, hence write(2) on a pre-stored fd.
volatile int SignalStopFd = -1;

void onTerminate(int) {
  int Fd = SignalStopFd;
  if (Fd >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t W = ::write(Fd, &B, 1);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  Cli.Service.Driver.WriteFiles = false;
  if (!parseArgs(Argc, Argv, Cli)) {
    std::cerr << "error: unknown or malformed option '" << BadArg << "'\n\n";
    printUsage(std::cerr, Argv[0]);
    return 2;
  }
  if (WantHelp) {
    printUsage(std::cout, Argv[0]);
    return 0;
  }
  if (WantVersion) {
    std::cout << checker::versionLine("crellvm-served") << "\n";
    return 0;
  }
  if (Cli.Socket.empty()) {
    std::cerr << "error: --socket PATH is required\n\n";
    printUsage(std::cerr, Argv[0]);
    return 2;
  }

  std::string ChaosErr;
  bool ChaosOk = Cli.Chaos.empty() ? fault::configureFromEnv(&ChaosErr)
                                   : fault::configure(Cli.Chaos, &ChaosErr);
  if (!ChaosOk) {
    std::cerr << "error: " << ChaosErr << "\n";
    return 2;
  }
  if (fault::armed())
    std::cerr << "chaos: armed with '" << fault::activeSpec() << "'\n";

  Cli.Service.Cache.Policy = Cli.CachePolicy;
  Cli.Service.Cache.Dir = Cli.CacheDir;
  Cli.Service.Cache.MaxDiskBytes = Cli.CacheMaxMb << 20;

  server::ValidationService Service(Cli.Service);
  server::SocketServer Server(Service, {Cli.Socket, /*Backlog=*/64});
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "error: " << Err << "\n";
    return 1;
  }

  SignalStopFd = Server.stopFdForSignals();
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTerminate;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN); // a vanished client must not kill the daemon

  // The readiness line CI and scripts wait for.
  std::cout << "crellvm-served listening on " << Cli.Socket << " (jobs="
            << Service.jobs() << ")" << std::endl;

  Server.run(); // returns after the graceful drain

  server::ServiceCounters C = Service.counters();
  std::cout << "crellvm-served drained: accepted=" << C.Accepted
            << " completed=" << C.Completed << " deadline_exceeded="
            << C.DeadlineExpired << " internal_errors=" << C.InternalErrors
            << " rejected="
            << (C.RejectedQueueFull + C.RejectedShutdown +
                C.RejectedQuarantined)
            << std::endl;
  if (fault::armed())
    std::cout << "chaos: injected " << fault::totalInjected()
              << " faults from '" << fault::activeSpec() << "'" << std::endl;
  if (Cli.Service.Plan != plan::PlanMode::Off) {
    plan::PlanManager &Plans = Service.plans();
    std::cout << "plan: mode=" << plan::planModeName(Plans.configuredMode())
              << " effective=" << plan::planModeName(Plans.effectiveMode())
              << " divergences=" << Plans.divergences() << std::endl;
  }
  // Every accepted request must be accounted for: a verdict, a deadline
  // expiry, or a structured internal error — never silence.
  return C.Accepted == C.Completed + C.DeadlineExpired + C.InternalErrors
             ? 0
             : 1;
}

//===- tests/CliSmokeTest.cpp - CLI contract across every binary --------------===//
//
// The command-line contract every installed binary (crellvm-validate,
// crellvm-audit, crellvm-served, crellvm-client, crellvm-campaign,
// crellvm-cluster — paths injected by tests/CMakeLists.txt as
// $<TARGET_FILE:...>) must honor,
// exercised by actually running the binaries:
//
//   --help / -h    print the usage block on stdout and exit 0;
//   --version      print the shared checker-semantics version line and
//                  exit 0, short-circuiting every other flag — the line
//                  tooling parses to confirm client, daemon, campaign
//                  driver and batch validator agree on verdict semantics;
//   unknown flag   print usage on stderr, NAME the offending flag, and
//                  exit 2 (the scripts-can-distinguish code: 2 is "you
//                  called me wrong", 1 is "I ran and the answer is bad").
//
// The shared rows run table-driven over all six binaries so a seventh
// binary only has to add one row; binary-specific contracts (bad --chaos,
// bad --cache, a dead daemon socket, campaign mode validation, cluster
// member-spec validation) follow.
//
//===----------------------------------------------------------------------===//

#include "checker/Version.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
};

// Runs \p Bin with \p Args, capturing stdout; stderr is routed to stdout
// when \p MergeStderr so usage-on-stderr is observable too.
RunResult runBinary(const std::string &Bin, const std::string &Args,
                    bool MergeStderr = false) {
  std::string Cmd = Bin + " " + Args;
  Cmd += MergeStderr ? " 2>&1" : " 2>/dev/null";
  RunResult R;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Stdout.append(Buf, N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

RunResult runValidator(const std::string &Args, bool MergeStderr = false) {
  return runBinary(CRELLVM_VALIDATE_BIN, Args, MergeStderr);
}

// One row per installed binary; every shared contract test iterates this.
struct BinaryRow {
  const char *Path;
  const char *Name;
};

const BinaryRow AllBinaries[] = {
    {CRELLVM_VALIDATE_BIN, "crellvm-validate"},
    {CRELLVM_AUDIT_BIN, "crellvm-audit"},
    {CRELLVM_SERVED_BIN, "crellvm-served"},
    {CRELLVM_CLIENT_BIN, "crellvm-client"},
    {CRELLVM_CAMPAIGN_BIN, "crellvm-campaign"},
    {CRELLVM_CLUSTER_BIN, "crellvm-cluster"},
};

TEST(CliSmoke, HelpExitsZeroOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "--help");
    EXPECT_EQ(R.ExitCode, 0) << B.Name;
    EXPECT_NE(R.Stdout.find("usage:"), std::string::npos) << B.Name;
    EXPECT_NE(R.Stdout.find("--help"), std::string::npos)
        << B.Name << ": usage must document --help";
    EXPECT_NE(R.Stdout.find("--version"), std::string::npos)
        << B.Name << ": usage must document --version";
  }
}

TEST(CliSmoke, ShortHelpAliasOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "-h");
    EXPECT_EQ(R.ExitCode, 0) << B.Name;
    EXPECT_NE(R.Stdout.find("usage:"), std::string::npos) << B.Name;
  }
}

TEST(CliSmoke, UnknownFlagExitsTwoNamingTheFlagOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "--no-such-flag", /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << B.Name;
    EXPECT_NE(R.Stdout.find("usage:"), std::string::npos) << B.Name;
    EXPECT_NE(R.Stdout.find("--no-such-flag"), std::string::npos)
        << B.Name << ": the offending flag should be named";
  }
}

// Every binary prints "<tool> checker-semantics-version <N> build <type>"
// and exits 0, with <N> the compiled-in CheckerSemanticsVersion.
TEST(CliSmoke, VersionLineOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "--version");
    EXPECT_EQ(R.ExitCode, 0) << B.Name;
    EXPECT_EQ(R.Stdout, crellvm::checker::versionLine(B.Name) + "\n");
    EXPECT_NE(
        R.Stdout.find("checker-semantics-version " +
                      std::to_string(crellvm::checker::CheckerSemanticsVersion)),
        std::string::npos)
        << B.Name;
    EXPECT_NE(R.Stdout.find("plan-schema-version " +
                            std::to_string(crellvm::checker::PlanSchemaVersion)),
              std::string::npos)
        << B.Name << ": the version line must carry the plan schema version";
  }
}

// --version wins even when other flags are present, and without running
// any work (it must return immediately).
TEST(CliSmoke, VersionShortCircuitsOnEveryBinary) {
  const std::pair<const char *, const char *> Rows[] = {
      {CRELLVM_VALIDATE_BIN, "--modules 100000 --version"},
      {CRELLVM_CAMPAIGN_BIN, "--units 100000000 --version"},
  };
  for (const auto &Row : Rows) {
    RunResult R = runBinary(Row.first, Row.second);
    EXPECT_EQ(R.ExitCode, 0) << Row.first;
    EXPECT_NE(R.Stdout.find("checker-semantics-version"), std::string::npos)
        << Row.first;
  }
}

// Every binary accepts --plan=off|shadow|on (checker-plan mode; the
// tools that never validate locally still validate the value for CLI
// symmetry) and refuses anything else with exit 2 naming the flag.
TEST(CliSmoke, BadPlanModeExitsTwoNamingTheFlagOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "--plan=bogus", /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << B.Name;
    EXPECT_NE(R.Stdout.find("--plan=bogus"), std::string::npos)
        << B.Name << ": the offending flag should be named";
  }
}

TEST(CliSmoke, HelpDocumentsPlanOnEveryBinary) {
  for (const BinaryRow &B : AllBinaries) {
    RunResult R = runBinary(B.Path, "--help");
    EXPECT_EQ(R.ExitCode, 0) << B.Name;
    EXPECT_NE(R.Stdout.find("--plan"), std::string::npos)
        << B.Name << ": usage must document --plan";
    EXPECT_NE(R.Stdout.find("shadow"), std::string::npos)
        << B.Name << ": usage must name the shadow mode";
  }
}

// --- Binary-specific contracts ---------------------------------------------

TEST(CliSmoke, BadCachePolicyExitsNonzero) {
  EXPECT_NE(runValidator("--cache=bogus").ExitCode, 0);
  EXPECT_NE(runValidator("--cache", /*MergeStderr=*/true).ExitCode, 0)
      << "--cache without a value must be rejected";
}

// A malformed --chaos schedule is a configuration error on every binary
// that accepts one: hard exit 2 before any work, with the bad site named
// (a typo'd fault schedule silently doing nothing would defeat the test
// it was armed for).
TEST(CliSmoke, BadChaosSpecExitsTwoOnEveryBinary) {
  const std::pair<const char *, const char *> Bins[] = {
      {CRELLVM_VALIDATE_BIN, ""},
      {CRELLVM_AUDIT_BIN, ""},
      {CRELLVM_SERVED_BIN, "--socket /tmp/crellvm-unused.sock"},
  };
  for (const auto &B : Bins) {
    RunResult R = runBinary(
        B.first, std::string(B.second) + " --chaos disk.teleport:every=2",
        /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << B.first;
    EXPECT_NE(R.Stdout.find("disk.teleport"), std::string::npos) << B.first;
  }
}

// The daemon runs every request as its own pool task; the micro-batching
// flags are gone and must be refused, not silently ignored. (The socket
// directory does not exist, so a daemon that accepted the flag would
// fail to bind and exit 1 instead of listening.)
TEST(CliSmoke, ServedRejectsRetiredBatchingFlags) {
  const char *Rows[] = {"--linger-us", "--batch-max"};
  for (const char *Flag : Rows) {
    RunResult R = runBinary(CRELLVM_SERVED_BIN,
                            "--socket /nonexistent-dir/crellvm.sock " +
                                std::string(Flag) + " 200",
                            /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Stdout.find(Flag), std::string::npos)
        << Flag << " should be named";
  }
}

// Connecting to a socket nobody listens on is the most common operator
// error; it must produce the actionable one-liner and exit 2 (bad usage /
// environment), not a raw errno dump and a generic failure.
TEST(CliSmoke, ClientNamesMissingDaemonAndExitsTwo) {
  RunResult R = runBinary(CRELLVM_CLIENT_BIN,
                          "--socket /tmp/crellvm-no-such-daemon.sock --ping",
                          /*MergeStderr=*/true);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stdout.find("daemon not running at "
                          "/tmp/crellvm-no-such-daemon.sock"),
            std::string::npos);
  EXPECT_NE(R.Stdout.find("crellvm-served"), std::string::npos)
      << "the error should say how to start the daemon";
}

// crellvm-campaign usage-level validation: every row must be refused with
// exit 2 and the offending value named, before any unit is generated.
TEST(CliSmoke, CampaignBadUsageExitsTwoNamingTheProblem) {
  const std::pair<const char *, const char *> Rows[] = {
      {"--mode teleport", "--mode teleport"},
      {"--bugs pr99999", "pr99999"},
      {"--mode bug-hunt --hunt pr24179,bogus", "bogus"},
      {"--mode soak --duration-s 5", "--socket"},
      {"--hunt pr24179", "--hunt"}, // --hunt outside bug-hunt mode
      {"--units", "--units"},       // numeric flag without a value
  };
  for (const auto &Row : Rows) {
    RunResult R = runBinary(CRELLVM_CAMPAIGN_BIN, Row.first,
                            /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << "args: " << Row.first;
    EXPECT_NE(R.Stdout.find(Row.second), std::string::npos)
        << "args: " << Row.first << " should name " << Row.second;
  }
}

// crellvm-cluster usage-level validation: a malformed --member spec (no
// '=', empty id, empty socket, duplicate id) and missing required flags
// are refused with exit 2 naming the offending spec.
TEST(CliSmoke, ClusterBadMemberSpecExitsTwoNamingTheSpec) {
  const std::pair<const char *, const char *> Rows[] = {
      {"--socket /tmp/r.sock --member m1-no-equals", "m1-no-equals"},
      {"--socket /tmp/r.sock --member =/tmp/m.sock", "=/tmp/m.sock"},
      {"--socket /tmp/r.sock --member m1=", "m1="},
      {"--socket /tmp/r.sock --member m1=/tmp/a.sock --member m1=/tmp/b.sock",
       "duplicate id 'm1'"},
  };
  for (const auto &Row : Rows) {
    RunResult R = runBinary(CRELLVM_CLUSTER_BIN, Row.first,
                            /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << "args: " << Row.first;
    EXPECT_NE(R.Stdout.find(Row.second), std::string::npos)
        << "args: " << Row.first << " should name " << Row.second;
  }
}

TEST(CliSmoke, ClusterRequiresSocketAndMembers) {
  RunResult NoSocket = runBinary(CRELLVM_CLUSTER_BIN,
                                 "--member m1=/tmp/m1.sock",
                                 /*MergeStderr=*/true);
  EXPECT_EQ(NoSocket.ExitCode, 2);
  EXPECT_NE(NoSocket.Stdout.find("--socket"), std::string::npos);

  RunResult NoMembers = runBinary(CRELLVM_CLUSTER_BIN,
                                  "--socket /tmp/r.sock",
                                  /*MergeStderr=*/true);
  EXPECT_EQ(NoMembers.ExitCode, 2);
  EXPECT_NE(NoMembers.Stdout.find("--member"), std::string::npos);
}

TEST(CliSmoke, ClusterBadSuperviseValueExitsTwoNamingTheFlag) {
  // Strict numeric parse: junk, zero, and absurd fleet sizes all name
  // the offending flag+value instead of silently spawning nothing.
  const std::pair<const char *, const char *> Rows[] = {
      {"--socket /tmp/r.sock --supervise bogus", "--supervise bogus"},
      {"--socket /tmp/r.sock --supervise 0", "--supervise 0"},
      {"--socket /tmp/r.sock --supervise 3x", "--supervise 3x"},
      {"--socket /tmp/r.sock --supervise 1000", "--supervise 1000"},
  };
  for (const auto &Row : Rows) {
    RunResult R = runBinary(CRELLVM_CLUSTER_BIN, Row.first,
                            /*MergeStderr=*/true);
    EXPECT_EQ(R.ExitCode, 2) << "args: " << Row.first;
    EXPECT_NE(R.Stdout.find(Row.second), std::string::npos)
        << "args: " << Row.first << " should name " << Row.second;
  }
}

TEST(CliSmoke, ClusterSuperviseConflictsWithExplicitMembers) {
  RunResult R = runBinary(
      CRELLVM_CLUSTER_BIN,
      "--socket /tmp/r.sock --supervise 2 --member m1=/tmp/m1.sock",
      /*MergeStderr=*/true);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stdout.find("--supervise"), std::string::npos);
  EXPECT_NE(R.Stdout.find("--member"), std::string::npos);
}

TEST(CliSmoke, ClusterHelpDocumentsSupervision) {
  RunResult R = runBinary(CRELLVM_CLUSTER_BIN, "--help");
  EXPECT_EQ(R.ExitCode, 0);
  for (const char *Needle :
       {"--supervise", "--served", "--probe-interval-ms",
        "--probe-deadline-ms", "--hang-after", "--restart-budget",
        "--restart-window-ms", "--ready-timeout-ms"})
    EXPECT_NE(R.Stdout.find(Needle), std::string::npos)
        << "cluster usage must document " << Needle;
}

TEST(CliSmoke, ClientHelpDocumentsDeepPing) {
  RunResult R = runBinary(CRELLVM_CLIENT_BIN, "--help");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("--ping"), std::string::npos);
}

TEST(CliSmoke, CampaignBadRecoveryWindowUsageExitsTwo) {
  // --recovery-window needs soak + periodic scrapes to have rate samples.
  RunResult R = runBinary(CRELLVM_CAMPAIGN_BIN,
                          "--mode throughput --recovery-window 5",
                          /*MergeStderr=*/true);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stdout.find("--recovery-window"), std::string::npos);
  EXPECT_NE(R.Stdout.find("--stats-every"), std::string::npos);
}

// The campaign usage block documents the replay contract the findings
// print (one command, standalone reproduction).
TEST(CliSmoke, CampaignHelpDocumentsReplay) {
  RunResult R = runBinary(CRELLVM_CAMPAIGN_BIN, "--help");
  EXPECT_EQ(R.ExitCode, 0);
  for (const char *Needle : {"--replay", "--seed", "--unit", "--bugs",
                             "--window", "--socket", "bug-hunt", "soak"})
    EXPECT_NE(R.Stdout.find(Needle), std::string::npos)
        << "campaign usage must document " << Needle;
}

} // namespace

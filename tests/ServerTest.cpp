//===- tests/ServerTest.cpp - Validation service tests --------------------===//
//
// The crellvm-served subsystem, tested at three levels:
//
//   ServerProtocol  frame + JSON codec round trips;
//   ServerLoopback  ValidationService through the in-process transport
//                   (same codec as the wire, no fds): per-request
//                   tasks, deadline expiry, backpressure rejection,
//                   drain-on-shutdown, and bit-identical verdicts vs.
//                   runBatchValidated;
//   ServerSocket    the real Unix-domain socket front end under 8
//                   concurrent clients, cross-checked against a direct
//                   batch run on the same seeds.
//
// Suite names all contain "Server" so the TSan sweep in ci.yml picks the
// whole file up (-R '...|Server').
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "server/Service.h"
#include "server/SocketServer.h"
#include "support/FaultInjection.h"
#include "workload/RandomProgram.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace crellvm;
using namespace crellvm::server;

namespace {

ServiceOptions fastOptions() {
  ServiceOptions O;
  O.Jobs = 4;
  O.Driver.WriteFiles = false; // keep the suite I/O-free and fast
  return O;
}

Request validateSeed(uint64_t Seed, int64_t Id = 0) {
  Request R;
  R.Kind = RequestKind::Validate;
  R.Id = Id;
  R.HasSeed = true;
  R.Seed = Seed;
  return R;
}

/// What crellvm-validate would report for the same seeds: a direct
/// runBatchValidated over identically generated modules.
driver::StatsMap directRun(const std::vector<uint64_t> &Seeds) {
  driver::DriverOptions DOpts;
  DOpts.WriteFiles = false;
  driver::BatchOptions BOpts;
  BOpts.Jobs = 1;
  return driver::runBatchValidated(
             passes::BugConfig::fixed(), DOpts, Seeds.size(),
             [&](size_t I) {
               workload::GenOptions G;
               G.Seed = Seeds[I];
               return workload::generateModule(G);
             },
             BOpts)
      .Stats;
}

/// Sums per-response verdict maps into one map comparable with
/// passVerdictsOf(directRun(...)).
void accumulate(std::map<std::string, PassVerdicts> &Into,
                const std::map<std::string, PassVerdicts> &From) {
  for (const auto &KV : From) {
    PassVerdicts &P = Into[KV.first];
    P.V += KV.second.V;
    P.F += KV.second.F;
    P.NS += KV.second.NS;
    P.Diff += KV.second.Diff;
  }
}

//===----------------------------------------------------------------------===//
// ServerProtocol
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, FrameHeaderIsBigEndianLength) {
  std::string F = encodeFrame("abc");
  ASSERT_EQ(F.size(), 7u);
  EXPECT_EQ(F[0], 0);
  EXPECT_EQ(F[1], 0);
  EXPECT_EQ(F[2], 0);
  EXPECT_EQ(F[3], 3);
  EXPECT_EQ(F.substr(4), "abc");
}

TEST(ServerProtocol, FrameRoundTripThroughPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  const std::string Payload = "{\"type\":\"ping\",\"id\":42}";
  ASSERT_TRUE(writeFrame(Fds[1], Payload));
  std::string Out, Err;
  ASSERT_TRUE(readFrame(Fds[0], Out, &Err)) << Err;
  EXPECT_EQ(Out, Payload);
  // Closing the write end makes the next read report clean EOF: false
  // with an empty error.
  ::close(Fds[1]);
  EXPECT_FALSE(readFrame(Fds[0], Out, &Err));
  EXPECT_TRUE(Err.empty());
  ::close(Fds[0]);
}

TEST(ServerProtocol, OversizeHeaderRejectedBeforeAllocation) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  unsigned char Header[4] = {0xff, 0xff, 0xff, 0xff}; // 4 GiB claim
  ASSERT_EQ(::write(Fds[1], Header, 4), 4);
  std::string Out, Err;
  EXPECT_FALSE(readFrame(Fds[0], Out, &Err));
  EXPECT_FALSE(Err.empty());
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ServerProtocol, RequestCodecRoundTrip) {
  Request R;
  R.Kind = RequestKind::Validate;
  R.Id = 77;
  R.HasSeed = true;
  R.Seed = 12345;
  R.Bugs = "501pre";
  R.DeadlineMs = 250;
  std::string Err;
  auto Back = requestFromJson(requestToJson(R), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Kind, RequestKind::Validate);
  EXPECT_EQ(Back->Id, 77);
  EXPECT_TRUE(Back->HasSeed);
  EXPECT_EQ(Back->Seed, 12345u);
  EXPECT_EQ(Back->Bugs, "501pre");
  EXPECT_EQ(Back->DeadlineMs, 250u);

  Request M;
  M.Kind = RequestKind::Validate;
  M.Id = 5;
  M.ModuleText = "define i32 @f() {\nentry:\n  ret i32 0\n}\n";
  Back = requestFromJson(requestToJson(M), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->ModuleText, M.ModuleText);
  EXPECT_FALSE(Back->HasSeed);
}

TEST(ServerProtocol, ResponseCodecRoundTrip) {
  Response R;
  R.Id = 9;
  R.Status = ResponseStatus::Ok;
  R.Passes["gvn"] = {4, 1, 0, 0};
  R.Passes["mem2reg"] = {2, 0, 1, 0};
  R.Failures = {"[gvn] sample failure"};
  R.CacheHits = 3;
  R.CacheMisses = 5;
  R.QueueUs = 10;
  R.TotalUs = 20;
  std::string Err;
  auto Back = responseFromJson(responseToJson(R), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Id, 9);
  EXPECT_EQ(Back->Status, ResponseStatus::Ok);
  EXPECT_EQ(Back->Passes, R.Passes);
  EXPECT_EQ(Back->Failures, R.Failures);
  EXPECT_EQ(Back->CacheHits, 3u);
  EXPECT_EQ(Back->CacheMisses, 5u);
  EXPECT_EQ(Back->totalV(), 6u);
  EXPECT_EQ(Back->totalF(), 1u);
  EXPECT_EQ(Back->totalNS(), 1u);

  Response Rej;
  Rej.Id = 10;
  Rej.Status = ResponseStatus::Rejected;
  Rej.Reason = "queue_full";
  Rej.RetryAfterMs = 40;
  Back = responseFromJson(responseToJson(Rej), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Status, ResponseStatus::Rejected);
  EXPECT_EQ(Back->Reason, "queue_full");
  EXPECT_EQ(Back->RetryAfterMs, 40u);
}

TEST(ServerProtocol, MalformedRequestsAreNamedErrors) {
  std::string Err;
  EXPECT_FALSE(requestFromJson("not json", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(requestFromJson("{\"type\":\"frobnicate\"}", &Err));
  EXPECT_FALSE(Err.empty());
  // validate needs a module or a seed
  EXPECT_FALSE(requestFromJson("{\"type\":\"validate\",\"id\":1}", &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// ServerLoopback
//===----------------------------------------------------------------------===//

TEST(ServerLoopback, PingAndStats) {
  ValidationService S(fastOptions());
  LoopbackTransport T(S);
  Request Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = 3;
  Response R = T.call(Ping);
  EXPECT_EQ(R.Id, 3);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);

  Request Stats;
  Stats.Kind = RequestKind::Stats;
  R = T.call(Stats);
  ASSERT_EQ(R.Status, ResponseStatus::Ok);
  ASSERT_EQ(R.Stats.kind(), json::Value::Kind::Object);
  for (const char *Key :
       {"server", "requests", "verdicts", "cache", "latency_us"})
    EXPECT_NE(R.Stats.find(Key), nullptr) << "stats must carry " << Key;
}

TEST(ServerLoopback, PingWhileDrainingIsAliveButNotReady) {
  // Liveness vs. readiness (Protocol.h): a draining daemon still answers
  // its ping Ok — it is alive, and old health checks must keep passing —
  // but carries reason "draining", which is what the member supervisor's
  // readiness gate keys on (ready = Ok with an EMPTY reason).
  ValidationService S(fastOptions());
  LoopbackTransport T(S);
  Request Ping;
  Ping.Kind = RequestKind::Ping;
  Ping.Id = 4;
  Response R = T.call(Ping);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_TRUE(R.Reason.empty()) << R.Reason;

  S.beginShutdown();
  R = T.call(Ping);
  EXPECT_EQ(R.Status, ResponseStatus::Ok) << "liveness must survive a drain";
  EXPECT_EQ(R.Reason, "draining");
}

// Each admitted request is its own pool task: a request that hangs holds
// one worker, never the requests admitted after it.
TEST(ServerLoopback, SlowRequestDoesNotHoldBackALaterFastOne) {
  ServiceOptions O = fastOptions();
  O.Jobs = 2;
  ValidationService S(O);
  LoopbackTransport T(S);

  std::string Err;
  ASSERT_TRUE(fault::configure("unit.hang:at=1:ms=2000", &Err)) << Err;
  std::mutex M;
  std::condition_variable Cv;
  std::optional<Response> Slow, Fast;
  T.submit(validateSeed(40, 1), [&](Response R) {
    std::lock_guard<std::mutex> L(M);
    Slow = std::move(R);
    Cv.notify_all();
  });
  // The slow unit has started once its hang fired.
  while (fault::counters()["unit.hang"].Injected == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  T.submit(validateSeed(41, 2), [&](Response R) {
    std::lock_guard<std::mutex> L(M);
    Fast = std::move(R);
    Cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Fast.has_value(); });
    EXPECT_FALSE(Slow.has_value())
        << "the later request waited for the hung one to finish";
    Cv.wait(L, [&] { return Slow.has_value(); });
  }
  fault::disarm();
  EXPECT_EQ(Fast->Status, ResponseStatus::Ok) << Fast->Reason;
  EXPECT_GT(Fast->totalV(), 0u);
  EXPECT_EQ(Slow->Status, ResponseStatus::Ok) << Slow->Reason;
  EXPECT_GT(Slow->totalV(), 0u);
}

TEST(ServerLoopback, ExpiredDeadlineSkipsValidation) {
  ServiceOptions O = fastOptions();
  O.StartPaused = true;
  ValidationService S(O);
  LoopbackTransport T(S);

  Request Doomed = validateSeed(7, 1);
  Doomed.DeadlineMs = 1;
  Request Fine = validateSeed(8, 2);

  std::mutex M;
  std::condition_variable Cv;
  std::vector<Response> Rsps;
  auto Collect = [&](Response R) {
    std::lock_guard<std::mutex> L(M);
    Rsps.push_back(std::move(R));
    Cv.notify_all();
  };
  T.submit(Doomed, Collect);
  T.submit(Fine, Collect);
  std::this_thread::sleep_for(std::chrono::milliseconds(10)); // expire it
  S.resume();
  {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Rsps.size() == 2; });
  }
  for (const Response &R : Rsps) {
    if (R.Id == 1) {
      EXPECT_EQ(R.Status, ResponseStatus::DeadlineExceeded);
      EXPECT_EQ(R.totalV(), 0u) << "an expired unit must not be validated";
    } else {
      EXPECT_EQ(R.Status, ResponseStatus::Ok);
      EXPECT_GT(R.totalV(), 0u);
    }
  }
  EXPECT_EQ(S.counters().DeadlineExpired, 1u);
  EXPECT_EQ(S.counters().Completed, 1u);
}

TEST(ServerLoopback, FullQueueRejectsWithRetryHint) {
  ServiceOptions O = fastOptions();
  O.StartPaused = true;
  O.QueueMax = 2;
  ValidationService S(O);
  LoopbackTransport T(S);

  std::mutex M;
  std::condition_variable Cv;
  std::vector<Response> Rsps;
  auto Collect = [&](Response R) {
    std::lock_guard<std::mutex> L(M);
    Rsps.push_back(std::move(R));
    Cv.notify_all();
  };
  T.submit(validateSeed(1, 1), Collect);
  T.submit(validateSeed(2, 2), Collect);
  // Third exceeds QueueMax: rejected immediately, synchronously.
  T.submit(validateSeed(3, 3), Collect);
  {
    std::lock_guard<std::mutex> L(M);
    ASSERT_EQ(Rsps.size(), 1u);
    EXPECT_EQ(Rsps[0].Id, 3);
    EXPECT_EQ(Rsps[0].Status, ResponseStatus::Rejected);
    EXPECT_EQ(Rsps[0].Reason, "queue_full");
    EXPECT_GE(Rsps[0].RetryAfterMs, O.RetryAfterMsFloor)
        << "backpressure must tell the client when to come back";
  }
  EXPECT_EQ(S.counters().RejectedQueueFull, 1u);

  // The admitted two still complete normally once dispatch starts.
  S.resume();
  {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Rsps.size() == 3; });
  }
  EXPECT_EQ(S.counters().Completed, 2u);
}

TEST(ServerLoopback, ShutdownDrainsEveryAcceptedRequest) {
  ServiceOptions O = fastOptions();
  O.StartPaused = true;
  ValidationService S(O);
  LoopbackTransport T(S);

  constexpr int N = 5;
  std::mutex M;
  std::atomic<int> OkCount{0};
  for (int I = 0; I != N; ++I)
    T.submit(validateSeed(60 + I, I), [&](Response R) {
      if (R.Status == ResponseStatus::Ok)
        ++OkCount;
    });
  ASSERT_EQ(S.queueDepth(), static_cast<size_t>(N));

  // Begin the drain while all five are still queued (the paused
  // dispatcher has not touched them — the worst case for loss).
  S.beginShutdown();
  EXPECT_TRUE(S.draining());

  // New work is rejected, synchronously, with the drain reason.
  Response Late;
  bool LateSeen = false;
  T.submit(validateSeed(99, 99), [&](Response R) {
    std::lock_guard<std::mutex> L(M);
    Late = std::move(R);
    LateSeen = true;
  });
  {
    std::lock_guard<std::mutex> L(M);
    ASSERT_TRUE(LateSeen);
    EXPECT_EQ(Late.Status, ResponseStatus::Rejected);
    EXPECT_EQ(Late.Reason, "shutting_down");
  }

  S.drain();
  EXPECT_EQ(OkCount.load(), N)
      << "SIGTERM-style drain must answer every accepted request";
  ServiceCounters C = S.counters();
  EXPECT_EQ(C.Accepted, static_cast<uint64_t>(N));
  EXPECT_EQ(C.Completed, static_cast<uint64_t>(N));
  EXPECT_EQ(C.RejectedShutdown, 1u);
}

TEST(ServerLoopback, VerdictsBitIdenticalToStandaloneValidator) {
  const std::vector<uint64_t> Seeds = {11, 12, 13, 14, 15, 16};
  ValidationService S(fastOptions());
  LoopbackTransport T(S);

  std::map<std::string, PassVerdicts> Served;
  for (size_t I = 0; I != Seeds.size(); ++I) {
    Response R = T.call(validateSeed(Seeds[I], static_cast<int64_t>(I)));
    ASSERT_EQ(R.Status, ResponseStatus::Ok) << "seed " << Seeds[I];
    accumulate(Served, R.Passes);
  }

  std::map<std::string, PassVerdicts> Direct =
      passVerdictsOf(directRun(Seeds));
  EXPECT_EQ(Served, Direct)
      << "the service must add scheduling, never semantics";
}

TEST(ServerLoopback, ExplicitModuleTextMatchesSeedRequest) {
  ValidationService S(fastOptions());
  LoopbackTransport T(S);

  workload::GenOptions G;
  G.Seed = 21;
  Request ByText;
  ByText.Kind = RequestKind::Validate;
  ByText.Id = 1;
  ByText.ModuleText = ir::printModule(workload::generateModule(G));
  Response A = T.call(ByText);
  Response B = T.call(validateSeed(21, 2));
  ASSERT_EQ(A.Status, ResponseStatus::Ok);
  ASSERT_EQ(B.Status, ResponseStatus::Ok);
  EXPECT_EQ(A.Passes, B.Passes)
      << "module-by-text and module-by-seed must validate identically";
}

TEST(ServerLoopback, BadRequestsAnsweredWithErrors) {
  ValidationService S(fastOptions());
  LoopbackTransport T(S);

  Request Garbage;
  Garbage.Kind = RequestKind::Validate;
  Garbage.Id = 1;
  Garbage.ModuleText = "this is not LLVM IR";
  Response R = T.call(Garbage);
  EXPECT_EQ(R.Status, ResponseStatus::Error);
  EXPECT_FALSE(R.Reason.empty());

  Request BadBugs = validateSeed(1, 2);
  BadBugs.Bugs = "llvm9000";
  R = T.call(BadBugs);
  EXPECT_EQ(R.Status, ResponseStatus::Error);
  EXPECT_EQ(S.counters().BadRequests, 2u);
}

TEST(ServerLoopback, StatsReflectServedWork) {
  ValidationService S(fastOptions());
  LoopbackTransport T(S);
  for (uint64_t Seed : {31, 32, 33})
    ASSERT_EQ(T.call(validateSeed(Seed)).Status, ResponseStatus::Ok);

  Request StatsReq;
  StatsReq.Kind = RequestKind::Stats;
  Response R = T.call(StatsReq);
  ASSERT_EQ(R.Status, ResponseStatus::Ok);
  const json::Value &J = R.Stats;
  EXPECT_EQ(J.get("requests").get("accepted").getInt(), 3);
  EXPECT_EQ(J.get("requests").get("completed").getInt(), 3);
  EXPECT_GT(J.get("verdicts").get("V").getInt(), 0);
  const json::Value &Lat = J.get("latency_us").get("total");
  EXPECT_EQ(Lat.get("count").getInt(), 3);
  EXPECT_GT(Lat.get("p50").getInt(), 0);
  EXPECT_GE(Lat.get("p99").getInt(), Lat.get("p50").getInt());
  EXPECT_GT(Lat.get("max").getInt(), 0);
}

// Scraped under load, every counter under "requests" and "verdicts" is
// monotone between observations and the drain inequality
// accepted >= completed + deadline_exceeded + internal_errors holds at
// EVERY observation point (the slack is work still queued or running);
// once all responses are in, the inequality tightens to the drain
// equation. This is exactly the gate crellvm-campaign's soak mode applies
// to a live daemon.
TEST(ServerLoopback, StatsMonotoneUnderLoadAndDrainEquation) {
  ServiceOptions O = fastOptions();
  O.Jobs = 2;
  ValidationService S(O);
  LoopbackTransport T(S);

  constexpr int N = 10;
  std::mutex M;
  std::condition_variable Cv;
  int Done = 0;
  for (int I = 0; I != N; ++I)
    T.submit(validateSeed(70 + I, I), [&](Response) {
      std::lock_guard<std::mutex> L(M);
      ++Done;
      Cv.notify_all();
    });

  Request StatsReq;
  StatsReq.Kind = RequestKind::Stats;

  // One scrape, flattened to the monotone "requests"/"verdicts" counters.
  auto Scrape = [&]() {
    Response R = T.call(StatsReq);
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
    std::map<std::string, int64_t> Out;
    for (const char *Section : {"requests", "verdicts"}) {
      const json::Value *Obj = R.Stats.find(Section);
      EXPECT_NE(Obj, nullptr) << Section;
      if (Obj)
        for (const auto &KV : Obj->members())
          if (KV.second.kind() == json::Value::Kind::Int)
            Out[std::string(Section) + "." + KV.first] = KV.second.getInt();
    }
    return Out;
  };

  std::map<std::string, int64_t> Prev = Scrape();
  bool AllDone = false;
  do {
    {
      std::unique_lock<std::mutex> L(M);
      Cv.wait_for(L, std::chrono::milliseconds(2));
      AllDone = Done == N;
    }
    std::map<std::string, int64_t> Cur = Scrape();
    for (const auto &KV : Cur) {
      auto It = Prev.find(KV.first);
      if (It != Prev.end()) {
        EXPECT_GE(KV.second, It->second)
            << KV.first << " decreased between scrapes";
      }
    }
    EXPECT_GE(Cur["requests.accepted"],
              Cur["requests.completed"] + Cur["requests.deadline_exceeded"] +
                  Cur["requests.internal_errors"])
        << "drain inequality violated mid-load";
    Prev = std::move(Cur);
  } while (!AllDone);

  // Quiesced: the inequality tightens to the drain equation.
  std::map<std::string, int64_t> Final = Scrape();
  EXPECT_EQ(Final["requests.accepted"], N);
  EXPECT_EQ(Final["requests.accepted"],
            Final["requests.completed"] +
                Final["requests.deadline_exceeded"] +
                Final["requests.internal_errors"])
      << "drain equation must hold once every response is in";
}

//===----------------------------------------------------------------------===//
// ServerSocket
//===----------------------------------------------------------------------===//

std::string testSocketPath(const char *Tag) {
  return "/tmp/crellvm-test-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

int connectTo(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  // The server thread may not have reached listen() yet: retry briefly.
  for (int Tries = 0; Tries != 100; ++Tries) {
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(Fd);
  return -1;
}

// Eight concurrent clients pipelining seeded requests over real sockets;
// the summed verdicts must be bit-identical to one standalone batch run
// over the union of the seeds. This is the test the TSan target leans on.
TEST(ServerSocket, EightConcurrentClientsBitIdenticalVerdicts) {
  constexpr int Clients = 8;
  constexpr int PerClient = 3;

  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("stress"), /*Backlog=*/64});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });

  std::mutex M;
  std::map<std::string, PassVerdicts> Served;
  int Failures = 0;
  std::vector<std::thread> ClientThreads;
  for (int C = 0; C != Clients; ++C)
    ClientThreads.emplace_back([&, C] {
      int Fd = connectTo(Server.path());
      if (Fd < 0) {
        std::lock_guard<std::mutex> L(M);
        ++Failures;
        return;
      }
      for (int I = 0; I != PerClient; ++I) {
        Request R = validateSeed(100 + C * PerClient + I, I);
        if (!writeFrame(Fd, requestToJson(R))) {
          std::lock_guard<std::mutex> L(M);
          ++Failures;
          ::close(Fd);
          return;
        }
      }
      for (int I = 0; I != PerClient; ++I) {
        std::string Frame;
        if (!readFrame(Fd, Frame)) {
          std::lock_guard<std::mutex> L(M);
          ++Failures;
          ::close(Fd);
          return;
        }
        auto Rsp = responseFromJson(Frame);
        std::lock_guard<std::mutex> L(M);
        if (!Rsp || Rsp->Status != ResponseStatus::Ok)
          ++Failures;
        else
          accumulate(Served, Rsp->Passes);
      }
      ::close(Fd);
    });
  for (std::thread &T : ClientThreads)
    T.join();
  Server.requestStop();
  ServerThread.join();

  EXPECT_EQ(Failures, 0);
  std::vector<uint64_t> Seeds;
  for (int I = 0; I != Clients * PerClient; ++I)
    Seeds.push_back(100 + I);
  EXPECT_EQ(Served, passVerdictsOf(directRun(Seeds)));
  ServiceCounters Counters = S.counters();
  EXPECT_EQ(Counters.Accepted, static_cast<uint64_t>(Clients * PerClient));
  EXPECT_EQ(Counters.Completed, static_cast<uint64_t>(Clients * PerClient));
}

TEST(ServerSocket, StopUnderLoadAnswersEverythingAccepted) {
  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("drain"), /*Backlog=*/16});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });

  int Fd = connectTo(Server.path());
  ASSERT_GE(Fd, 0);
  constexpr int N = 8;
  for (int I = 0; I != N; ++I)
    ASSERT_TRUE(writeFrame(Fd, requestToJson(validateSeed(200 + I, I))));
  // Wait until all eight crossed admission (frames still sitting in the
  // kernel buffer are not "accepted" — the drain guarantee is about what
  // the service admitted), then stop while they are queued or running.
  for (int Spin = 0; S.counters().Received < N && Spin != 1000; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(S.counters().Received, static_cast<uint64_t>(N));
  Server.requestStop();
  int Answered = 0;
  std::string Frame;
  while (Answered != N && readFrame(Fd, Frame)) {
    auto Rsp = responseFromJson(Frame);
    ASSERT_TRUE(Rsp);
    // Accepted before the stop: verdict. Raced with the drain: explicit
    // shutting_down rejection. Either way the client hears back.
    EXPECT_TRUE(Rsp->Status == ResponseStatus::Ok ||
                (Rsp->Status == ResponseStatus::Rejected &&
                 Rsp->Reason == "shutting_down"))
        << statusName(Rsp->Status);
    ++Answered;
  }
  ::close(Fd);
  ServerThread.join();
  EXPECT_EQ(Answered, N) << "no accepted request may vanish on SIGTERM";
  ServiceCounters C = S.counters();
  EXPECT_EQ(C.Accepted, C.Completed + C.DeadlineExpired);
}

// A cold daemon has an empty latency histogram; its retry_after_ms hint
// must still be a real wait, even with the configured floor at zero —
// otherwise retrying clients hot-spin against a daemon that has not
// finished a single unit yet.
TEST(ServerLoopbackRetryHint, EmptyHistogramHintStillFloored) {
  ServiceOptions O = fastOptions();
  O.StartPaused = true; // nothing completes: histogram stays empty
  O.QueueMax = 1;
  O.RetryAfterMsFloor = 0; // the misconfiguration that exposed the bug
  ValidationService S(O);
  LoopbackTransport T(S);

  std::vector<Response> Rsps;
  auto Collect = [&](Response R) { Rsps.push_back(std::move(R)); };
  T.submit(validateSeed(1, 1), Collect);
  T.submit(validateSeed(2, 2), Collect); // exceeds QueueMax, synchronous
  ASSERT_EQ(Rsps.size(), 1u);
  EXPECT_EQ(Rsps[0].Status, ResponseStatus::Rejected);
  EXPECT_EQ(Rsps[0].Reason, "queue_full");
  EXPECT_GE(Rsps[0].RetryAfterMs, MinRetryAfterMs)
      << "a cold daemon's hint must never tell clients to hot-spin";
  S.resume();
  S.beginShutdown();
  S.drain();
}

//===----------------------------------------------------------------------===//
// ServerCodec — the negotiated binary wire protocol
//===----------------------------------------------------------------------===//

/// Client-side hello exchange on a fresh test connection: returns the
/// session codec the server picked (json when negotiation was refused).
WireCodec negotiateOn(int Fd, WireCodec Want) {
  EXPECT_TRUE(writeFrame(Fd, requestToJson(helloRequest(Want))));
  std::string Frame;
  EXPECT_TRUE(readFrame(Fd, Frame));
  auto Rsp = responseFromJson(Frame);
  EXPECT_TRUE(Rsp);
  if (!Rsp || Rsp->Status != ResponseStatus::Ok)
    return WireCodec::Json;
  auto C = codecByName(Rsp->Codec);
  return C ? *C : WireCodec::Json;
}

TEST(ServerCodec, HelloNegotiatesCbj1AndServesBinaryFrames) {
  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("hello"), /*Backlog=*/4});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });
  int Fd = connectTo(Server.path());
  ASSERT_GE(Fd, 0);

  ASSERT_EQ(negotiateOn(Fd, WireCodec::Cbj1), WireCodec::Cbj1);
  WireEncoder Enc(WireCodec::Cbj1);
  WireDecoder Dec(WireCodec::Cbj1);

  // Two requests over the binary session; verdicts must be exactly what
  // a json client (or a direct run) gets for the same seeds.
  std::map<std::string, PassVerdicts> Served;
  for (int I = 0; I != 2; ++I) {
    auto Payload = Enc.encode(requestToValue(validateSeed(300 + I, I)));
    ASSERT_TRUE(Payload);
    ASSERT_TRUE(writeFrame(Fd, *Payload));
  }
  for (int I = 0; I != 2; ++I) {
    std::string Frame;
    ASSERT_TRUE(readFrame(Fd, Frame));
    auto V = Dec.decode(Frame, &Err);
    ASSERT_TRUE(V) << Err;
    auto Rsp = responseFromValue(*V, &Err);
    ASSERT_TRUE(Rsp) << Err;
    EXPECT_EQ(Rsp->Status, ResponseStatus::Ok);
    accumulate(Served, Rsp->Passes);
  }
  ::close(Fd);
  Server.requestStop();
  ServerThread.join();
  EXPECT_EQ(Served, passVerdictsOf(directRun({300, 301})));
  EXPECT_EQ(Server.wireStats().Hellos.load(), 1u);
  EXPECT_GT(Server.wireStats()
                .FramesIn[static_cast<size_t>(WireCodec::Cbj1)]
                .load(),
            0u);
}

TEST(ServerCodec, HelloWithNoCommonCodecAnswersErrorAndStaysOnJson) {
  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("nocodec"), /*Backlog=*/4});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });
  int Fd = connectTo(Server.path());
  ASSERT_GE(Fd, 0);

  Request Hello;
  Hello.Kind = RequestKind::Hello;
  Hello.Id = 7;
  Hello.Codecs = {"zstd-frames", "xml"}; // a client from the future
  ASSERT_TRUE(writeFrame(Fd, requestToJson(Hello)));
  std::string Frame;
  ASSERT_TRUE(readFrame(Fd, Frame));
  auto Rsp = responseFromJson(Frame);
  ASSERT_TRUE(Rsp);
  EXPECT_EQ(Rsp->Status, ResponseStatus::Error);

  // The connection survives, still speaking json.
  ASSERT_TRUE(writeFrame(Fd, requestToJson(validateSeed(310, 1))));
  ASSERT_TRUE(readFrame(Fd, Frame));
  auto Ok = responseFromJson(Frame);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Ok->Status, ResponseStatus::Ok);
  ::close(Fd);
  Server.requestStop();
  ServerThread.join();
}

// Four json clients and four cbj1 clients, concurrently, over one
// daemon: the codec is transport dressing, so the summed verdicts must
// be bit-identical to one standalone batch run over the union of seeds.
TEST(ServerCodec, MixedCodecClientsBitIdenticalVerdicts) {
  constexpr int Clients = 8;
  constexpr int PerClient = 2;

  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("mixed"), /*Backlog=*/64});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });

  std::mutex M;
  std::map<std::string, PassVerdicts> Served;
  int Failures = 0;
  std::vector<std::thread> ClientThreads;
  for (int C = 0; C != Clients; ++C)
    ClientThreads.emplace_back([&, C] {
      const WireCodec Want = C % 2 ? WireCodec::Cbj1 : WireCodec::Json;
      int Fd = connectTo(Server.path());
      if (Fd < 0) {
        std::lock_guard<std::mutex> L(M);
        ++Failures;
        return;
      }
      WireCodec Session = WireCodec::Json;
      if (Want == WireCodec::Cbj1)
        Session = negotiateOn(Fd, Want);
      WireEncoder Enc(Session);
      WireDecoder Dec(Session);
      for (int I = 0; I != PerClient; ++I) {
        auto Payload =
            Enc.encode(requestToValue(validateSeed(400 + C * PerClient + I, I)));
        if (!Payload || !writeFrame(Fd, *Payload)) {
          std::lock_guard<std::mutex> L(M);
          ++Failures;
          ::close(Fd);
          return;
        }
      }
      for (int I = 0; I != PerClient; ++I) {
        std::string Frame;
        if (!readFrame(Fd, Frame)) {
          std::lock_guard<std::mutex> L(M);
          ++Failures;
          ::close(Fd);
          return;
        }
        auto V = Dec.decode(Frame);
        std::optional<Response> Rsp;
        if (V)
          Rsp = responseFromValue(*V);
        std::lock_guard<std::mutex> L(M);
        if (!Rsp || Rsp->Status != ResponseStatus::Ok)
          ++Failures;
        else
          accumulate(Served, Rsp->Passes);
      }
      ::close(Fd);
    });
  for (std::thread &T : ClientThreads)
    T.join();
  Server.requestStop();
  ServerThread.join();

  EXPECT_EQ(Failures, 0);
  std::vector<uint64_t> Seeds;
  for (int I = 0; I != Clients * PerClient; ++I)
    Seeds.push_back(400 + I);
  EXPECT_EQ(Served, passVerdictsOf(directRun(Seeds)));
  // Both codecs actually carried traffic.
  const auto &W = Server.wireStats();
  EXPECT_GT(W.FramesIn[static_cast<size_t>(WireCodec::Json)].load(), 0u);
  EXPECT_GT(W.FramesIn[static_cast<size_t>(WireCodec::Cbj1)].load(), 0u);
}

// Hostile bytes through the negotiated binary decode path: the daemon
// answers bad frames with error responses and keeps serving — a
// malicious client must not be able to kill anyone else's connection.
TEST(ServerCodec, HostileCbj1FramesAnsweredWithoutDying) {
  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("hostile"), /*Backlog=*/4});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });
  int Fd = connectTo(Server.path());
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(negotiateOn(Fd, WireCodec::Cbj1), WireCodec::Cbj1);
  WireEncoder Enc(WireCodec::Cbj1);
  WireDecoder Dec(WireCodec::Cbj1);

  // Encoded with a throwaway session: the truncation below is hostile
  // material, not part of Enc's delivered-frame sequence (a session
  // encoder's table only stays in lockstep if every frame it encodes is
  // actually delivered).
  WireEncoder Throwaway(WireCodec::Cbj1);
  auto GoodBytes = Throwaway.encode(requestToValue(validateSeed(500, 1)));
  ASSERT_TRUE(GoodBytes);

  std::vector<std::string> Hostile;
  // Truncated frame (valid prefix, cut mid-value).
  Hostile.push_back(GoodBytes->substr(0, GoodBytes->size() / 2));
  // Bogus intern reference into a table slot that never existed.
  {
    std::string B = "CBJ1";
    B.push_back(0x05); // string ref
    B.push_back(0x7f); // id 127: out of range
    Hostile.push_back(std::move(B));
  }
  // Depth bomb: 100k nested single-element arrays.
  {
    std::string B = "CBJ1";
    for (int I = 0; I != 100000; ++I) {
      B.push_back(0x06);
      B.push_back(0x01);
    }
    B.push_back(0x00);
    Hostile.push_back(std::move(B));
  }
  // Wrong magic entirely.
  Hostile.push_back("JSON{\"type\":\"ping\"}");

  for (const std::string &Bytes : Hostile) {
    ASSERT_TRUE(writeFrame(Fd, Bytes));
    std::string Frame;
    ASSERT_TRUE(readFrame(Fd, Frame)) << "daemon died on hostile bytes";
    auto V = Dec.decode(Frame, &Err);
    ASSERT_TRUE(V) << Err;
    auto Rsp = responseFromValue(*V, &Err);
    ASSERT_TRUE(Rsp) << Err;
    EXPECT_EQ(Rsp->Status, ResponseStatus::Error);
  }

  // The server rolled its intern table back on every hostile frame, so
  // the session encoder (whose first delivered frame this is) is still
  // in lockstep: a well-formed request gets a real verdict.
  auto Again = Enc.encode(requestToValue(validateSeed(500, 2)));
  ASSERT_TRUE(Again);
  ASSERT_TRUE(writeFrame(Fd, *Again));
  std::string Frame;
  ASSERT_TRUE(readFrame(Fd, Frame));
  auto V = Dec.decode(Frame, &Err);
  ASSERT_TRUE(V) << Err;
  auto Rsp = responseFromValue(*V, &Err);
  ASSERT_TRUE(Rsp) << Err;
  EXPECT_EQ(Rsp->Status, ResponseStatus::Ok);
  ::close(Fd);
  Server.requestStop();
  ServerThread.join();
}

TEST(ServerSocket, SecondServerOnLivePathRefused) {
  ValidationService S(fastOptions());
  SocketServer Server(S, {testSocketPath("dup"), /*Backlog=*/4});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread ServerThread([&] { Server.run(); });
  // Make sure it is accepting before probing.
  int Probe = connectTo(Server.path());
  ASSERT_GE(Probe, 0);

  ValidationService S2(fastOptions());
  SocketServer Dup(S2, {Server.path(), /*Backlog=*/4});
  std::string DupErr;
  EXPECT_FALSE(Dup.start(&DupErr))
      << "two daemons on one socket would split the client stream";
  EXPECT_NE(DupErr.find("listening"), std::string::npos);

  ::close(Probe);
  Server.requestStop();
  ServerThread.join();
}

} // namespace

//===- server/Protocol.h - Validation service wire protocol -----*- C++ -*-===//
///
/// \file
/// The `crellvm-served` wire protocol: length-prefixed frames over a
/// byte stream (a Unix-domain socket in production, an in-process string
/// round-trip in the loopback transport used by tests).
///
/// **Framing.** Each message is a 4-byte big-endian payload length
/// followed by that many payload bytes. Frames above MaxFrameBytes are
/// rejected before allocation — a malformed or hostile peer can cost at
/// most one bounded read, never an OOM, and the bound is enforced at the
/// frame layer so it holds identically for every payload codec. Reads
/// and writes loop over partial transfers and EINTR.
///
/// **Payload codecs.** A connection starts in `json` (UTF-8 text, the
/// legacy protocol byte-for-byte). A client may open with a `hello`
/// request advertising `codecs:["json","cbj1"]`; the daemon answers with
/// its pick in `codec` and *both* directions switch to it for every
/// frame after the ack (`cbj1` is json/Binary.h with per-connection
/// intern tables, reset at the hello). Old clients that never send a
/// hello stay on json — zero protocol break. See DESIGN.md §16.
///
/// **Requests** (`"type"` selects the kind; `"id"` is an opaque client
/// token echoed in the response, which is how clients pipeline many
/// requests on one connection even though batching completes them out of
/// order):
///
///   {"type":"validate","id":7,"seed":3,"bugs":"fixed","deadline_ms":500}
///   {"type":"validate","id":8,"module":"<.ll text>"}
///   {"type":"stats","id":1}
///   {"type":"ping","id":2}
///   {"type":"ping","id":2,"deep":true,"deadline_ms":250}
///   {"type":"shutdown","id":3}
///
/// A validate request names its unit either by `seed` (the server
/// generates the same module `crellvm-validate --seed S` would) or by
/// `module` (verbatim .ll text). `bugs` picks the pass configuration
/// (371 | 501pre | 501post | fixed); `deadline_ms` bounds queue+run time.
///
/// A `ping` answer distinguishes *liveness* from *readiness*: any answer
/// at all proves the process is alive and its event loop is turning,
/// while readiness is `status:ok` with an empty `reason` — a draining
/// daemon still answers Ok but stamps `reason:"draining"`, so a
/// supervisor admits members by readiness and health-checks them by
/// liveness (src/supervise/). `deep:true` against a cluster router fans
/// the ping to every member within `deadline_ms` and returns the
/// per-member liveness map in `stats`.
///
/// **Responses** echo `id` and carry `status`:
///
///   ok                  per-pass verdict counts, failures, latencies
///   rejected            backpressure (`reason`: queue_full with
///                       retry_after_ms, shutting_down, or quarantined) —
///                       the request was NOT validated
///   deadline_exceeded   admitted but expired before validation started
///   internal_error      admitted and started, but the unit threw or blew
///                       its watchdog deadline; the failure is isolated
///                       to this request (reason says what happened, the
///                       batch and the daemon keep running)
///   error               malformed request (reason says why)
///
/// The protocol is *outside* the TCB: it moves bytes to and from the
/// same driver + checker stack `crellvm-validate` runs, and a verdict is
/// only ever produced by that stack (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//
#ifndef CRELLVM_SERVER_PROTOCOL_H
#define CRELLVM_SERVER_PROTOCOL_H

#include "driver/Driver.h"
#include "json/Binary.h"
#include "json/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace crellvm {
namespace server {

/// Upper bound on one frame's payload; a module plus headroom.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Version of the stats JSON document a `stats` request returns. Every
/// member stamps its document with a top-level `schema_version` (plus its
/// `member_id`); the cluster router's aggregator refuses — with a named
/// error, not a silent merge — any member whose version differs, because
/// summing counters across incompatible schemas produces numbers that
/// *look* right (the failure mode monitoring must never have). Bump this
/// whenever a counter's meaning changes, not just when one is added.
/// 2: added the "batching" and "plan" sections (members and router are
///    rebuilt together, and mixing documents with and without them would
///    silently under-count the new totals).
/// 3: removed the "batching" section, the "batch_size" histogram,
///    "server.batch_max" and "requests.batches": each admitted request
///    runs as its own pool task, so there are no batches left to count.
constexpr uint64_t StatsSchemaVersion = 3;

/// Hard lower bound on the `retry_after_ms` backpressure hint. A cold
/// daemon has an empty latency histogram (p50 = 0), and a hint of 0 ms
/// turns every backpressured client into a hot-spinning one — so the
/// hint never drops below this, no matter how the floor is configured.
constexpr uint64_t MinRetryAfterMs = 5;

/// Payload codec of one direction of one connection. Json is the legacy
/// text protocol; Cbj1 is the interned binary encoding (json/Binary.h)
/// with tables persisting for the life of the connection.
enum class WireCodec : uint8_t { Json, Cbj1 };

/// "json" / "cbj1" — the names used in hello `codecs` lists and acks.
const char *codecName(WireCodec C);
std::optional<WireCodec> codecByName(const std::string &Name);

/// Prepends the 4-byte big-endian length header.
std::string encodeFrame(const std::string &Payload);

/// Writes one frame to \p Fd, looping over partial writes. False on any
/// I/O error (the connection is then unusable).
bool writeFrame(int Fd, const std::string &Payload);

/// Reads one frame from \p Fd. False on EOF, I/O error, or an oversize
/// header (\p Err names the cause; empty string means clean EOF).
bool readFrame(int Fd, std::string &Out, std::string *Err = nullptr);

enum class RequestKind : uint8_t { Validate, Stats, Ping, Shutdown, Hello };

struct Request {
  RequestKind Kind = RequestKind::Ping;
  int64_t Id = 0;
  /// Validate: verbatim module text; empty means generate from Seed.
  std::string ModuleText;
  uint64_t Seed = 0;
  bool HasSeed = false;
  /// Bug preset name, as crellvm-validate's --bugs.
  std::string Bugs = "fixed";
  /// Queue-wait + validation budget; 0 = unbounded.
  uint64_t DeadlineMs = 0;
  /// Ping: when true, a cluster router fans the ping to every ring
  /// member (short-lived probe connections, bounded by DeadlineMs) and
  /// reports per-member liveness in the response's Stats object. A plain
  /// daemon answers a deep ping like a shallow one — depth is a routing
  /// concept, and a leaf has nothing to fan to.
  bool Deep = false;
  /// Hello: codec names the client can speak, in preference order.
  std::vector<std::string> Codecs;
};

json::Value requestToValue(const Request &R);
std::optional<Request> requestFromValue(const json::Value &V,
                                        std::string *Err = nullptr);
std::string requestToJson(const Request &R);
std::optional<Request> requestFromJson(const std::string &Text,
                                       std::string *Err = nullptr);

/// The hello a client sends to negotiate \p Want (advertises json too,
/// so the server always has a common pick).
Request helloRequest(WireCodec Want, int64_t Id = 0);

/// The server's pick from an advertised codec list: cbj1 when offered
/// (it is strictly cheaper on the hot path), else json. std::nullopt if
/// the list names nothing the server speaks.
std::optional<WireCodec> pickCodec(const std::vector<std::string> &Offered);

enum class ResponseStatus : uint8_t {
  Ok,
  Rejected,
  DeadlineExceeded,
  InternalError,
  Error,
};

const char *statusName(ResponseStatus S);

/// Per-pass verdict counts, the comparable core of driver::PassStats —
/// exactly the fields that must be bit-identical between the service and
/// a standalone `crellvm-validate` run on the same unit.
struct PassVerdicts {
  uint64_t V = 0, F = 0, NS = 0, Diff = 0;
  /// Differential-execution oracle divergences (checker-accepted but
  /// observably wrong; nonzero only when the daemon runs --oracle). This
  /// is how the one historical miscompilation the checker accepts
  /// (PR33673) is visible to campaign clients end-to-end.
  uint64_t Div = 0;
  bool operator==(const PassVerdicts &O) const = default;
};

struct Response {
  int64_t Id = 0;
  ResponseStatus Status = ResponseStatus::Error;
  std::string Reason;          ///< rejected/error detail
  uint64_t RetryAfterMs = 0;   ///< rejected(queue_full) backoff hint
  std::map<std::string, PassVerdicts> Passes;
  std::vector<std::string> Failures;
  /// First few oracle divergence reports (paired with nonzero Div).
  std::vector<std::string> Divergences;
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t QueueUs = 0, TotalUs = 0;
  /// Hello ack: the codec the server picked ("json" / "cbj1"); empty on
  /// every other response. The ack itself is still encoded with the
  /// *previous* codec — the switch happens on the next frame.
  std::string Codec;
  /// Stats-request payload (object), null otherwise.
  json::Value Stats;

  uint64_t totalV() const;
  uint64_t totalF() const;
  uint64_t totalNS() const;
  uint64_t totalDiff() const;
  uint64_t totalDiv() const;
};

json::Value responseToValue(const Response &R);
std::optional<Response> responseFromValue(const json::Value &V,
                                          std::string *Err = nullptr);
std::string responseToJson(const Response &R);
std::optional<Response> responseFromJson(const std::string &Text,
                                         std::string *Err = nullptr);

/// Collapses a driver StatsMap into the wire verdict map.
std::map<std::string, PassVerdicts> passVerdictsOf(const driver::StatsMap &S);

/// One direction of one connection's payload codec. Starts in json (the
/// legacy protocol, stateless); use() switches codec and resets any
/// session state — call it exactly at the hello-ack boundary, on both
/// ends, so the cbj1 intern tables stay in lockstep.
class WireEncoder {
public:
  explicit WireEncoder(WireCodec C = WireCodec::Json) : C(C) {}

  WireCodec codec() const { return C; }
  void use(WireCodec Next) {
    C = Next;
    Writer.reset();
  }

  /// Encodes one frame payload. Json cannot fail; cbj1 fails only on
  /// over-deep nesting (then the session is poisoned — close the
  /// connection).
  std::optional<std::string> encode(const json::Value &V,
                                    std::string *Err = nullptr) {
    if (C == WireCodec::Json)
      return V.write();
    return Writer.encode(V, Err);
  }

private:
  WireCodec C;
  json::BinaryWriter Writer;
};

/// Decoding mirror of WireEncoder. A failed cbj1 frame rolls the intern
/// table back to its pre-frame state (json/Binary.h), so the caller can
/// answer an error and keep reading — exactly the legacy behavior for a
/// bad JSON frame.
class WireDecoder {
public:
  explicit WireDecoder(WireCodec C = WireCodec::Json) : C(C) {}

  WireCodec codec() const { return C; }
  void use(WireCodec Next) {
    C = Next;
    Reader.reset();
  }

  std::optional<json::Value> decode(const std::string &Payload,
                                    std::string *Err = nullptr) {
    if (C == WireCodec::Json)
      return json::parse(Payload, Err);
    return Reader.decode(Payload, Err);
  }

private:
  WireCodec C;
  json::BinaryReader Reader;
};

} // namespace server
} // namespace crellvm

#endif // CRELLVM_SERVER_PROTOCOL_H

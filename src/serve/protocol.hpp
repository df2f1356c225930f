// Wire protocol of the tuning-as-a-service daemon (aaltune_serve).
//
// The protocol is line-delimited: every request and every response frame is
// one flat JSON object on one line, serialized with the trace codec
// (obs/trace.hpp — keys in wire order, minimal escaping, shortest
// round-trip doubles), so protocol lines and trace lines share one strict
// parser. docs/SERVING.md is the normative reference; a docs-coverage test
// round-trips every example line in that document through this codec.
//
// Requests carry `{"id":N,"op":"<name>",...}`. Responses echo the id:
// `{"id":N,"ok":true,...}` on success, `{"id":N,"ok":false,"error":
// "<code>","message":"..."}` on failure. Multi-frame responses (list,
// stream) tag continuation frames with a "frame" field and terminate with
// `"frame":"end"`.
//
// Versioning: kServeProtocolVersion names the current revision. A client
// may attach `"version"` to `hello` (or any request); a mismatch is
// rejected with the `version_mismatch` error code. Additive changes (new
// ops, new optional request fields, new response fields) keep the version;
// renames, removals and semantic changes bump it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "support/common.hpp"

namespace aal {

/// Current protocol revision, echoed by `hello`.
inline constexpr const char* kServeProtocolVersion = "aaltune-serve/v1";

/// The request vocabulary. Wire names via serve_op_name().
enum class ServeOp : int {
  kHello,     // version handshake
  kSubmit,    // enqueue a tuning job
  kStatus,    // one job's state snapshot
  kCancel,    // raise a job's cooperative cancel flag
  kList,      // every job the daemon knows, one frame per job
  kStream,    // live trace lines of one job until it finishes
  kStats,     // server-wide counters (admission, queue, store)
  kShutdown,  // stop admitting, drain, exit
};

/// Typed protocol error codes. Wire names via serve_error_code_name().
enum class ServeErrorCode : int {
  kParseError,       // request line is not a valid flat JSON object
  kBadRequest,       // valid JSON, invalid request (fields, types, ranges)
  kUnknownOp,        // unrecognized "op"
  kVersionMismatch,  // client "version" != kServeProtocolVersion
  kUnknownJob,       // "job" does not name a submitted job
  kQuotaExceeded,    // tenant has too many queued+running jobs
  kQueueFull,        // server-wide queue bound reached
  kBadModel,         // submit "model" is neither a zoo name nor a model file
  kBadTarget,        // submit "target" is not a known target name
  kBadTuner,         // submit "tuner" is not a registered tuner name
  kShuttingDown,     // submit after shutdown began
  kInternalError,    // unexpected server-side failure
  kLineTooLong,      // a line exceeded the transport's length cap
};

/// Stable wire name of an op ("submit", ...).
const char* serve_op_name(ServeOp op);

/// Inverse of serve_op_name; nullopt for unknown names.
std::optional<ServeOp> serve_op_from_name(std::string_view name);

/// Stable wire name of an error code ("quota_exceeded", ...).
const char* serve_error_code_name(ServeErrorCode code);

/// Inverse of serve_error_code_name; nullopt for unknown names.
std::optional<ServeErrorCode> serve_error_code_from_name(
    std::string_view name);

/// A protocol-level failure: carries the typed code that the error response
/// frame will name. Thrown by request parsing and by TuneServer admission.
class ServeError : public Error {
 public:
  ServeError(ServeErrorCode code, const std::string& message)
      : Error(message), code_(code) {}

  ServeErrorCode code() const { return code_; }

 private:
  ServeErrorCode code_;
};

/// A tuning job specification, as carried by the `submit` request. Field
/// defaults mirror the CLI's `tune` subcommand, so a bare
/// `{"id":1,"op":"submit","model":"resnet18"}` tunes exactly what
/// `aaltune_cli tune --model resnet18` tunes.
struct JobSpec {
  std::string model;               // zoo name or model-file path (required)
  std::string target = "gpu-pascal";
  std::string tuner = "bted+bao";
  std::int64_t budget = 512;       // per-task measurement budget
  std::int64_t early_stop = 400;   // per-task early-stopping patience
  std::int64_t seed = 1;           // tuner seed; device seed derives from it
  std::string tenant = "default";  // admission-control bucket
  std::int64_t priority = 0;       // higher runs first; ties by submit order
  /// Warm-start from the daemon's shared record store: seed the job's tasks
  /// from the store's nearest prior tasks and blend a meta-surrogate into
  /// the search (docs/SERVING.md). No-op when the daemon has no --store.
  bool transfer = false;
  /// Schedule-template request in the TemplateRegistry vocabulary ("" =
  /// default CUDA-shaped space, "native" = the target family's native
  /// template, or an exact template name). Wire field "template".
  std::string schedule_template;

  /// Canonical wire form: the fields above in order, except `transfer` and
  /// `template`, which are additive-optional and omitted at their defaults
  /// (false / empty) so pre-transfer and pre-template clients see unchanged
  /// canonical lines.
  std::vector<TraceField> to_fields() const;

  /// Throws ServeError(kBadRequest) on out-of-range numeric fields or an
  /// empty model. Name validity (model/target/tuner) is the server's call.
  void validate() const;

  bool operator==(const JobSpec& other) const = default;
};

/// A parsed request line. Which members are meaningful depends on `op`.
struct ServeRequest {
  std::int64_t id = 0;        // client-chosen echo tag, >= 0
  ServeOp op = ServeOp::kHello;
  std::string version;        // optional on any request; checked if present
  JobSpec spec;               // submit
  std::int64_t job = -1;      // status / cancel / stream
  std::int64_t from = 0;      // stream: first trace step to deliver

  /// Canonical wire form (id, op, then the op's fields in documented order;
  /// submit spells out the full JobSpec).
  std::string to_line() const;

  /// Strict parse of one request line. Unknown ops, unknown fields for the
  /// op, wrong value types and out-of-range values throw ServeError with
  /// the matching code. If `id_out` is non-null it receives the request id
  /// as soon as it is known, so error responses can echo it even when the
  /// rest of the line is malformed.
  static ServeRequest parse(std::string_view line,
                            std::int64_t* id_out = nullptr);
};

/// A parsed response frame, as seen by clients.
struct ServeResponse {
  std::int64_t id = -1;
  bool ok = false;
  ServeErrorCode error = ServeErrorCode::kInternalError;  // when !ok
  std::string message;                                    // when !ok
  std::string frame;           // "" | "job" | "trace" | "end"
  std::vector<TraceField> fields;  // frame payload after id/ok

  /// Looks up a payload field by key; null when absent.
  const TraceValue* find(std::string_view key) const;

  static ServeResponse parse(std::string_view line);
};

/// Builds `{"id":N,"ok":true,...fields...}`.
std::string serve_ok_line(std::int64_t id,
                          const std::vector<TraceField>& fields = {});

/// Builds `{"id":N,"ok":false,"error":"<code>","message":"..."}`.
std::string serve_error_line(std::int64_t id, ServeErrorCode code,
                             const std::string& message);

}  // namespace aal

#pragma once
// The request/reply schema every front-end shares: the stdin `serve`
// loop, `batch`, `client`, `client --cluster` and the TCP server
// (docs/SERVICE.md, "The request/reply schema").
//
//  * RequestLine: `<path> [--restarts R] [--backend B]`, the request of
//    the line front-ends.
//  * EncodeRequest: the JSON encode request of the TCP protocol, with
//    its field bounds and the `detail` text of each `bad_request`.
//  * Reply: one answer — the paper's Table I measures of the winning
//    encoding (code length, satisfied face constraints, implementation
//    cubes) plus its content hash and the backend that produced it — as
//    a JSON object, as the batch summary and as the `ok` line.
//
// A new request or reply field is added here once; the front-ends only
// move values between this schema and their transport.

#include <cstdint>
#include <optional>
#include <string>

#include "net/json.h"
#include "portfolio/backend.h"

namespace picola {
struct ConstraintSet;
struct JobResult;
}  // namespace picola

namespace picola::net {

/// One request of the line front-ends.  Options may come in any order;
/// a repeated option keeps its last value.
struct RequestLine {
  std::string path;  ///< the first token
  int restarts = 0;  ///< >= 1; 0 = the front-end's default
  std::optional<portfolio::BackendKind> backend;  ///< nullopt = default
  /// Empty, or "bad request options" when an option is unknown, lacks
  /// its value, or is out of range.
  std::string error;
};

/// Parse one request line (trimmed, not empty, not a command word).
RequestLine parse_request_line(const std::string& line);

/// `error <path>: <message>` — the line front-ends' failed answer.
std::string error_line(const std::string& path, const std::string& message);

/// The JSON encode request: a `con` or a `path` string is needed (the
/// inline `con` wins when both are given); every other field is
/// optional and defaults to the server's setting.
struct EncodeRequest {
  JsonValue id;                     ///< echoed verbatim; null = absent
  std::optional<std::string> con;   ///< inline problem text
  std::optional<std::string> path;  ///< server-side problem file
  std::optional<int> restarts;      ///< [1, 1024]
  std::optional<int> bits;          ///< [0, 31]; 0 = minimum length
  std::optional<portfolio::BackendKind> backend;
  int deadline_ms = 0;       ///< [1, 86400000] from frame decode; 0 = none
  uint64_t trace_id = 0;     ///< 0 = none
  uint64_t parent_span = 0;  ///< 0 = none

  /// Validate the object `v` (a request without `cmd`).  On failure
  /// returns nullopt and sets *detail to the `bad_request` detail.
  /// Unknown fields, and a `con` or `path` that is not a string, are
  /// ignored.
  static std::optional<EncodeRequest> from_json(const JsonValue& v,
                                                std::string* detail);
  JsonValue to_json() const;
};

/// The answer to one encode request.
struct Reply {
  int n = 0;            ///< symbols
  int bits = 0;         ///< code length
  long cubes = 0;       ///< implementation cubes
  int satisfied = 0;    ///< satisfied face constraints...
  int constraints = 0;  ///< ...out of this many
  uint64_t enc = 0;     ///< content hash of the code matrix
  portfolio::BackendKind backend = portfolio::BackendKind::kPicola;
  bool cached = false;
  double wall_ms = 0;
  uint64_t trace_id = 0;  ///< the request's trace id; 0 = none

  /// The reply to `set` answered by `r`.
  static Reply from_result(const ConstraintSet& set, const JobResult& r);

  /// The deterministic fields: n, bits, cubes, satisfied, constraints,
  /// enc, backend (one `batch --json` file entry, without its path).
  JsonValue fields_json() const;
  /// The TCP success reply: the fields plus ok, cached, wall_ms and
  /// trace_id (the server adds the request's id).
  JsonValue to_json() const;
  /// Read a success reply; nullopt when a field is missing or mistyped.
  static std::optional<Reply> from_json(const JsonValue& v);

  /// `n=… bits=… cubes=… satisfied=S/C enc=… backend=…` (a batch line).
  std::string summary() const;
  /// `ok <path> <summary> cached=0|1` (the serve and client lines).
  std::string ok_line(const std::string& path) const;
};

}  // namespace picola::net

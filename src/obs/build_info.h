#pragma once
// Build identity for fleet telemetry: version, git sha and the compile
// flags that change behaviour (sanitizer, obs/fault compile-outs).  The
// exporter renders this as the conventional `picola_build_info{...} 1`
// info-gauge so a fleet is identifiable from /metrics alone, and the
// serve protocols attach it to their `metrics` responses.

#include <string>

namespace picola::obs {

struct BuildInfo {
  const char* version;    ///< release train, bumped per PR sequence
  const char* git_sha;    ///< short sha of the built checkout, "unknown" outside git
  const char* sanitizer;  ///< PICOLA_SANITIZE value ("OFF", "address", "thread")
  bool obs_compiled;      ///< false under -DPICOLA_OBS_DISABLED
  bool fault_compiled;    ///< false under -DPICOLA_FAULT_DISABLED
};

/// The identity of this binary (constant for the process lifetime).
const BuildInfo& build_info();

/// {"version":...,"git_sha":...,"sanitizer":...,"obs":bool,"fault":bool}
std::string build_info_json();

/// Prometheus label body: version="...",git_sha="...",sanitizer="...",
/// obs="on|off",fault="on|off" (no braces).
std::string build_info_labels();

}  // namespace picola::obs

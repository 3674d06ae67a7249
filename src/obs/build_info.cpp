#include "obs/build_info.h"

#include <sstream>

// The git sha comes from a header the build rewrites whenever HEAD moves
// (src/obs/git_sha.cmake) and the sanitizer mode from a per-file define
// (src/CMakeLists.txt), so only this translation unit rebuilds when
// either changes.
#include "picola_git_sha.h"

#ifndef PICOLA_SANITIZE_NAME
#define PICOLA_SANITIZE_NAME "OFF"
#endif

namespace picola::obs {

namespace {
constexpr const char* kVersion = "0.7.0";
}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = {
      kVersion, PICOLA_GIT_SHA, PICOLA_SANITIZE_NAME,
#ifdef PICOLA_OBS_DISABLED
      false,
#else
      true,
#endif
#ifdef PICOLA_FAULT_DISABLED
      false,
#else
      true,
#endif
  };
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  std::ostringstream os;
  os << "{\"version\":\"" << b.version << "\",\"git_sha\":\"" << b.git_sha
     << "\",\"sanitizer\":\"" << b.sanitizer << "\",\"obs\":"
     << (b.obs_compiled ? "true" : "false") << ",\"fault\":"
     << (b.fault_compiled ? "true" : "false") << "}";
  return os.str();
}

std::string build_info_labels() {
  const BuildInfo& b = build_info();
  std::ostringstream os;
  os << "version=\"" << b.version << "\",git_sha=\"" << b.git_sha
     << "\",sanitizer=\"" << b.sanitizer << "\",obs=\""
     << (b.obs_compiled ? "on" : "off") << "\",fault=\""
     << (b.fault_compiled ? "on" : "off") << "\"";
  return os.str();
}

}  // namespace picola::obs

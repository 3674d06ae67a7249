# Writes OUTPUT, a header defining PICOLA_GIT_SHA as the short sha of the
# checkout at SOURCE_DIR ("unknown" outside git).  Run on every build
# (src/CMakeLists.txt); the header is rewritten only when the sha
# changes, so obs/build_info.cpp recompiles after a commit and nothing
# recompiles otherwise.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()
set(text "#define PICOLA_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUTPUT}" "${text}")
endif()

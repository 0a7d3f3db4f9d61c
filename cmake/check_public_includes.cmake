# Header-hygiene check, part 2: the public-facing consumers — every example
# and every tool binary (opaq_cli, opaq_noded, ...) — must compile against
# the include/opaq/ facade ONLY. Any quoted include of an internal src/
# layer (core/..., io/..., util/..., ...) fails the build with a pointer at
# the offending line.
#
# Part 3: the tool binaries open datasets only through the one opener
# (ProbeKeyType -> VisitKeyType -> Source<K>::Open). A src/tools/*.cc line
# that switches on a key type, reads an on-disk header struct, or opens a
# file format directly fails the build, so per-layout openers cannot grow
# back.
#
# Part 4: every wire codec reads and writes payloads through the one
# bounds-checked cursor in src/net/wire.h (PayloadReader / PayloadWriter).
# A memcpy anywhere else in src/net/ fails the build, so hand-rolled
# offset arithmetic cannot grow back.
#
# Run as:  cmake -DREPO_ROOT=<repo> -P cmake/check_public_includes.cmake

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "pass -DREPO_ROOT=<repository root>")
endif()

file(GLOB consumers
     ${REPO_ROOT}/examples/*.cpp
     ${REPO_ROOT}/src/tools/*.cc)

set(violations "")
foreach(source IN LISTS consumers)
  file(STRINGS ${source} includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS includes)
    string(REGEX MATCH "\"([^\"]+)\"" _ "${line}")
    set(path "${CMAKE_MATCH_1}")
    if(NOT path MATCHES "^opaq/")
      file(RELATIVE_PATH rel ${REPO_ROOT} ${source})
      string(APPEND violations
             "  ${rel}: #include \"${path}\" (use the opaq/ facade)\n")
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
          "public-surface consumers include internal headers:\n${violations}"
          "Examples and the src/tools binaries must include only "
          "\"opaq/...\" headers.")
endif()

file(GLOB tools ${REPO_ROOT}/src/tools/*.cc)
string(CONCAT opener_pattern
       "case KeyType::|DataFileHeader|StripeFileHeader|ExtentFileHeader|"
       "TypedDataFile<|StripedDataFile<|ExtentFile::Open")
foreach(source IN LISTS tools)
  file(STRINGS ${source} hits REGEX "${opener_pattern}")
  foreach(line IN LISTS hits)
    string(REGEX MATCH "${opener_pattern}" token "${line}")
    file(RELATIVE_PATH rel ${REPO_ROOT} ${source})
    string(APPEND violations "  ${rel}: ${token}\n")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
          "tool binaries open datasets by hand:\n${violations}"
          "Open data with ProbeKeyType, VisitKeyType and Source<K>::Open "
          "(opaq/source.h) instead.")
endif()

file(GLOB net_sources ${REPO_ROOT}/src/net/*.h ${REPO_ROOT}/src/net/*.cc)
list(REMOVE_ITEM net_sources ${REPO_ROOT}/src/net/wire.h)
foreach(source IN LISTS net_sources)
  file(STRINGS ${source} hits REGEX "memcpy")
  foreach(line IN LISTS hits)
    file(RELATIVE_PATH rel ${REPO_ROOT} ${source})
    string(STRIP "${line}" line)
    string(APPEND violations "  ${rel}: ${line}\n")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
          "wire code copies payload bytes by hand:\n${violations}"
          "Read and write payloads with PayloadReader / PayloadWriter "
          "(src/net/wire.h) instead.")
endif()

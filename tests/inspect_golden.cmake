# InspectGolden: runs locmps-inspect once and compares what it printed
# with the committed expectation tests/inspect_golden/<CASE>.txt: the exit
# code, stdout, stderr and the SHA-256 of each file the run writes with
# --report-out or --diff-json. Masked before the comparison: the plain
# mode's "planning <s> s" wall-clock time, the HH:MM:SS prefix of log
# lines, and the work and source directories, which print as <work> and
# <src>. On a mismatch the actual text is left in <work>/<CASE>.actual;
# copying it over the expectation re-pins the case.
#
#   cmake -DINSPECT=<locmps-inspect> -DCASE=<name> -DARGS="<argv>"
#         -DWORK=<dir> -DGOLDEN_DIR=<dir> -DSOURCE_DIR=<repo root>
#         -P tests/inspect_golden.cmake
#
# ARGS is one space-separated string; "<work>" and "<src>" in it expand
# to WORK and SOURCE_DIR.

foreach(var INSPECT CASE ARGS WORK GOLDEN_DIR SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "inspect_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK}")
string(REPLACE "<work>" "${WORK}" args "${ARGS}")
string(REPLACE "<src>" "${SOURCE_DIR}" args "${args}")
separate_arguments(argv UNIX_COMMAND "${args}")

# Files the run writes and the comparison hashes; removed first so a
# stale copy cannot pass.
set(outputs)
set(take_next OFF)
foreach(a IN LISTS argv)
  if(take_next)
    list(APPEND outputs "${a}")
    file(REMOVE "${a}")
    set(take_next OFF)
  elseif(a STREQUAL "--report-out" OR a STREQUAL "--diff-json")
    set(take_next ON)
  endif()
endforeach()

execute_process(
  COMMAND "${INSPECT}" ${argv}
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

string(REGEX REPLACE "planning        [0-9.]+ s" "planning        <s> s"
       out "${out}")
string(REGEX REPLACE "(^|\n)[0-9][0-9]:[0-9][0-9]:[0-9][0-9] " "\\1HH:MM:SS "
       err "${err}")
set(actual "exit ${rc}\n--- stdout\n${out}--- stderr\n${err}")
foreach(f IN LISTS outputs)
  if(EXISTS "${f}")
    file(SHA256 "${f}" digest)
  else()
    set(digest "missing")
  endif()
  string(APPEND actual "--- sha256 ${f}\n${digest}\n")
endforeach()
string(REPLACE "${WORK}" "<work>" actual "${actual}")
string(REPLACE "${SOURCE_DIR}" "<src>" actual "${actual}")

set(expected_file "${GOLDEN_DIR}/${CASE}.txt")
set(expected "")
if(EXISTS "${expected_file}")
  file(READ "${expected_file}" expected)
endif()
if(NOT actual STREQUAL expected)
  file(WRITE "${WORK}/${CASE}.actual" "${actual}")
  message(FATAL_ERROR
    "locmps-inspect output differs from ${expected_file}\n"
    "actual output: ${WORK}/${CASE}.actual\n${actual}")
endif()

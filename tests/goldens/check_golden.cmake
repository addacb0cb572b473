# Golden gate: runs a producer in a fresh directory, keeps the stdout
# lines that match a regex, and compares them byte for byte with a
# committed golden file.
#
#   cmake -DGOLDEN=<file> -DREGEX=<line regex> -DWORK_DIR=<dir>
#         -P check_golden.cmake -- <producer> [args...]
#
# WORK_DIR is deleted and recreated, then used as the producer's working
# directory, so relative output paths (a --results-dir, a trace file)
# never see a previous run. The check fails if the producer exits
# nonzero, if no stdout line matches REGEX, or if the matched lines
# differ from GOLDEN in any byte; on a mismatch it prints both.

foreach(var GOLDEN REGEX WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: -D${var}=... is required")
  endif()
endforeach()

set(producer)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND producer "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT producer)
  message(FATAL_ERROR "check_golden: no producer command after '--'")
endif()
list(JOIN producer " " command_line)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(stdout_file "${WORK_DIR}/stdout.txt")
execute_process(
  COMMAND ${producer}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${stdout_file}"
  ERROR_VARIABLE producer_stderr
  RESULT_VARIABLE producer_result)
if(NOT producer_result STREQUAL "0")
  message(FATAL_ERROR "check_golden: producer failed (${producer_result}): "
    "${command_line}\n${producer_stderr}")
endif()

file(STRINGS "${stdout_file}" matched REGEX "${REGEX}")
if(NOT matched)
  message(FATAL_ERROR "check_golden: no stdout line of `${command_line}` "
    "matches '${REGEX}' (full output in ${stdout_file})")
endif()
list(JOIN matched "\n" fresh)
string(APPEND fresh "\n")

file(READ "${GOLDEN}" golden)
if(NOT fresh STREQUAL golden)
  message(FATAL_ERROR "check_golden: ${GOLDEN} does not match\n"
    "--- golden\n${golden}"
    "+++ fresh (`${command_line}` | lines matching '${REGEX}')\n${fresh}")
endif()
message(STATUS "check_golden: ${GOLDEN} matches")

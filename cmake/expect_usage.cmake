# Script-mode check of a bench program's strict command line: an unknown
# flag, --threads with no value, a non-numeric --threads and each flag
# the program no longer takes (optional REMOVED list) must each exit
# with status exactly 2 and print the "usage:" line on stderr.
#
#   cmake -DEXE=<program> [-DREMOVED=<flag>[;<flag>...]] -P cmake/expect_usage.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED EXE)
  message(FATAL_ERROR "expect_usage.cmake requires -DEXE=...")
endif()

foreach(bad "--no-such-flag" "--threads" "--threads x" ${REMOVED})
  separate_arguments(args UNIX_COMMAND "${bad}")
  execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${bad}': expected exit status 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "'${bad}': no usage line on stderr; got:\n${err}")
  endif()
endforeach()
message(STATUS "every bad command line exits 2 with the usage line")

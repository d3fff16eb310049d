# Script-mode check of a program's stdout: runs EXE (with the optional
# space-separated ARGS), keeps the output lines matching the optional FILTER
# regex (every line, blank ones included, when FILTER is not given),
# and compares them with EXPECTED line by line. A mismatch fails naming
# the first line that differs.
#
#   cmake -DEXE=<program> ["-DARGS=<a b ...>"] ["-DFILTER=<regex>"] \
#         -DEXPECTED=<file> -DOUT=<file> -P cmake/compare_tour.cmake
#
# The fault-injection tour keeps its fault lines (FILTER " DC:", the
# stage columns and the verdict); dft_campaigns keeps every line.
cmake_minimum_required(VERSION 3.16)  # CMP0007: lists keep blank lines
foreach(var EXE EXPECTED OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_tour.cmake requires -D${var}=...")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

if(DEFINED FILTER)
  file(STRINGS ${OUT} got REGEX "${FILTER}")
else()
  file(STRINGS ${OUT} got)
endif()
file(STRINGS ${EXPECTED} want)
list(LENGTH got n_got)
list(LENGTH want n_want)
set(n ${n_got})
if(n_want GREATER n)
  set(n ${n_want})
endif()
set(i 0)
while(i LESS n)
  set(g "<no line>")
  set(w "<no line>")
  if(i LESS n_got)
    list(GET got ${i} g)
  endif()
  if(i LESS n_want)
    list(GET want ${i} w)
  endif()
  if(NOT g STREQUAL w)
    math(EXPR line "${i} + 1")
    message(FATAL_ERROR "line ${line} differs from ${EXPECTED}\n"
                        "  expected: ${w}\n  got:      ${g}")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
message(STATUS "all ${n_want} lines match")

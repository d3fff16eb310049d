# Script-mode check of the fault-injection tour: runs EXE, keeps the
# output lines that report a fault (those holding " DC:" — the stage
# columns and the verdict), and compares them with EXPECTED line by
# line. A mismatch fails naming the first line that differs.
#
#   cmake -DEXE=<fault_injection> -DEXPECTED=<file> -DOUT=<file> \
#         -P cmake/compare_tour.cmake
foreach(var EXE EXPECTED OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_tour.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND ${EXE} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

file(STRINGS ${OUT} got REGEX " DC:")
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
    message(FATAL_ERROR "fault line ${line} differs from ${EXPECTED}\n"
                        "  expected: ${w}\n  got:      ${g}")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
message(STATUS "all ${n_want} fault lines match")

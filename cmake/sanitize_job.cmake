# Script-mode job: configure + build + run the concurrency-sensitive
# tests (thread pool, campaign executor) in a nested build tree with
# -DLSL_SANITIZE=<address|thread>. Invoked by the sanitize_* ctest
# entries registered when LSL_SANITIZER_JOBS=ON:
#
#   cmake -DSRC_DIR=... -DBIN_DIR=... -DSANITIZER=thread \
#         -P cmake/sanitize_job.cmake
foreach(var SRC_DIR BIN_DIR SANITIZER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sanitize_job.cmake requires -D${var}=...")
  endif()
endforeach()

message(STATUS "[sanitize_job] configuring ${SANITIZER} build in ${BIN_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SRC_DIR} -B ${BIN_DIR}
          -DLSL_SANITIZE=${SANITIZER} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[sanitize_job] configure failed (${SANITIZER})")
endif()

message(STATUS "[sanitize_job] building test_util + test_spice + test_cells + test_dft + test_fault + test_digital")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BIN_DIR} --parallel
          --target test_util test_spice test_cells test_dft test_fault test_digital
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[sanitize_job] build failed (${SANITIZER})")
endif()

# SparseEngine covers the workspace/sparse-LU solve path (including the
# thread-local workspaces campaign workers share) on small netlists, and
# SolverSmoke runs the same path, source pairing included, on the full
# analog frontend and its faulted copies. The Campaign
# pattern also picks up CampaignIncremental (shared read-only
# seed bank + collapse memo under threads). Circuit, StuckCampaign,
# Compaction, CoverageCurve and Atpg run the lane-indexed arrays of the
# fault-parallel digital simulator. SolverRobustness drives the DC
# ladder through every rung to exhaustion, plus the singular-matrix
# exit and transient step halving. Dictionary and
# PinnedReference run the fault dictionary (a full-evaluation campaign
# on the pool) and the 4-thread Table-I / dictionary / full-evaluation
# record referees against the pinned references. StageOutcome holds the
# detection rule's and the stage-result derivation's unit tests.
# StampReferee runs the workspace's in-place stamp, factor and solve
# against an A-layout reference on the frontend's stage systems;
# SeedMapping and Netlist cover the position-only name tables a seed
# and a netlist copy carry.
# NewtonAllocation is
# deliberately excluded: its global operator-new counters are
# meaningless under sanitizer allocators.
message(STATUS "[sanitize_job] running ThreadPool/Campaign/Dictionary/PinnedReference/StageOutcome/McTrials/SparseEngine/StampReferee/SeedMapping/Netlist/SolverSmoke/SolverRobustness/digital tests under ${SANITIZER}")
execute_process(
  COMMAND ctest --test-dir ${BIN_DIR} -R "ThreadPool|Campaign|Dictionary|PinnedReference|StageOutcome|McTrials|SparseEngine|StampReferee|SeedMapping|Netlist|SolverSmoke|SolverRobustness|Circuit|StuckCampaign|Compaction|CoverageCurve|Atpg"
          --output-on-failure
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[sanitize_job] tests failed under ${SANITIZER}")
endif()
message(STATUS "[sanitize_job] ${SANITIZER} job passed")

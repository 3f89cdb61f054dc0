# bench_compare refuses a malformed baseline: a truncated series must exit
# 2 with a parse error naming the file, never compare or pass.
#
#   cmake -DBENCH_COMPARE=<bench_compare> -DCANDIDATE=<series.json> \
#         -DOUT_DIR=<dir> -P bench_compare_malformed.cmake
foreach(var BENCH_COMPARE CANDIDATE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_compare_malformed.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(baseline "${OUT_DIR}/malformed_baseline.json")
file(WRITE "${baseline}" "{\"workloads\": [{\"name\": \"ts_build/x\", \"best_ms\": 1.0}")
execute_process(COMMAND "${BENCH_COMPARE}" "${baseline}" "${CANDIDATE}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "malformed baseline: expected exit 2, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "malformed_baseline.json: parse error")
  message(FATAL_ERROR "malformed baseline: no parse error on stderr: ${err}")
endif()

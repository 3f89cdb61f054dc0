# Memory gate: runs `DCFT verify SYSTEM SIZE --report` and fails when the
# largest resident set size any exploration level recorded (the report's
# timeline rows, field rss_bytes) exceeds LIMIT_MIB.
#
#   cmake -DDCFT=<dcft> -DSYSTEM=<name> -DSIZE=<n> -DLIMIT_MIB=<MiB> \
#         -DOUT_DIR=<dir> -P rss_gate.cmake
foreach(var DCFT SYSTEM SIZE LIMIT_MIB OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "rss_gate.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(report "${OUT_DIR}/${SYSTEM}_${SIZE}_rss.json")
execute_process(COMMAND "${DCFT}" verify ${SYSTEM} ${SIZE} --report "${report}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${SYSTEM} ${SIZE}: exit ${rc}: ${err}")
endif()

file(READ "${report}" doc)
string(JSON n_explorations LENGTH "${doc}" timeline)
if(n_explorations EQUAL 0)
  message(FATAL_ERROR "${SYSTEM} ${SIZE}: the report has no timeline rows")
endif()
set(peak 0)
math(EXPR last_exploration "${n_explorations} - 1")
foreach(e RANGE ${last_exploration})
  string(JSON n_levels LENGTH "${doc}" timeline ${e} levels)
  if(n_levels EQUAL 0)
    continue()
  endif()
  math(EXPR last_level "${n_levels} - 1")
  foreach(l RANGE ${last_level})
    string(JSON rss GET "${doc}" timeline ${e} levels ${l} rss_bytes)
    if(rss GREATER peak)
      set(peak ${rss})
    endif()
  endforeach()
endforeach()

math(EXPR limit "${LIMIT_MIB} * 1048576")
math(EXPR peak_mib "${peak} / 1048576")
if(peak EQUAL 0)
  message(FATAL_ERROR "${SYSTEM} ${SIZE}: no rss_bytes recorded")
elseif(peak GREATER limit)
  message(FATAL_ERROR "${SYSTEM} ${SIZE}: peak timeline rss ${peak_mib} MiB "
                      "(${peak} bytes) exceeds ${LIMIT_MIB} MiB")
endif()
message(STATUS "${SYSTEM} ${SIZE}: peak timeline rss ${peak_mib} MiB "
               "(limit ${LIMIT_MIB} MiB)")

# Golden outputs of the verdict grid: for every <system>_<size>.txt in
# GOLDEN_DIR, runs `DCFT verify <system> <size>` and requires its stdout to
# equal the file byte for byte. Each file is one catalog system at its
# gridbench catalog-grid size.
#
#   cmake -DDCFT=<dcft> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> \
#         -P check_golden.cmake
#
# A mismatching run's stdout is written to OUT_DIR/<system>_<size>.txt, so
# `diff -u GOLDEN_DIR/<file> OUT_DIR/<file>` shows the change. When a change
# to an output is intended, copy that file over the golden one and list the
# changed lines in CHANGES.md.
foreach(var DCFT GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
if(NOT goldens)
  message(FATAL_ERROR "no golden files in ${GOLDEN_DIR}")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

set(mismatches "")
foreach(golden ${goldens})
  get_filename_component(file "${golden}" NAME)
  if(NOT file MATCHES "^(.+)_([0-9]+)\\.txt$")
    message(FATAL_ERROR "golden file name is not <system>_<size>.txt: ${file}")
  endif()
  set(system "${CMAKE_MATCH_1}")
  set(size "${CMAKE_MATCH_2}")
  execute_process(COMMAND "${DCFT}" verify ${system} ${size}
                  OUTPUT_VARIABLE got
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  file(READ "${golden}" want)
  if(NOT rc EQUAL 0)
    list(APPEND mismatches "${system} ${size} (exit ${rc}: ${err})")
  elseif(NOT got STREQUAL want)
    file(WRITE "${OUT_DIR}/${file}" "${got}")
    list(APPEND mismatches "${system} ${size} (see ${OUT_DIR}/${file})")
  else()
    message(STATUS "ok ${system} ${size}")
  endif()
endforeach()

if(mismatches)
  list(JOIN mismatches "\n  " lines)
  message(FATAL_ERROR "dcft verify stdout differs from tests/golden:\n  ${lines}")
endif()

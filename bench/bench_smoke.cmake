# ctest driver for the bench --smoke modes: runs the perf binaries on
# tiny inputs and fails if any assert-only pass fails. Invoked as
#   cmake -DPERF_BATCH=<path> -DPERF_PLAN=<path> -DPERF_DAEMON=<path> \
#         -DPERF_SYNTHETIC=<path> -P bench_smoke.cmake

foreach(bin IN ITEMS "${PERF_BATCH}" "${PERF_PLAN}" "${PERF_DAEMON}"
                     "${PERF_SYNTHETIC}")
  if(NOT EXISTS "${bin}")
    message(FATAL_ERROR "bench_smoke: missing binary '${bin}'")
  endif()
  execute_process(COMMAND "${bin}" --smoke RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "bench_smoke: '${bin} --smoke' failed (${rc})\n${out}${err}")
  endif()
  message(STATUS "${out}")
endforeach()

# Fails when a doc quotes a stale serving headline: every "N.NNM req/s",
# "p50 N µs" and "p99 N µs" in the docs below must match the committed
# BENCH_server_qps.json (req/s in millions to two decimals, latencies in
# whole microseconds), and each doc must quote the req/s and p99 figures
# at least once. Re-recording the baseline then fails this test until the
# docs are updated with it.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/doc_figures.cmake
cmake_minimum_required(VERSION 3.21)
set(docs README.md docs/PERFORMANCE.md docs/SERVER.md)

file(READ "${SOURCE_DIR}/BENCH_server_qps.json" bench_json)
string(JSON ops GET "${bench_json}" results 0 ops_per_sec)
string(JSON json_p50 GET "${bench_json}" results 0 latency_us p50)
string(JSON json_p99 GET "${bench_json}" results 0 latency_us p99)

# Rounds a non-negative decimal string to the nearest integer.
function(round_decimal value out)
  string(REGEX MATCH "^([0-9]+)(\\.([0-9]))?" _ "${value}")
  set(rounded "${CMAKE_MATCH_1}")
  if(CMAKE_MATCH_3 GREATER_EQUAL 5)
    math(EXPR rounded "${rounded} + 1")
  endif()
  set(${out} "${rounded}" PARENT_SCOPE)
endfunction()

round_decimal("${ops}" ops_int)
math(EXPR centi_millions "(${ops_int} + 5000) / 10000")
math(EXPR qps_whole "${centi_millions} / 100")
math(EXPR qps_frac "${centi_millions} % 100")
if(qps_frac LESS 10)
  set(qps_frac "0${qps_frac}")
endif()
set(want_qps "${qps_whole}.${qps_frac}M req/s")
round_decimal("${json_p50}" p50_int)
round_decimal("${json_p99}" p99_int)
set(want_p50 "p50 ${p50_int} µs")
set(want_p99 "p99 ${p99_int} µs")

foreach(doc IN LISTS docs)
  file(READ "${SOURCE_DIR}/${doc}" text)
  # A quote may wrap across lines; compare with line breaks as spaces.
  string(REGEX REPLACE "[ \n]+" " " text "${text}")
  foreach(kind qps p50 p99)
    if(kind STREQUAL "qps")
      set(pattern "[0-9]+\\.[0-9]+M req/s")
    else()
      set(pattern "${kind} [0-9]+ µs")
    endif()
    string(REGEX MATCHALL "${pattern}" quotes "${text}")
    foreach(quote IN LISTS quotes)
      if(NOT quote STREQUAL want_${kind})
        message(FATAL_ERROR "${doc} quotes '${quote}', but "
                "BENCH_server_qps.json says '${want_${kind}}'")
      endif()
    endforeach()
    if(NOT kind STREQUAL "p50" AND NOT quotes)
      message(FATAL_ERROR "${doc} no longer quotes '${want_${kind}}'")
    endif()
  endforeach()
endforeach()

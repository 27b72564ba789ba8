# Fails when tools/bench_compare.py's STATS_FIELDS is not exactly the keys
# of kCacheStatsFields (src/obs/cache_stats.h), in the same order. The C++
# table is the STATS wire order; the Python copy validates the bench JSON
# "stats" blocks written from it.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/stats_fields.cmake
cmake_minimum_required(VERSION 3.21)

file(READ "${SOURCE_DIR}/src/obs/cache_stats.h" header)
string(REGEX MATCH "kCacheStatsFields\\[\\] = {[^;]*};" table "${header}")
if(NOT table)
  message(FATAL_ERROR "no kCacheStatsFields table in src/obs/cache_stats.h")
endif()
string(REGEX MATCHALL "{\"[a-z0-9_]+\", &CacheStats::" rows "${table}")
set(cpp_keys "")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^{\"([a-z0-9_]+)\".*" "\\1" key "${row}")
  list(APPEND cpp_keys "${key}")
endforeach()

file(READ "${SOURCE_DIR}/tools/bench_compare.py" script)
string(REGEX MATCH "\nSTATS_FIELDS = \\([^)]*\\)" tuple "${script}")
if(NOT tuple)
  message(FATAL_ERROR "no STATS_FIELDS tuple in tools/bench_compare.py")
endif()
string(REGEX MATCHALL "\"[a-z0-9_]+\"" quoted "${tuple}")
set(py_keys "")
foreach(item IN LISTS quoted)
  string(REPLACE "\"" "" key "${item}")
  list(APPEND py_keys "${key}")
endforeach()

if(NOT cpp_keys STREQUAL py_keys)
  message(FATAL_ERROR "tools/bench_compare.py STATS_FIELDS differs from "
          "kCacheStatsFields:\n  C++:    ${cpp_keys}\n  Python: ${py_keys}")
endif()
list(LENGTH cpp_keys count)
message(STATUS "STATS_FIELDS matches kCacheStatsFields (${count} keys)")

# Runs qdlpd with one malformed or out-of-range flag at a time; each run
# must print the usage line and exit 2 (not abort, not start serving).
# --arena-mb=0 would leave the engine metadata-only, serving empty values;
# --shards=64 splits the default 256 MiB arena into 4 MiB domains, below
# the 8 MiB each domain needs.
set(bad_flags
  --port=abc --port= --port=-1 --port=+1 --port=70000 --port=7070x
  --capacity=0 --capacity=1 --capacity=2147483648 --capacity=abc
  --workers=0 --workers=-1 --shards=0 --stripes=0
  --arena-mb=0 --arena-mb=32769 --arena-mb=18446744073709551615
  --shards=64
  --arena-mb=99999999999999999999 --no-such-flag=1 --port)
foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND "${QDLPD_BIN}" "${flag}"
                  RESULT_VARIABLE result
                  ERROR_VARIABLE stderr
                  OUTPUT_QUIET
                  TIMEOUT 10)
  if(NOT result STREQUAL "2")
    message(FATAL_ERROR "qdlpd ${flag}: expected exit 2, got '${result}'")
  endif()
  if(NOT stderr MATCHES "usage: qdlpd")
    message(FATAL_ERROR "qdlpd ${flag}: no usage line on stderr")
  endif()
endforeach()

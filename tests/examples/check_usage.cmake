# Example argument ctest (`ctest -L examples`): runs one example with one bad
# positional argument and requires exit 2, one stderr line (the usage line)
# and nothing on stdout, i.e. the example ran nothing. Run via
#   cmake -DEXAMPLE=<binary> -DARGS=<argument list> -P check_usage.cmake

execute_process(
  COMMAND ${EXAMPLE} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code
  TIMEOUT 10)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT code EQUAL 2 OR NOT lines EQUAL 1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE} ${ARGS}: expected exit 2 and one stderr "
                      "line, got exit ${code}\nstderr:\n${err}\n"
                      "stdout:\n${out}")
endif()

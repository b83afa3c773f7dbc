# Example ctest (`ctest -L examples`): runs one example at its default
# arguments, requires exit 0 (each example returns 1 with one stderr line
# when the claim it prints does not hold), and compares the SHA-256 of its
# stdout with the pinned value. After an intentional change to an example's
# output, print the new hash instead of failing:
#   PSN_GOLDEN_PRINT=1 ctest -L examples -V
# Run via
#   cmake -DEXAMPLE=<binary> -DSHA256=<pinned hash> -P check_stdout.cmake

execute_process(
  COMMAND ${EXAMPLE}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE}: exit ${code}\n${err}")
endif()

string(SHA256 got "${out}")
if(DEFINED ENV{PSN_GOLDEN_PRINT})
  message(STATUS "${EXAMPLE}: stdout sha256 ${got}")
elseif(NOT got STREQUAL SHA256)
  message(FATAL_ERROR "${EXAMPLE}: stdout sha256 ${got}, pinned ${SHA256}\n"
                      "--- stdout ---\n${out}")
endif()

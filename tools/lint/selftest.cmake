# psn_lint self-test (ctest -L lint): the planted-violation fixtures must
# produce byte-for-byte the findings in testdata/expected.txt (exit 1), and
# the clean fixture alone must produce nothing (exit 0). Run via
#   cmake -DPSN_LINT=<binary> -DFIXTURES=<testdata dir> -P selftest.cmake

set(BAD_FILES
  src/sim/bad_determinism.cpp
  src/sim/bad_hot_alloc.cpp
  src/sim/clean.cpp
  src/sim/fault_bad_order.cpp
  src/sim/fault_bad_locale.cpp
  src/check/bad_range_for.cpp
  src/serve/bad_locale.cpp)

execute_process(
  COMMAND ${PSN_LINT} --root . ${BAD_FILES}
  WORKING_DIRECTORY ${FIXTURES}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "psn_lint on violation fixtures: expected exit 1, "
                      "got ${code}\noutput:\n${got}")
endif()
file(READ ${FIXTURES}/expected.txt want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "psn_lint findings diverged from expected.txt.\n"
                      "--- got ---\n${got}\n--- want ---\n${want}")
endif()

execute_process(
  COMMAND ${PSN_LINT} --root . src/sim/clean.cpp
  WORKING_DIRECTORY ${FIXTURES}
  OUTPUT_VARIABLE clean_out
  RESULT_VARIABLE clean_code)
if(NOT clean_code EQUAL 0 OR NOT clean_out STREQUAL "")
  message(FATAL_ERROR "psn_lint on the clean fixture: expected silent exit "
                      "0, got ${clean_code}\noutput:\n${clean_out}")
endif()

message(STATUS "psn_lint selftest passed")

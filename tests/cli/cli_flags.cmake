# psn_cli numeric-flag test: every numeric flag of run, check and serve is
# parsed strictly. A sign on an unsigned value, trailing characters, or an
# out-of-range number must exit 2 with one diagnostic line on stderr, before
# anything runs, as must an unknown flag such as the removed `run --check`
# and a fault plan whose time is not finite or reaches 2^63 ns, or a serve
# idle timeout past INT_MAX ms (the TIMEOUT stops the server such a value
# used to start); a well-formed invocation still runs. Run via
#   cmake -DPSN_CLI=<psn_cli binary> -P cli_flags.cmake

set(bad_invocations
  "run --doors -2"
  "run --reps -1"
  "run --seed 12abc"
  "run --doors 99999999999999999999999"
  "run --delta 99999999999999"
  "run --check"
  "run --rate nan"
  "run --ge 0.1,0.2,x,0.3"
  "check --rate fast"
  "check --seconds 60s"
  "serve --procs 1x"
  "serve --max-buffer -64"
  "run --faults crash:2@inf+4"
  "run --faults crash:2@nan+4"
  "run --faults crash:2@1e300+4"
  "serve --listen 0 --idle-timeout 1e300"
  "serve --listen 0 --idle-timeout 3000000")

foreach(invocation IN LISTS bad_invocations)
  separate_arguments(args UNIX_COMMAND "${invocation}")
  execute_process(
    COMMAND ${PSN_CLI} ${args}
    INPUT_FILE /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 10)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT code EQUAL 2 OR NOT lines EQUAL 1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "psn_cli ${invocation}: expected exit 2 and one "
                        "stderr line, got exit ${code}\nstderr:\n${err}\n"
                        "stdout:\n${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${PSN_CLI} run --doors 2 --seconds 5 --seed 3 --rate 2.5
          --threads 1 --ge 0.05,0.3,0.01,0.6
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0 OR NOT out MATCHES "doors=2 .* seed=3 ")
  message(FATAL_ERROR "valid run: expected exit 0, got ${code}\n"
                      "stderr:\n${err}\nstdout:\n${out}")
endif()

message(STATUS "psn_cli numeric-flag test passed")

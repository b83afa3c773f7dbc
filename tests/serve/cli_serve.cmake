# psn_cli serve end-to-end test (ctest -L serve): stdin is one serve
# session. A `run --trace -` piped into `serve` must verify clean (exit 0,
# eof verdict clean), and a stdin line longer than --max-buffer must be
# rejected in strict mode (exit 3) and counted and skipped in lenient mode
# (exit 0). Run via
#   cmake -DPSN_CLI=<psn_cli binary> -DWORK=<scratch dir> -P cli_serve.cmake

execute_process(
  COMMAND ${PSN_CLI} run --doors 4 --seconds 60 --threads 1 --trace -
  COMMAND ${PSN_CLI} serve --procs 5
  OUTPUT_VARIABLE piped
  ERROR_VARIABLE piped_err
  RESULTS_VARIABLE codes)
if(NOT codes STREQUAL "0;0")
  message(FATAL_ERROR "run | serve: expected exits 0;0, got ${codes}\n"
                      "stderr:\n${piped_err}\nstdout tail:\n${piped}")
endif()
if(NOT piped MATCHES "\\{\"event\":\"eof\",\"verdict\":\"clean\",")
  message(FATAL_ERROR "run | serve: no clean eof verdict\n${piped}")
endif()

# One 200-byte line over a 64-byte cap, then one valid record.
string(REPEAT "x" 200 overlong)
set(input "${WORK}/cli_serve_overlong.jsonl")
file(WRITE ${input}
  "${overlong}\n{\"t\":1.0,\"kind\":\"sense\",\"pid\":1,\"seq\":1}\n")

execute_process(
  COMMAND ${PSN_CLI} serve --max-buffer 64
  INPUT_FILE ${input}
  OUTPUT_VARIABLE strict
  RESULT_VARIABLE strict_code)
if(NOT strict_code EQUAL 3 OR NOT strict MATCHES "exceeds --max-buffer")
  message(FATAL_ERROR "strict overlong line: expected exit 3 and a reject, "
                      "got ${strict_code}\n${strict}")
endif()

execute_process(
  COMMAND ${PSN_CLI} serve --max-buffer 64 --lenient
  INPUT_FILE ${input}
  OUTPUT_VARIABLE lenient
  RESULT_VARIABLE lenient_code)
if(NOT lenient_code EQUAL 0
   OR NOT lenient MATCHES "\"serve.rejects.overlong\":1"
   OR NOT lenient MATCHES "\"records\":1,")
  message(FATAL_ERROR "lenient overlong line: expected exit 0 with the line "
                      "counted, got ${lenient_code}\n${lenient}")
endif()

message(STATUS "psn_cli serve end-to-end test passed")

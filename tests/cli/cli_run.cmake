# psn_cli run end-to-end test. `run` simulates each seed once: --trace
# writes the trace of replication 0 from the same runs it scores, so the
# trace changes nothing else `run` prints or writes, and it is the same
# whatever the replication count. A scenario preset keeps a --doors that was
# given, even one equal to the flag's default. --trace-cap changes nothing:
# every trace is written whole. Run via
#   cmake -DPSN_CLI=<psn_cli binary> -DWORK=<scratch dir> -P cli_run.cmake

set(csv "${WORK}/cli_run.csv")
set(trace "${WORK}/cli_run.jsonl")
set(run_args run --doors 4 --seconds 20 --threads 2 --reps 2 --metrics
             --csv ${csv})

function(psn_run out_var)
  execute_process(
    COMMAND ${PSN_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 60)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "psn_cli ${ARGN}: expected exit 0, got ${code}\n"
                        "stderr:\n${err}\nstdout:\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# 1. --trace adds one trailing line and changes nothing else.
psn_run(plain ${run_args})
file(READ ${csv} plain_csv)
psn_run(traced ${run_args} --trace ${trace})
file(READ ${csv} traced_csv)
if(NOT plain_csv STREQUAL traced_csv)
  message(FATAL_ERROR "--trace changed the CSV:\n${plain_csv}\nvs\n"
                      "${traced_csv}")
endif()
string(LENGTH "${plain}" plain_length)
string(SUBSTRING "${traced}" 0 ${plain_length} traced_head)
string(SUBSTRING "${traced}" ${plain_length} -1 traced_tail)
if(NOT traced_head STREQUAL plain
   OR NOT traced_tail MATCHES "^\nwrote (.*) \\([0-9]+ records\\)\n$"
   OR NOT CMAKE_MATCH_1 STREQUAL trace)
  message(FATAL_ERROR "--trace changed stdout beyond its `wrote` line:\n"
                      "${plain}\nvs\n${traced}")
endif()

# 2. The trace is replication 0's alone.
psn_run(one run --doors 4 --seconds 20 --reps 1 --trace ${trace}.1)
psn_run(three run --doors 4 --seconds 20 --reps 3 --threads 3
              --trace ${trace}.3)
file(READ ${trace}.1 trace_one)
file(READ ${trace}.3 trace_three)
if(trace_one STREQUAL "" OR NOT trace_one STREQUAL trace_three)
  message(FATAL_ERROR "--trace differs between --reps 1 and --reps 3")
endif()

# 3. The city preset keeps a given --doors 4.
psn_run(city run --scenario city --doors 4 --seconds 1)
if(NOT city MATCHES "^scenario=city doors=4 ")
  message(FATAL_ERROR "--scenario city --doors 4: expected doors=4\n${city}")
endif()

# 4. Every trace is whole: --trace-cap is inert, and a cap far below the
#    run's record count neither truncates the trace nor breaks its replay.
psn_run(uncapped run --doors 6 --seconds 60 --trace ${trace}.A)
psn_run(capped run --doors 6 --seconds 60 --trace-cap 5000 --trace ${trace}.B)
file(READ ${trace}.A trace_a)
file(READ ${trace}.B trace_b)
if(trace_a STREQUAL "" OR NOT trace_a STREQUAL trace_b)
  message(FATAL_ERROR "--trace-cap 5000 changed the trace")
endif()
execute_process(
  COMMAND ${PSN_CLI} serve --procs 7
  INPUT_FILE ${trace}.B
  OUTPUT_VARIABLE served
  RESULT_VARIABLE served_code)
if(NOT served_code EQUAL 0
   OR NOT served MATCHES "\\{\"event\":\"eof\",\"verdict\":\"clean\",")
  message(FATAL_ERROR "serve of the --trace-cap 5000 trace: expected a clean "
                      "eof, got exit ${served_code}\n${served}")
endif()

message(STATUS "psn_cli run end-to-end test passed")

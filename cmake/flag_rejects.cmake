# Negative-flag rejection: runs `ldpr run` (LDPR_CLI) or `ldpr_bench`
# (LDPR_BENCH) with one negative count flag at a time and fails unless
# each run exits 1 with an `error:` line naming the flag.  The exit
# code is checked explicitly: a crash (abort, rc 134) or a silent
# fallback to the default (rc 0) both fail, which a WILL_FAIL test
# would not tell apart.
#
# Usage: cmake -DLDPR_CLI=<path> -P flag_rejects.cmake
#        cmake -DLDPR_BENCH=<path> -P flag_rejects.cmake

# expect_rejected(<flag> <command...>): the command must exit 1 and
# print "error: ... --<flag> ..." on stderr.
function(expect_rejected flag)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--${flag}: expected exit 1, got rc=${rc}\n"
                        "command: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "error: [^\n]*--${flag}")
    message(FATAL_ERROR "--${flag}: stderr does not name the flag\n"
                        "command: ${ARGN}\n${err}")
  endif()
endfunction()

if(LDPR_CLI)
  # A tiny run, so a flag that slips through finishes (rc 0) quickly.
  set(run ${LDPR_CLI} run --protocol=GRR --attack=MGA --dataset=zipf
          --d=16 --n=1000)
  expect_rejected(trials ${run} --trials=-1)
  expect_rejected(threads ${run} --threads=-2)
elseif(LDPR_BENCH)
  set(bench ${LDPR_BENCH} --scenario=table1 --scale=0.01)
  expect_rejected(trials ${bench} --trials=-3)
  expect_rejected(seed ${bench} --seed=-1)
  expect_rejected(threads ${bench} --threads=-5)
else()
  message(FATAL_ERROR "LDPR_CLI or LDPR_BENCH must be set")
endif()

# Flag rejection: runs `ldpr` (LDPR_CLI) or `ldpr_bench` (LDPR_BENCH)
# with one bad flag value at a time — a negative count, a bad boolean,
# a shape override the dataset cannot take, an unparsable LDPR_THREADS
# — and fails unless each run exits 1 with an `error:` line naming the
# flag or variable.  The exit code is checked explicitly: a crash
# (abort, rc 134) or a silent fallback to the default (rc 0) both
# fail, which a WILL_FAIL test would not tell apart.
#
# Commands that take no operands must also reject a stray one (a
# `positional` case), where they used to run and ignore it.
#
# Usage: cmake -DLDPR_CLI=<path> -P flag_rejects.cmake
#        cmake -DLDPR_BENCH=<path> [-DLDPR_AGG_BENCH=<path>]
#              -P flag_rejects.cmake

# expect_rejected(<name> <command...>): the command must exit 1 and
# print "error: ... <name> ..." on stderr.
function(expect_rejected name)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${name}: expected exit 1, got rc=${rc}\n"
                        "command: ${ARGN}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "error: [^\n]*${name}")
    message(FATAL_ERROR "${name}: stderr does not name it\n"
                        "command: ${ARGN}\n${err}")
  endif()
endfunction()

if(LDPR_CLI)
  # Tiny runs, so a flag that slips through finishes (rc 0) quickly.
  set(run ${LDPR_CLI} run --protocol=GRR --attack=MGA --dataset=zipf
          --d=16 --n=1000)
  expect_rejected(--trials ${run} --trials=-1)
  expect_rejected(--threads ${run} --threads=-2)
  expect_rejected(--seed ${run} --seed=-1)
  expect_rejected(--targets ${run} --attack=AA --targets=-1)
  expect_rejected(--dataset ${LDPR_CLI} run --dataset=ipums --d=5
                  --scale=0.01 --trials=1)
  expect_rejected(LDPR_THREADS ${CMAKE_COMMAND} -E env LDPR_THREADS=abc
                  ${run} --trials=1)
  set(stream ${LDPR_CLI} stream --protocol=GRR --dataset=zipf --d=16
             --n=1000)
  expect_rejected(--window ${stream} --window=-5)
  expect_rejected(--stride ${stream} --stride=-2)
  expect_rejected(positional ${run} --trials=1 extra)
  expect_rejected(positional ${stream} extra)
  expect_rejected(positional ${LDPR_CLI} list extra)
elseif(LDPR_BENCH)
  set(bench ${LDPR_BENCH} --scenario=table1 --scale=0.01)
  expect_rejected(--trials ${bench} --trials=-3)
  expect_rejected(--seed ${bench} --seed=-1)
  expect_rejected(--threads ${bench} --threads=-5)
  expect_rejected(--list ${LDPR_BENCH} --list=maybe)
  expect_rejected(positional ${LDPR_BENCH} --list true)
  expect_rejected(positional ${bench} --trials=1 extra)
  if(LDPR_AGG_BENCH)
    expect_rejected(positional ${LDPR_AGG_BENCH} --protocol=GRR --d=16
                    --reports=64 --reps=1 extra)
  endif()
else()
  message(FATAL_ERROR "LDPR_CLI or LDPR_BENCH must be set")
endif()

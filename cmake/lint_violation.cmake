# End-to-end liveness probes for the cross-TU lint rules: plant one
# seeded violation per rule in a scratch tree, run the real ldpr_lint
# binary, and require exit 1 with a finding naming the file, the line,
# and the rule id.  RULE=fix instead exercises the
# --fix=header-guards round trip (dry-run gates, a bare --apply rewrites,
# the rewritten tree lints clean and a second dry-run is empty).
#
# Usage: cmake -DLDPR_LINT=<path> -DRULE=<R6|R7|R8|fix>
#        -DWORK_DIR=<dir> -P lint_violation.cmake

if(NOT LDPR_LINT OR NOT RULE OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_LINT, RULE, and WORK_DIR must be set")
endif()

set(tree "${WORK_DIR}/${RULE}")
file(REMOVE_RECURSE "${tree}")
file(MAKE_DIRECTORY "${tree}/src")

# Every scratch tree carries the layer contract so R6 is armed.
file(WRITE "${tree}/ci/lint_layers.txt" "util\nldp\n")

if(RULE STREQUAL "R6")
  # util (layer 0) reaches up into ldp (layer 1).
  file(WRITE "${tree}/src/ldp/b.h"
       "#ifndef LDPR_LDP_B_H_\n#define LDPR_LDP_B_H_\n#endif\n")
  file(WRITE "${tree}/src/util/a.cc" "#include \"ldp/b.h\"\nint x;\n")
  set(expect "src/util/a.cc:1: [R6]")
elseif(RULE STREQUAL "R7")
  file(WRITE "${tree}/src/util/a.cc"
       "void F(ThreadPool& pool, size_t n) {\n"
       "  double total = 0.0;\n"
       "  pool.ParallelFor(0, n, [&](size_t i) {\n"
       "    total += Work(i);\n"
       "  });\n"
       "}\n")
  set(expect "src/util/a.cc:4: [R7]")
elseif(RULE STREQUAL "R8")
  file(WRITE "${tree}/src/util/a.cc" "void F() {\n  Rng rng(123);\n}\n")
  set(expect "src/util/a.cc:2: [R8]")
elseif(RULE STREQUAL "fix")
  file(WRITE "${tree}/src/util/a.h"
       "#ifndef BAD_GUARD_H\n#define BAD_GUARD_H\n#endif  // BAD_GUARD_H\n")
else()
  message(FATAL_ERROR "unknown RULE '${RULE}'")
endif()

if(RULE STREQUAL "fix")
  execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist=
                          --fix=header-guards src
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "dry-run with a pending fix must exit 1 (rc=${rc})\n${out}")
  endif()
  string(FIND "${out}" "BAD_GUARD_H -> LDPR_UTIL_A_H_" planned)
  if(planned EQUAL -1)
    message(FATAL_ERROR "dry-run did not plan the guard rename\n${out}")
  endif()

  execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist=
                          --fix=header-guards --apply src
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--apply failed (rc=${rc})\n${out}")
  endif()
  file(READ "${tree}/src/util/a.h" rewritten)
  string(FIND "${rewritten}" "LDPR_UTIL_A_H_" renamed)
  string(FIND "${rewritten}" "BAD_GUARD_H" leftover)
  if(renamed EQUAL -1 OR NOT leftover EQUAL -1)
    message(FATAL_ERROR "apply did not rewrite the guard\n${rewritten}")
  endif()

  # The rewritten tree lints clean and the fix planner is drained.
  execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist= src
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rewritten tree does not lint clean\n${out}")
  endif()
  execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist=
                          --fix=header-guards src
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "second dry-run not idempotent (rc=${rc})")
  endif()
  message(STATUS "lint fix round trip: dry-run gated, apply converged")
  return()
endif()

execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist= src
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "seeded ${RULE} violation must exit 1 (rc=${rc})\n${out}\n${err}")
endif()
string(FIND "${out}" "${expect}" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "seeded ${RULE} violation not reported as '${expect}'\n${out}")
endif()
message(STATUS "lint violation ${RULE}: caught as '${expect}'")

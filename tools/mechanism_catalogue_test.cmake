# Every subcommand that takes a mechanism name resolves it through the one
# catalogue (auction::make_mechanism): a name outside online, offline and
# second-price -- among them the retired batched and posted(P) -- exits 1
# with the catalogue's one error message on stderr.

# expect_unknown(<name> <mcs_cli args>...)
function(expect_unknown name)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "mcs_cli ${args}: want exit 1, got ${code}:\n${out}\n${err}")
  endif()
  set(want "error: unknown mechanism '${name}' (known: online, offline, second-price)")
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mcs_cli ${args}: stderr lacks \"${want}\":\n${err}")
  endif()
endfunction()

set(SCENARIO ${WORKDIR}/mechanism_catalogue_test.mcs)
execute_process(COMMAND ${CLI} generate --out ${SCENARIO} --slots 6 --seed 3
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE code
                OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed (${code})")
endif()

expect_unknown(batched run --file ${SCENARIO} --mechanism batched)
expect_unknown(batched econ-report --mechanisms batched --rounds 1)
expect_unknown("posted(10)" arena --mechanisms "posted(10)" --rounds 1)
file(REMOVE ${SCENARIO})

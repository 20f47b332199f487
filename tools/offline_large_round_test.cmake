# The offline mechanism on a serve-scale round: generate the large-rounds
# shape (200 slots, lambda 12, lambda_t 6; 2,340 phones and 1,242 tasks)
# and require the welfare and total payment the Hungarian solver computed
# for it, so the greedy matching keeps Section IV's optimum at scale.
set(SCENARIO ${WORKDIR}/offline_large_round_test.mcs)
execute_process(COMMAND ${CLI} generate --out ${SCENARIO} --seed 7 --slots 200
                        --lambda 12 --lambda-t 6
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE code
                OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed (${code})")
endif()

execute_process(COMMAND ${CLI} run --file ${SCENARIO} --mechanism offline
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE ${SCENARIO})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "run --mechanism offline failed (${code}):\n${out}\n${err}")
endif()
foreach(want "social welfare: +44829\n" "total payment: +33877\n")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "run --mechanism offline lacks \"${want}\":\n${out}")
  endif()
endforeach()

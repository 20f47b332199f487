# A round whose agent id asks for more memory than the process may have
# must fail as a stream error (--admission block: exit 1 with "error:") or
# as a dropped round (--admission reject: exit 0, reported on the console),
# never abort the process.
# The address-space cap turns the 8 GiB per-agent table of agent
# 2147483646 into a std::bad_alloc in the shard worker.

set(STREAM ${WORKDIR}/serve_bad_alloc_test.jsonl)
file(WRITE ${STREAM} [=[
{"schema":"mcs.serve.v1"}
{"ev":"round_open","round":0,"slots":3,"value":"50"}
{"ev":"task_arrived","round":0,"slot":1,"task":0}
{"ev":"bid_submitted","round":0,"agent":2147483646,"from":1,"to":3,"cost":"33"}
{"ev":"slot_tick","round":0,"slot":1}
{"ev":"slot_tick","round":0,"slot":2}
{"ev":"slot_tick","round":0,"slot":3}
{"ev":"round_close","round":0}
]=])

# replay_capped(<admission> <out var> <err var> <code var>)
function(replay_capped admission out_var err_var code_var)
  execute_process(
    COMMAND sh -c "ulimit -v 1500000 && exec \"$0\" serve --replay \"$1\" --shards 1 --admission $2"
            ${CLI} ${STREAM} ${admission}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
  set(${code_var} "${code}" PARENT_SCOPE)
endfunction()

replay_capped(block out err code)
if(NOT code EQUAL 1 OR NOT err MATCHES "error: ")
  message(FATAL_ERROR "--admission block: want exit 1 with an error line, "
                      "got ${code}:\n${out}\n${err}")
endif()

replay_capped(reject out err code)
if(NOT code EQUAL 0 OR NOT out MATCHES " 0 rounds completed")
  message(FATAL_ERROR "--admission reject: want exit 0 with the round "
                      "dropped, got ${code}:\n${out}\n${err}")
endif()
# The console must say that a round was lost, although nothing was shed.
if(NOT out MATCHES "rounds lost: 1 dropped mid-flight, 0 never closed; [0-9]+ orphaned events dropped")
  message(FATAL_ERROR "--admission reject: the dropped round is not "
                      "reported:\n${out}")
endif()
file(REMOVE ${STREAM})

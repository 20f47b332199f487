# The Prometheus files of `serve --stats-prom` / `--econ-prom` must render
# the same final window as the last line of the matching JSONL stream:
# each plane's final snapshot is taken once. Runs the CLI with and without
# a stats publisher (the econ-only path writes its own tail line).

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mcs_cli ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
endfunction()

# last_json_int(<out> <file> <key>): integer `key` of the last line of `file`.
function(last_json_int out file key)
  file(STRINGS ${file} lines)
  list(GET lines -1 last)
  if(NOT last MATCHES "\"${key}\":([0-9]+)")
    message(FATAL_ERROR "${file}: no \"${key}\" in its last line:\n${last}")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

# prom_value(<out> <file> <gauge>): the value of one gauge line.
function(prom_value out file gauge)
  file(STRINGS ${file} lines REGEX "^${gauge} ")
  if(NOT lines MATCHES "^${gauge} ([0-9.e+-]+)$")
    message(FATAL_ERROR "${file}: no gauge ${gauge}")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

function(expect_equal what jsonl_value prom_value)
  if(NOT jsonl_value STREQUAL prom_value)
    message(FATAL_ERROR "${what}: last JSONL line says ${jsonl_value}, "
                        "the .prom file says ${prom_value}")
  endif()
endfunction()

function(check_live jsonl prom)
  last_json_int(window ${jsonl} window)
  prom_value(prom_window ${prom} mcs_serve_live_window)
  expect_equal("live window" ${window} ${prom_window})
  last_json_int(watermark ${jsonl} queue_watermark)
  prom_value(prom_watermark ${prom} mcs_serve_live_queue_watermark)
  expect_equal("live queue_watermark" ${watermark} ${prom_watermark})
endfunction()

function(check_econ jsonl prom)
  last_json_int(window ${jsonl} window)
  prom_value(prom_window ${prom} mcs_serve_econ_window)
  expect_equal("econ window" ${window} ${prom_window})
  last_json_int(rounds ${jsonl} rounds)
  prom_value(shard0 ${prom} mcs_serve_econ_shard_0_rounds)
  prom_value(shard1 ${prom} mcs_serve_econ_shard_1_rounds)
  math(EXPR prom_rounds "${shard0} + ${shard1}")
  expect_equal("econ window rounds" ${rounds} ${prom_rounds})
endfunction()

set(STATS ${WORKDIR}/prom_test_stats.jsonl)
set(STATS_PROM ${WORKDIR}/prom_test_stats.prom)
set(ECON ${WORKDIR}/prom_test_econ.jsonl)
set(ECON_PROM ${WORKDIR}/prom_test_econ.prom)

# With the stats publisher: it writes both tails.
run_cli(serve --rounds 64 --slots 30 --shards 2 --stats-out ${STATS}
        --stats-period-ms 20 --stats-prom ${STATS_PROM} --econ-out ${ECON}
        --econ-prom ${ECON_PROM})
check_live(${STATS} ${STATS_PROM})
check_econ(${ECON} ${ECON_PROM})

# Econ plane alone: no publisher, the CLI writes the econ tail itself.
run_cli(serve --rounds 16 --shards 2 --econ-out ${ECON}
        --econ-prom ${ECON_PROM})
check_econ(${ECON} ${ECON_PROM})

file(REMOVE ${STATS} ${STATS_PROM} ${ECON} ${ECON_PROM})

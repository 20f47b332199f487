# `serve` must reject out-of-range size flags as a runtime error: exit 1
# with "error: <what>" on stderr. A negative value must neither wrap to a
# huge unsigned size (an abort on allocation, or a trace threshold of
# 1.8e16 us) nor end in std::terminate, and a threshold too large for
# nanoseconds must not wrap either. A negative round count or probe rate
# must not silently serve or probe nothing, and a non-positive stats period
# must not end in a failed precondition, and a connection count below 1
# must not be clamped to 1 (the check runs before any listener starts, so
# these cases open no socket). An endpoint is rejected unless its port is
# the whole text after the colon.

# expect_rejected(<stderr regex> <serve args>...)
function(expect_rejected message)
  list(JOIN ARGN " " args)
  execute_process(COMMAND ${CLI} serve --rounds 2 --slots 5 ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "serve ${args}: want exit 1, got ${code}:\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "error: ${message}")
    message(FATAL_ERROR "serve ${args}: stderr lacks \"error: ${message}\":\n${err}")
  endif()
endfunction()

set(TRACE ${WORKDIR}/serve_flags_test_trace.jsonl)
set(ECON ${WORKDIR}/serve_flags_test_econ.jsonl)
set(STATS ${WORKDIR}/serve_flags_test_stats.jsonl)
expect_rejected("--queue-depth must be >= 0" --queue-depth -1)
expect_rejected("--trace-capacity must be >= 0"
                --trace-jsonl ${TRACE} --trace-capacity -1)
expect_rejected("--trace-threshold-us must be >= 0"
                --trace-jsonl ${TRACE} --trace-threshold-us -1)
expect_rejected("--trace-threshold-us is too large"
                --trace-jsonl ${TRACE} --trace-threshold-us 20000000000000000)
expect_rejected("--rounds must be >= 0" --rounds -3)
expect_rejected("--econ-probe-every must be >= 0"
                --econ-out ${ECON} --econ-probe-every -1)
expect_rejected("--stats-period-ms must be >= 1"
                --stats-out ${STATS} --stats-period-ms -5)
expect_rejected("--listen-conns must be >= 1" --listen-conns 0)
expect_rejected("--listen-conns must be >= 1" --listen-conns -2)
expect_rejected("bad endpoint" --connect 127.0.0.1:1x)
expect_rejected("bad endpoint" --listen 0x)
file(REMOVE ${TRACE} ${ECON} ${STATS})

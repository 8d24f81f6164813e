# Runs dsk_cli in one mode (kernel or serve) and checks that removed
# flags and values are usage errors (exit 2): the pipeline schedule and
# its --chunk-rows flag, and the forced sparse traffic modes and index
# codecs that Auto replaced, whose errors must name the accepted values.
#
#   cmake -DDSK_CLI=path/to/dsk_cli -DMODE=kernel|serve \
#         -P tests/cli_rejects_removed_flags.cmake
if(MODE STREQUAL "serve")
  set(prefix serve)
elseif(MODE STREQUAL "kernel")
  set(prefix "")
else()
  message(FATAL_ERROR "MODE must be kernel or serve, got '${MODE}'")
endif()

function(expect_usage_error expected)
  execute_process(COMMAND ${DSK_CLI} ${prefix} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "dsk_cli ${prefix} ${ARGN}: exit ${code}, "
                        "expected 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "dsk_cli ${prefix} ${ARGN}: stderr lacks "
                        "'${expected}'\n${err}")
  endif()
endfunction()

expect_usage_error("unknown schedule pipeline" --schedule pipeline)
expect_usage_error("unknown schedule pipelined" --schedule pipelined)
expect_usage_error("unknown option --chunk-rows" --chunk-rows 8)
expect_usage_error("unknown replication mode sparse (dense | auto)"
                   --replication sparse)
expect_usage_error("unknown propagation mode sparse (dense | auto)"
                   --propagation sparse)
expect_usage_error("unknown index codec delta-varint (raw | auto)"
                   --index-codec delta-varint)
expect_usage_error("unknown index codec bitmap (raw | auto)"
                   --index-codec bitmap)

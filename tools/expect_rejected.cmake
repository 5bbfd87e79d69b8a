# Runs "${TOOL} ${ARGS}" and passes only if the tool rejects the command
# line at entry: exit code 2, a diagnostic on stderr and nothing on stdout
# (in particular no CSV header before the error).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${err}")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS} exited ${code}, expected 2")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${TOOL} ${ARGS} printed to stdout:\n${out}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "${TOOL} ${ARGS} printed no diagnostic")
endif()

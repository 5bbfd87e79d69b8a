# Writes a checkpoint that belongs to another sweep to ${CHECKPOINT}, runs
# "${TOOL} --quick --reps 1 --jobs 1 --resume ${CHECKPOINT}" and passes only
# if the tool refuses it: a non-zero exit, a diagnostic on stderr, nothing
# on stdout (in particular no CSV header) and the file left as it was.
set(stale "{\"manifest\": \"other\", \"grid\": \"x\", \"done\": {}}\n")
file(WRITE "${CHECKPOINT}" "${stale}")
execute_process(COMMAND "${TOOL}" --quick --reps 1 --jobs 1
                        --resume "${CHECKPOINT}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${err}")
if(code EQUAL 0)
  message(FATAL_ERROR "${TOOL} accepted the stale checkpoint")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${TOOL} printed to stdout:\n${out}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "${TOOL} printed no diagnostic")
endif()
file(READ "${CHECKPOINT}" kept)
if(NOT kept STREQUAL stale)
  message(FATAL_ERROR "${TOOL} rewrote the stale checkpoint:\n${kept}")
endif()

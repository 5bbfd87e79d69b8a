# Runs docs_check over this fixture, whose README names an Options field,
# a tpio_sim flag and a source file that do not exist. Passes only if
# docs_check exits 1 and reports exactly those three rows.
execute_process(COMMAND "${DOCS_CHECK}" "${FIXTURE}" "${BUILD_DIR}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${err}${out}")
if(NOT code EQUAL 1)
  message(FATAL_ERROR "docs_check exited ${code}, expected 1")
endif()
foreach(needle "Options::retired_knob is not a field"
               "--retired-flag is accepted by neither"
               "`src/core/retired_engine.*` names no file" ", 3 broken")
  string(FIND "${err}${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "docs_check output lacks '${needle}'")
  endif()
endforeach()

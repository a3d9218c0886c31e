# ctest helper: runs `BENCH ARGS` and passes iff it exits 2 and its usage
# message names every id in IDS (space-separated).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${out}${err}")
endif()
separate_arguments(ids UNIX_COMMAND "${IDS}")
foreach(id IN LISTS ids)
  if(NOT " ${err} " MATCHES "[ \n]${id}[ \n]")
    message(FATAL_ERROR "usage does not list '${id}':\n${err}")
  endif()
endforeach()
message(STATUS "exit 2; usage lists all ids: ${err}")

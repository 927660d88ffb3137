# Runs EXE with ARGS ("|"-separated, so the list survives add_test) and
# fails unless it exits with status EXPECTED. A crash (e.g. an uncaught
# exception's SIGABRT) reports a non-numeric result and fails too.
#
#   cmake -DEXE=<path> -DARGS=--n|abc -DEXPECTED=2 -P expect_exit_code.cmake
string(REPLACE "|" ";" arg_list "${ARGS}")
execute_process(COMMAND "${EXE}" ${arg_list}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${EXE} ${arg_list}: expected exit status ${EXPECTED}, got '${rc}'\n${err}")
endif()

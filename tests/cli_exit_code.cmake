# Runs one command line and fails unless it exits with exactly EXPECT_EXIT.
#   cmake -DPROGRAM=<exe> -DARGS="<flags>" -DEXPECT_EXIT=<code> -P cli_exit_code.cmake
# A crash (e.g. an LCMP_CHECK trap) reports a signal string, never a match.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}\nexpected exit ${EXPECT_EXIT}, got '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit ${rc} as expected\n${err}")

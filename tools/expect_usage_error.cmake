# Run PROGRAM with ARGS (one space-separated string) and require a usage
# error: exit status 2 and PATTERN, the rejected argument, on stderr.
#
#   cmake -DPROGRAM=advectctl "-DARGS=launch single_task 14 3 2 --fuse 4"
#         -DPATTERN=--fuse -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, want 2 (stderr: ${err})")
endif()
string(FIND "${err}" "${PATTERN}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${PATTERN}': ${err}")
endif()

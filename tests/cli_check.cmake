# Command-line contract checks, run by ctest as
#   cmake -DTOOL=<binary> -DARGS="<args>" [-DEXPECT=<regex>]
#         [-DEXPECT_OUT=<regex>] [-DPASS_OUT=<regex>]
#         [-DARGS2="<args>" [-DSAME_STDERR=1]] -P cli_check.cmake
#
# With EXPECT: the invocation must be rejected — exit status 1 and a
# diagnostic on stderr matching EXPECT (the flag it names, or the
# failure a catch gate exists to find).
# With EXPECT_OUT: exit status 1 and stdout matching EXPECT_OUT (the
# violation a catch gate exists to find), so a crash, an assertion or
# a sanitizer report does not pass for a catch.
# With PASS_OUT: exit status 0 and stdout matching PASS_OUT, so a gate
# can require what its cell must exercise (a nonzero log-wrap count)
# besides a clean result.
# With ARGS2: both invocations must agree — same exit status, same
# stdout (e.g. two orders of the same flags), and with SAME_STDERR
# the same stderr too (e.g. a failure report).

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(DEFINED EXPECT OR DEFINED EXPECT_OUT)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "'${ARGS}': exit status ${rc}, want 1\n"
                            "stdout: ${out}\nstderr: ${err}")
    endif()
endif()
if(DEFINED EXPECT AND NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "'${ARGS}': stderr does not match "
                        "'${EXPECT}'\nstderr: ${err}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
    message(FATAL_ERROR "'${ARGS}': stdout does not match "
                        "'${EXPECT_OUT}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(DEFINED PASS_OUT)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${ARGS}': exit status ${rc}, want 0\n"
                            "stdout: ${out}\nstderr: ${err}")
    endif()
    if(NOT out MATCHES "${PASS_OUT}")
        message(FATAL_ERROR "'${ARGS}': stdout does not match "
                            "'${PASS_OUT}'\nstdout: ${out}\nstderr: ${err}")
    endif()
endif()

if(DEFINED ARGS2)
    separate_arguments(args2 UNIX_COMMAND "${ARGS2}")
    execute_process(COMMAND ${TOOL} ${args2}
        RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
    if(NOT rc EQUAL rc2 OR NOT out STREQUAL out2)
        message(FATAL_ERROR "'${ARGS}' and '${ARGS2}' disagree: exit "
                            "${rc} vs ${rc2}\n--- first\n${out}\n"
                            "--- second\n${out2}")
    endif()
    if(SAME_STDERR AND NOT err STREQUAL err2)
        message(FATAL_ERROR "'${ARGS}' and '${ARGS2}' disagree on "
                            "stderr\n--- first\n${err}\n"
                            "--- second\n${err2}")
    endif()
endif()

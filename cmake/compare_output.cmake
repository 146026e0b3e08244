# Run EXE with the space-separated ARGS and compare its stdout
# byte-for-byte with the file GOLDEN:
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -DGOLDEN=<file> -P compare_output.cmake
#
# On a mismatch the actual output is left in the working directory
# (named after the golden, with an `.actual` suffix) for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from "
                        "${GOLDEN}; see ${name}.actual")
endif()

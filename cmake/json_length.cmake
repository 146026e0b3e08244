# Run EXE with the space-separated ARGS and require its stdout to be
# a JSON object whose array member KEY holds LENGTH elements:
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -DKEY=<member> -DLENGTH=<n> -P json_length.cmake
#
# string(JSON) ignores data after the first value, so a count is what
# tells one document from several concatenated ones.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS} exited with ${status}")
endif()
string(JSON count ERROR_VARIABLE error LENGTH "${actual}" ${KEY})
if(error)
    message(FATAL_ERROR "stdout of ${EXE} ${ARGS}: ${error}")
elseif(NOT count EQUAL LENGTH)
    message(FATAL_ERROR "stdout of ${EXE} ${ARGS}: '${KEY}' holds "
                        "${count} elements, expected ${LENGTH}")
endif()

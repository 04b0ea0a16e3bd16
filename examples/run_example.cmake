# Run one example (-DEXE=<binary> -DEXPECT=<line>): fail unless it
# exits 0 and its output contains the expected line.
execute_process(COMMAND ${EXE}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} did not print '${EXPECT}':\n${out}")
endif()

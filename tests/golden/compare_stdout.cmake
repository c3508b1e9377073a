# Runs one program and compares its standard output, byte for byte, with a
# golden file. Standard error is not compared: the harnesses print their
# timings there.
#
#   cmake -DBIN=<program> "-DARGS=<arg> <arg> ..." -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_stdout.cmake
#
# On a mismatch the actual output is written to ACTUAL, so
# `diff GOLDEN ACTUAL` shows what moved.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${status}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; "
    "the actual output is in ${ACTUAL}")
endif()

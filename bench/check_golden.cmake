# Golden-output check for bench_paper's figures:
#
#   cmake -DBENCH=<exe> -DARGS=--figure=<f> -DGOLDEN=<file> -P check_golden.cmake
#
# Runs BENCH and fails unless it exits 0 and its stdout equals GOLDEN byte
# for byte. On a difference it prints a unified diff and leaves the actual
# output next to the test as <golden name>.actual.
execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} failed: ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${name}.actual")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}. A golden is "
          "regenerated only on purpose, with the reason in CHANGES.md.")
endif()

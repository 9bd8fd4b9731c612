# Golden-output gate for `ldla_cli sweep`: simulate a planted sweep on a
# fixed seed, scan it, and byte-compare stdout with the committed file
# (golden/cli_sweep.txt). Also checks that a negative --window is refused.
#
#   cmake -DCLI=<ldla_cli> -DWORK=<scratch dir> -DGOLDEN=<file> \
#         -P cli_sweep_golden.cmake
set(input ${WORK}/cli_sweep_golden.ms)
set(output ${WORK}/cli_sweep_golden.txt)

execute_process(
  COMMAND ${CLI} simulate --snps 600 --samples 120 --seed 11 --sweep 0.55
          --out ${input}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ldla_cli simulate failed (${rc})")
endif()

execute_process(
  COMMAND ${CLI} sweep ${input} --grid 30 --window 40
  OUTPUT_FILE ${output} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ldla_cli sweep failed (${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${output} ${GOLDEN}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ ${output} got)
  message(FATAL_ERROR "ldla_cli sweep output differs from ${GOLDEN}:\n${got}")
endif()

execute_process(
  COMMAND ${CLI} sweep ${input} --window -1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "must not be negative")
  message(FATAL_ERROR "sweep --window -1 was not refused (${rc}): ${err}")
endif()

# tsnfta_fuzz out=DIR: checked before any case runs. A missing DIR is
# created; a DIR that cannot be created exits 2 with a message.
#
#   cmake -DFUZZ=<tsnfta_fuzz> -DWORK=<scratch dir> -P fuzz_out_dir_test.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
file(WRITE ${WORK}/plain_file "")

execute_process(COMMAND ${FUZZ} seeds=1 duration_s=1 out=${WORK}/plain_file/sub
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT rc EQUAL 2 OR NOT err MATCHES "not a usable directory" OR out MATCHES "fuzz campaign")
  message(FATAL_ERROR "unusable out=: rc=${rc}\nstdout: ${out}\nstderr: ${err}")
endif()

execute_process(COMMAND ${FUZZ} export=0 duration_s=1 out=${WORK}/missing/nested
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK}/missing/nested/fuzz_1_0.replay)
  message(FATAL_ERROR "export to a missing out=: rc=${rc}\nstdout: ${out}\nstderr: ${err}")
endif()

execute_process(COMMAND ${FUZZ} seeds=1 duration_s=1 out=${WORK}/campaign
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT IS_DIRECTORY ${WORK}/campaign)
  message(FATAL_ERROR "campaign with a missing out=: rc=${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
file(REMOVE_RECURSE ${WORK})

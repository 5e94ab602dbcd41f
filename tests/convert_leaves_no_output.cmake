# A failed `rip_cli netlist-convert` removes its partial output.
#
#   cmake -DRIP_CLI=<rip_cli> -DIN=<netlist> -DOUT=<output> \
#         -DEXPECT=<regex> -P convert_leaves_no_output.cmake
#
# Fails unless the conversion fails with a message matching EXPECT and
# leaves no OUT behind.
file(REMOVE ${OUT})
execute_process(COMMAND ${RIP_CLI} netlist-convert --in ${IN} --out ${OUT}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "netlist-convert of ${IN} succeeded")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "netlist-convert failed with '${err}', "
    "expected '${EXPECT}'")
endif()
if(EXISTS ${OUT})
  message(FATAL_ERROR "netlist-convert failed but left ${OUT} behind")
endif()

# `rip_cli stream` reports an output or errors file it cannot open as a
# plain error: exit 2, the path named, and no "precondition failed" or
# source location.
#
#   cmake -DRIP_CLI=<rip_cli> -DIN=<netlist> -DDIR=<work dir> \
#         -P stream_open_failure.cmake
set(missing ${DIR}/stream_open_failure_no_such_dir)
file(REMOVE_RECURSE ${missing})
foreach(kind IN ITEMS out errors)
  if(kind STREQUAL "out")
    set(path ${missing}/x.csv)
    set(args --out ${path})
  else()
    set(path ${missing}/e.csv)
    set(args --out ${DIR}/stream_open_failure.csv --errors ${path})
  endif()
  execute_process(COMMAND ${RIP_CLI} stream --in ${IN} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "stream --${kind} ${path} exited ${rc}, not 2: '${err}'")
  endif()
  string(FIND "${err}" "${path}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stream --${kind} failed with '${err}', "
      "which does not name ${path}")
  endif()
  foreach(forbidden IN ITEMS "precondition failed" ".cpp:")
    string(FIND "${out}${err}" "${forbidden}" at)
    if(NOT at EQUAL -1)
      message(FATAL_ERROR "stream --${kind} failed with '${err}', "
        "which contains '${forbidden}'")
    endif()
  endforeach()
endforeach()

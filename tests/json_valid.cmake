# Runs the command after `--` and checks that the JSON document it
# leaves in JSON parses with `python3 -m json.tool`. With STDOUT set,
# the command's standard output is that document.
#
#   cmake -DPYTHON=<python3> -DJSON=<file> [-DSTDOUT=1] \
#         -P json_valid.cmake -- <command> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
set(command "")
set(after_dashes OFF)
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()

file(REMOVE "${JSON}")
if(STDOUT)
  execute_process(COMMAND ${command} OUTPUT_FILE "${JSON}" RESULT_VARIABLE rc)
else()
  execute_process(COMMAND ${command} OUTPUT_QUIET RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}): ${command}")
endif()
execute_process(COMMAND "${PYTHON}" -m json.tool "${JSON}"
                OUTPUT_QUIET ERROR_VARIABLE error RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${JSON} is not valid JSON: ${error}")
endif()

# Runs the command that follows this script's path and fails unless it
# exits with EXPECT_EXIT:
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake <program> [args...]
set(command)
set(after_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "${CMAKE_SCRIPT_MODE_FILE}")
    set(after_script TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${command}: exit ${status}, expected ${EXPECT_EXIT}")
endif()

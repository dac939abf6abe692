# Run a command and require a given exit code, for ctest entries that
# expect a tool to fail cleanly:
#
#   cmake -DEXPECT_EXIT=<code> -P expect_exit.cmake <command> [args...]
#
# WILL_FAIL would also accept a crash, and a sanitizer report exits 1 by
# default, so the output is checked for one as well.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command "")
set(after_script FALSE)
foreach(index RANGE 1 ${last})
  set(arg "${CMAKE_ARGV${index}}")
  if(after_script)
    list(APPEND command "${arg}")
  elseif(arg STREQUAL "-P")
    math(EXPR script_index "${index} + 1")
  elseif(DEFINED script_index AND index EQUAL script_index)
    set(after_script TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_EXIT}")
endif()
if("${out}${err}" MATCHES "Sanitizer|runtime error")
  message(FATAL_ERROR "sanitizer report in the output")
endif()

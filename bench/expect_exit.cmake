# Fails unless a command exits with EXPECT; a crash is a failure too.
#   cmake -DEXPECT=2 -P expect_exit.cmake <command> [args...]
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
  list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "exit '${status}', expected ${EXPECT}:\n${out}")
endif()

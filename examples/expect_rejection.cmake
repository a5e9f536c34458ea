# Runs a program that must refuse its arguments, and passes when it exits
# with status 2 (an example's CheckError handler) and its output matches
# REGEX. An uncaught exception ends in SIGABRT and fails here.
#
#   cmake -DREGEX=<regex> -P expect_rejection.cmake -- <program> <args>...

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', expected 2:\n${output}")
endif()
if(NOT output MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${output}")
endif()

# Golden-output comparator for ctest.
#
# Runs one program, requires exit status 0, and compares its stdout byte
# for byte with a committed golden file.  On a mismatch it fails with a
# line-by-line diff (line number, expected, actual).
#
#   cmake -DPROGRAM=<exe> [-DARGS=<arg>] -DGOLDEN=<file> \
#         -P tests/compare_golden.cmake
#
# Lines are cut with string(FIND)/string(SUBSTRING) on quoted values, never
# through CMake lists, so ';', '[', ']' and '\' in the output are compared
# verbatim.
cmake_minimum_required(VERSION 3.16)

foreach(required PROGRAM GOLDEN)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "compare_golden.cmake: -D${required}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${PROGRAM}" ${ARGS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with '${status}'\n${errors}")
endif()

file(READ "${GOLDEN}" expected)
if("${actual}" STREQUAL "${expected}")
  return()
endif()

# Split the first line off the text held in `text_var` into `line_var`.
# `more_var` is set to FALSE once the text is exhausted.
function(pop_line text_var line_var more_var)
  set(text "${${text_var}}")
  if("${text}" STREQUAL "")
    set(${line_var} "" PARENT_SCOPE)
    set(${more_var} FALSE PARENT_SCOPE)
    return()
  endif()
  string(FIND "${text}" "\n" newline)
  if(newline EQUAL -1)
    set(${line_var} "${text}" PARENT_SCOPE)
    set(${text_var} "" PARENT_SCOPE)
  else()
    string(SUBSTRING "${text}" 0 ${newline} line)
    math(EXPR newline "${newline} + 1")
    string(SUBSTRING "${text}" ${newline} -1 rest)
    set(${line_var} "${line}" PARENT_SCOPE)
    set(${text_var} "${rest}" PARENT_SCOPE)
  endif()
  set(${more_var} TRUE PARENT_SCOPE)
endfunction()

set(report "")
set(differing 0)
set(number 0)
while(TRUE)
  pop_line(expected expected_line expected_more)
  pop_line(actual actual_line actual_more)
  if(NOT expected_more AND NOT actual_more)
    break()
  endif()
  math(EXPR number "${number} + 1")
  if(NOT expected_more)
    set(expected_line "<no line>")
  endif()
  if(NOT actual_more)
    set(actual_line "<no line>")
  endif()
  if(NOT "${expected_line}" STREQUAL "${actual_line}")
    math(EXPR differing "${differing} + 1")
    string(APPEND report "line ${number}:\n"
                         "  - ${expected_line}\n"
                         "  + ${actual_line}\n")
  endif()
endwhile()
if(differing EQUAL 0)
  set(report "(the outputs differ only in their final newline)\n")
endif()
message(FATAL_ERROR
        "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN} "
        "on ${differing} line(s) (- golden, + actual):\n${report}")

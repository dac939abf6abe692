# Check the Chrome export's line layout on a written trace file:
#
#   cmake -DCHECKER=<nldl_trace_check> -DTRACE=<trace.json> -P trace_lines.cmake
#
# The file must validate, open with the line
# {"displayTimeUnit":"ms","traceEvents":[, end with a "]}" line and one
# newline, and hold one line per trace event between the two: the
# checker's event count plus two lines in all.
execute_process(COMMAND ${CHECKER} ${TRACE}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT out MATCHES ": OK \\(([0-9]+) events\\)")
  message(FATAL_ERROR "${TRACE} does not validate: ${out}${err}")
endif()
set(events ${CMAKE_MATCH_1})

file(READ ${TRACE} text)
string(LENGTH "${text}" size)
string(REPLACE "\n" "" joined "${text}")
string(LENGTH "${joined}" joined_size)
math(EXPR lines "${size} - ${joined_size}")
math(EXPR expected "${events} + 2")
if(NOT lines EQUAL expected)
  message(FATAL_ERROR
          "${TRACE}: ${lines} lines for ${events} events, expected ${expected}")
endif()

set(header "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
string(FIND "${text}" "${header}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "${TRACE} does not open with the header line")
endif()
math(EXPR tail_at "${size} - 4")
string(SUBSTRING "${text}" ${tail_at} 4 tail)
if(NOT tail STREQUAL "\n]}\n")
  message(FATAL_ERROR "${TRACE} does not end with a \"]}\" line")
endif()
message("${TRACE}: ${lines} lines, ${events} events")

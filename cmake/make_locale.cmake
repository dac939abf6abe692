# Compile the de_DE.UTF-8 locale into the build tree for the comma-decimal
# locale tests (the comma_locale ctest fixture):
#
#   cmake -DLOCALEDEF=<localedef> -DOUT=<dir>/de_DE.UTF-8 -P make_locale.cmake
#
# Needs no root and writes nothing outside OUT's directory. A host whose
# localedef cannot build the locale (no de_DE definition installed) fails
# no test: the tests that need it report Skipped, as without localedef.
get_filename_component(parent "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${parent}")
execute_process(COMMAND ${LOCALEDEF} -i de_DE -f UTF-8 ${OUT}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message("localedef exited ${code}: ${out}${err}"
          "the comma-locale tests will skip")
endif()

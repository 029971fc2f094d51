# Integer flags outside the range owl_served accepts for the same request
# field are usage errors (driven by ctest; see tools/CMakeLists.txt): each
# invocation must exit 1 instead of running with a value cast into range.
foreach(args IN ITEMS "--schedules;4294967296" "--jobs;4294967297"
                      "--retries;4294967296" "--retries;1001")
  execute_process(
    COMMAND "${OWL_CLI}" "${EXAMPLE}" ${args} -q
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT status EQUAL 1)
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "owl_cli ${shown}: exit ${status}, expected 1")
  endif()
endforeach()

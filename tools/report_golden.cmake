# Byte-identity gate for rendered reports (driven by ctest; see
# tools/CMakeLists.txt). Runs owl_cli --print-reports ${OPTIONS} on every
# examples/ir module, one module per run from the examples directory so
# each target prints by its file name, and requires the concatenated stdout
# to equal ${GOLDEN} byte for byte and every run to exit 0.
#
# Regenerate a golden, when a change to the rendered reports is intended,
# by running this script with -DUPDATE=ON and the same -D arguments.
file(GLOB modules RELATIVE "${EXAMPLES_DIR}" "${EXAMPLES_DIR}/*.mir")
list(SORT modules)
separate_arguments(options UNIX_COMMAND "${OPTIONS}")
set(actual "")
foreach(module IN LISTS modules)
  execute_process(
    COMMAND "${OWL_CLI}" "${module}" --print-reports ${options}
    WORKING_DIRECTORY "${EXAMPLES_DIR}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "owl_cli ${module} ${OPTIONS}: exit ${status}")
  endif()
  string(APPEND actual "${out}")
endforeach()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  return()
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(MAKE_DIRECTORY "${WORK_DIR}")
  file(WRITE "${WORK_DIR}/${name}" "${actual}")
  message(FATAL_ERROR "rendered reports diverged from ${GOLDEN}; "
                      "this run's output is ${WORK_DIR}/${name}")
endif()

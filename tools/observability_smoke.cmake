# Smoke-test owl_cli's observability flags (driven by ctest; see
# tools/CMakeLists.txt). Runs one audit with --trace-out/--manifest/
# --metrics-out/--timings and hands the artifacts plus the captured stdout
# to scripts/check_observability.py for validation.
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${OWL_CLI}"
          "${EXAMPLES_DIR}/toctou.mir" "${EXAMPLES_DIR}/lost_update.mir"
          --jobs 1 --print-reports --timings
          --trace-out "${WORK_DIR}/trace.json"
          --manifest "${WORK_DIR}/manifest.json"
          --metrics-out "${WORK_DIR}/metrics.txt"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE cli_status)
if(NOT cli_status EQUAL 0)
  message(FATAL_ERROR "owl_cli failed with status ${cli_status}")
endif()

find_package(Python3 COMPONENTS Interpreter REQUIRED)
execute_process(
  COMMAND "${Python3_EXECUTABLE}" "${CHECK_SCRIPT}"
          "${WORK_DIR}/trace.json" "${WORK_DIR}/manifest.json"
          "${WORK_DIR}/metrics.txt" "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE check_status)
if(NOT check_status EQUAL 0)
  message(FATAL_ERROR "observability check failed with status ${check_status}")
endif()

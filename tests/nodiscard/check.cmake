# Compile-fail check: the compiler, not a lint rule, rejects a dropped
# Status or Reply. status_dropped.cc must fail to compile under
# -Werror=unused-result with a nodiscard diagnostic for each type, and
# status_checked.cc must compile. Invoked by ctest as
#
#   cmake -DCXX=<c++ compiler> -DSRC_DIR=<repo>/src -P check.cmake

foreach(var CXX SRC_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check.cmake: -D${var}=... is required")
    endif()
endforeach()

function(compile source rc_var output_var)
    execute_process(
        COMMAND "${CXX}" -std=c++20 -fsyntax-only -Werror=unused-result
                "-I${SRC_DIR}" "${CMAKE_CURRENT_LIST_DIR}/${source}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE output
        ERROR_VARIABLE output)
    set(${rc_var} "${rc}" PARENT_SCOPE)
    set(${output_var} "${output}" PARENT_SCOPE)
endfunction()

compile(status_dropped.cc rc output)
if(rc EQUAL 0)
    message(FATAL_ERROR
        "status_dropped.cc compiled: a dropped Status/Reply is no "
        "longer a compile error")
endif()
foreach(type "Status" "Reply")
    if(NOT output MATCHES
            "type '(musuite::)?${type}',? declared with ('nodiscard' attribute|attribute 'nodiscard')")
        message(FATAL_ERROR
            "no nodiscard diagnostic for a dropped ${type}:\n${output}")
    endif()
endforeach()

compile(status_checked.cc rc output)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "status_checked.cc failed to compile:\n${output}")
endif()
message(STATUS "dropped Status and Reply are compile errors")

# No orphan module (ctest -L lint): every header under src/ must be included
# by some file under src/ other than its own .cpp, or under examples/, bench/
# or tools/. Tests do not count as users. Prints each orphan header on one
# line and fails if there is any. Run via
#   cmake -DROOT=<repo root> -P orphans.cmake

cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE headers RELATIVE ${ROOT}/src ${ROOT}/src/*.hpp)
file(GLOB_RECURSE users
  ${ROOT}/src/*.cpp ${ROOT}/src/*.hpp
  ${ROOT}/examples/*.cpp
  ${ROOT}/bench/*.cpp ${ROOT}/bench/*.hpp
  ${ROOT}/tools/*.cpp ${ROOT}/tools/*.hpp)
list(FILTER users EXCLUDE REGEX "/testdata/")

set(used "")
foreach(user IN LISTS users)
  file(STRINGS ${user} lines REGEX "^#include \"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" inc "${line}")
    string(REGEX REPLACE "\\.hpp$" ".cpp" own "${ROOT}/src/${inc}")
    if(NOT user STREQUAL own)
      list(APPEND used "${inc}")
    endif()
  endforeach()
endforeach()

set(orphans 0)
foreach(header IN LISTS headers)
  if(NOT header IN_LIST used)
    message("orphan module: src/${header}")
    math(EXPR orphans "${orphans} + 1")
  endif()
endforeach()
if(orphans GREATER 0)
  message(FATAL_ERROR "${orphans} header(s) under src/ have no user")
endif()

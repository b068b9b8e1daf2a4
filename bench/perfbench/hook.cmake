# Injected into the repository's top-level project() call through
# CMAKE_PROJECT_INCLUDE (see run.py).  It defers reading targets.cmake
# until the repository's own CMakeLists.txt has defined every library
# target, so the load generator links the same `cfsf` umbrella target,
# include paths and compile definitions as tools/cfsf_cli.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${PERFBENCH_DIR}/targets.cmake)

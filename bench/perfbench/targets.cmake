# The serving benchmark's load generator and its self-test.  Read by
# hook.cmake at the end of the repository's top-level CMakeLists.txt.
add_library(perfbench_lib STATIC
  ${PERFBENCH_DIR}/bench.cpp
  ${PERFBENCH_DIR}/client.cpp
  ${PERFBENCH_DIR}/common.cpp
  ${PERFBENCH_DIR}/traffic.cpp)
target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR})
target_link_libraries(perfbench_lib PUBLIC cfsf Threads::Threads)

add_executable(perfbench_loadgen ${PERFBENCH_DIR}/main.cpp)
target_link_libraries(perfbench_loadgen PRIVATE perfbench_lib)

add_executable(perfbench_selftest ${PERFBENCH_DIR}/selftest.cpp)
target_link_libraries(perfbench_selftest PRIVATE perfbench_lib)

set_target_properties(perfbench_loadgen perfbench_selftest PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)

# Build file of the benchmark runner. run.py configures the repository
# root with -DCMAKE_PROJECT_dlner_INCLUDE=<this file>; the deferred call
# below then defines the runner at the end of the root CMakeLists.txt, so
# it compiles with the same flags and options as the shipped binaries and
# dlner_serve is built exactly as users build it.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_runner)
  add_executable(perfbench_runner
    ${PERFBENCH_DIR}/main.cc
    ${PERFBENCH_DIR}/common.cc
    ${PERFBENCH_DIR}/fixture.cc
    ${PERFBENCH_DIR}/layers.cc
    ${PERFBENCH_DIR}/openloop.cc
    ${PERFBENCH_DIR}/serve_client.cc)
  target_include_directories(perfbench_runner PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(perfbench_runner PRIVATE
    dlner_serve dlner_stream dlner_core Threads::Threads)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL perfbench_add_runner)

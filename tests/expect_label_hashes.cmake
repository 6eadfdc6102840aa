# Runs `spiderctl mtt PREFIXES CLASSES` and fails unless the labeling hash
# count it prints equals the closed form over the tree shape it prints:
#   P * (ceil(k/3) + k + 1) + I + D
# for P prefix nodes, I inner nodes and D inner nodes with a dummy child
# (one PRF triple per three classes, k leaves and one label per prefix
# node; one combining hash per inner node plus one dummy PRF triple when
# any child is a dummy).
#   cmake -DSPIDERCTL=<path> -DPREFIXES=N -DCLASSES=K -P expect_label_hashes.cmake
execute_process(COMMAND ${SPIDERCTL} mtt ${PREFIXES} ${CLASSES}
                OUTPUT_VARIABLE out RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "0")
  message(FATAL_ERROR "spiderctl mtt ${PREFIXES} ${CLASSES}: exit ${status}\n${out}")
endif()
if(NOT out MATCHES "nodes: ([0-9]+) inner \\(([0-9]+) with a dummy child\\), ([0-9]+) prefix")
  message(FATAL_ERROR "no node counts in:\n${out}")
endif()
set(inner ${CMAKE_MATCH_1})
set(with_dummy ${CMAKE_MATCH_2})
set(prefix ${CMAKE_MATCH_3})
if(NOT out MATCHES "\\(([0-9]+) hashes\\)")
  message(FATAL_ERROR "no hash count in:\n${out}")
endif()
set(hashes ${CMAKE_MATCH_1})
math(EXPR expected
     "${prefix} * ((${CLASSES} + 2) / 3 + ${CLASSES} + 1) + ${inner} + ${with_dummy}")
if(NOT hashes EQUAL expected)
  message(FATAL_ERROR "label hashes ${hashes}, closed form ${expected} "
                      "(P=${prefix} I=${inner} D=${with_dummy} k=${CLASSES})")
endif()
message(STATUS "label hashes ${hashes} = closed form (P=${prefix} I=${inner} D=${with_dummy})")

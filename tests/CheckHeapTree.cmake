# Fails unless FILE holds one parseable mpl-heap-tree/1 document whose heap
# list matches its live_heaps count.
# Usage: cmake -DFILE=<path> -P CheckHeapTree.cmake
file(READ "${FILE}" Doc)
string(JSON Schema ERROR_VARIABLE Err GET "${Doc}" schema)
if(Err OR NOT Schema STREQUAL "mpl-heap-tree/1")
  message(FATAL_ERROR "${FILE}: not an mpl-heap-tree/1 document: ${Err}")
endif()
string(JSON Live GET "${Doc}" live_heaps)
string(JSON Heaps LENGTH "${Doc}" heaps)
if(NOT Live EQUAL Heaps)
  message(FATAL_ERROR "${FILE}: live_heaps ${Live} but ${Heaps} heaps listed")
endif()

# Fails unless the Chrome trace FILE carries, under otherData, a non-zero
# em.reads.entangled counter and a non-empty em.pin.lifetime.ns histogram.
# Usage: cmake -DFILE=<path> -P CheckTraceCosts.cmake
file(READ "${FILE}" Doc)
string(JSON Reads ERROR_VARIABLE Err
       GET "${Doc}" otherData counters em.reads.entangled)
if(Err OR NOT Reads GREATER 0)
  message(FATAL_ERROR "${FILE}: otherData.counters em.reads.entangled is "
                      "'${Reads}', not > 0 ${Err}")
endif()
string(JSON NHist LENGTH "${Doc}" otherData histograms)
set(Lifetimes 0)
if(NHist GREATER 0)
  math(EXPR Last "${NHist} - 1")
  foreach(I RANGE ${Last})
    string(JSON Name GET "${Doc}" otherData histograms ${I} name)
    if(Name STREQUAL "em.pin.lifetime.ns")
      string(JSON Lifetimes GET "${Doc}" otherData histograms ${I} count)
    endif()
  endforeach()
endif()
if(NOT Lifetimes GREATER 0)
  message(FATAL_ERROR "${FILE}: otherData has no em.pin.lifetime.ns samples")
endif()

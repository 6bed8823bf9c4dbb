# Writes OUT, a header defining SWH_GIT_SHA as the short commit of the
# source tree SRC, suffixed "-dirty" when tracked files differ from that
# commit ("unknown" outside a git checkout). Runs at every build; OUT is
# rewritten only when the stamp changes, so a build of an unchanged tree
# recompiles nothing.
#
#   cmake -DSRC=<source dir> -DOUT=<header> -P git_sha.cmake

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SRC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY ${SRC}
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(changes)
    string(APPEND sha "-dirty")
  endif()
endif()

set(content "#define SWH_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()

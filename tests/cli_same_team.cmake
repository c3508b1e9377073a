# `tfsn_cli team` and `tfsn_cli form --shards=S` must print the same best
# team for one task: both return GreedyTeamFormer::Form's answer, which
# every engine reproduces. `--topk` above 1 asks for FormTopK's list,
# which the sharded engine does not produce, so combining it with
# --shards is a usage error (exit 1).
#
#   cmake -DCLI=<tfsn_cli> "-DARGS=<arg> ..." -P cli_same_team.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")

function(best_team out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
    OUTPUT_VARIABLE stdout
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "tfsn_cli ${ARGN} exited with status ${status}")
  endif()
  string(REGEX MATCH "team #1 [^\n]*" line "${stdout}")
  if(line STREQUAL "")
    message(FATAL_ERROR "tfsn_cli ${ARGN} printed no team #1 line:\n"
      "${stdout}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

best_team(single team ${args})
best_team(sharded form ${args} --shards=3)
if(NOT single STREQUAL sharded)
  message(FATAL_ERROR "team and form --shards=3 disagree:\n"
    "  team: ${single}\n  form: ${sharded}")
endif()
message(STATUS "both print: ${single}")

execute_process(COMMAND "${CLI}" team ${args} --shards=3 --topk=2
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "--topk=2 with --shards=3 exited with status "
    "${status}, want 1 (usage error)")
endif()

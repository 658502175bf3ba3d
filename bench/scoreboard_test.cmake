# Scoreboard byte-identity oracle: runs scenario_runner's presets,
# requires exit 0 and compares the SHA-256 of each stdout with the
# pinned transcript, then checks that bad input to the runner, the
# figure drivers, alloc_relay_loop and relayer_daemon exits 2.
#
#   cmake -DRUNNER=path/to/scenario_runner -DFIG2=path/to/fig2_send_latency \
#         -DFIG6=path/to/fig6_block_interval -DALLOC=path/to/alloc_relay_loop \
#         -DDAEMON=path/to/relayer_daemon -P bench/scoreboard_test.cmake
#
# A digest may change only with the simulated behaviour it pins: re-pin
# it in that change and say why in CHANGES.md.

function(expect_digest digest)
  execute_process(COMMAND ${RUNNER} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(SHA256 got "${out}")
  string(JOIN " " args ${ARGN})
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "scenario_runner ${args}: exit ${rc}\n${err}")
  elseif(NOT got STREQUAL digest)
    message(SEND_ERROR "scenario_runner ${args}: stdout SHA-256 ${got}, expected ${digest}")
  endif()
endfunction()

function(expect_exit_2 binary)
  execute_process(COMMAND ${binary} ${ARGN}
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " args ${ARGN})
  get_filename_component(name ${binary} NAME)
  if(NOT rc EQUAL 2 OR err STREQUAL "")
    message(SEND_ERROR "${name} ${args}: exit ${rc}, expected 2 with a message")
  endif()
endfunction()

expect_digest(aee36ed3c25a56745a75a6aa083478a69a0cee752a5d68f63d076a373c6abaf4
              --seeds 2 --days 0.02)
expect_digest(a0b833cf9506c9fd2083939ee0ea1ca83887f0bd4afe36ba3940bbd4601950c7
              --seeds 2 --days 0.02 --reorg storm --adversary equivocate)
expect_digest(8c3f581ea15c530efdb1c49a03fa91fa5be4655426f266434c21500a38fe8a93
              --seeds 2 --days 0.02 --reorg lossy --commitment rooted)
expect_digest(6d2fa5fdfc3fc8f35aac1a4dd8dc85a142159c726605845aedbdb79ed9ce892d
              --preset reorg-storm --seeds 2 --days 0.01)
expect_digest(68534aee6b74dd6d097bece7ca14b1df12c1ee659fc32f535ac49a2855100815
              --preset adversary-campaign --seeds 1)

expect_exit_2(${RUNNER} --preset no-such-preset)
foreach(preset delta reorg-storm adversary-campaign)
  # The seed cap + 1, a count that overflows int, one that wraps to 1.
  foreach(seeds 10001 3000000000 4294967297)
    expect_exit_2(${RUNNER} --preset ${preset} --seeds ${seeds})
  endforeach()
endforeach()
# Flags that do not apply to the chosen preset.
expect_exit_2(${RUNNER} --preset reorg-storm --reorg storm)
expect_exit_2(${RUNNER} --preset adversary-campaign --commitment rooted)
expect_exit_2(${RUNNER} --preset reorg-storm --adversary equivocate)
expect_exit_2(${RUNNER} --preset adversary-campaign --days 0.02)
# A horizon strtod parses but no run reaches.
expect_exit_2(${RUNNER} --days inf)
expect_exit_2(${FIG2} --days inf)
# The figure drivers' grid mode shares the runner's seed cap: the cap
# + 1, a count whose grid would exhaust memory, and UINT64_MAX, which
# overflows a long.
foreach(fig ${FIG2} ${FIG6})
  foreach(seeds 10001 3000000000 18446744073709551615)
    expect_exit_2(${fig} --grid-seeds ${seeds})
  endforeach()
endforeach()
# Arguments a bare strtod/strtoull would take: a horizon that never
# ends, and text that reads as 0.
expect_exit_2(${DAEMON} inf)
expect_exit_2(${DAEMON} abc)
expect_exit_2(${ALLOC} --seed abc)

# Scoreboard byte-identity oracle: runs scenario_runner's presets and
# overlays, requires exit 0 and compares the SHA-256 of each stdout with
# the pinned transcript, checks that fig2 and fig3 finish on runs too
# short to fill their series, then that bad input to the runner, the
# figure drivers, the ablations, alloc_relay_loop and relayer_daemon
# exits 2.
#
#   cmake -DRUNNER=path/to/scenario_runner -DFIG2=path/to/fig2_send_latency \
#         -DFIG3=path/to/fig3_send_cost -DFIG6=path/to/fig6_block_interval \
#         -DABLATION_DELTA=path/to/ablation_delta \
#         -DABLATION_FEES=path/to/ablation_fees \
#         -DABLATION_SEALING=path/to/ablation_sealing \
#         -DALLOC=path/to/alloc_relay_loop -DDAEMON=path/to/relayer_daemon \
#         -P bench/scoreboard_test.cmake
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

function(expect_exit_0 binary)
  execute_process(COMMAND ${binary} ${ARGN}
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " args ${ARGN})
  get_filename_component(name ${binary} NAME)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} ${args}: exit ${rc}, expected 0\n${err}")
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
expect_digest(7a3511f1d191bef400eb53122f8d31a82479217468a98c923c04727bdd1019b5
              --seeds 2 --days 0.02 --reorg deep)
expect_digest(6f440d75129442ebe7af4005039b6951b6b8a386e40710995195a09ff42f0a34
              --seeds 2 --days 0.02 --commitment rooted)

# Runs too short to fill a series: fig2 finalises nothing (single run
# and grid), fig3 sees no priority-fee send.
expect_exit_0(${FIG2} --days 0.01 --seed 2)
expect_exit_0(${FIG2} --grid-seeds 2 --days 0.001)
expect_exit_0(${FIG3} --days 0.01 --seed 1)

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
# Shared flags a driver never reads: a single-run figure given grid
# flags, a grid ablation given --grid-seeds, ablation_fees given --days,
# and a driver that reads none of them given --seed.
expect_exit_2(${FIG3} --grid-seeds 2)
expect_exit_2(${ABLATION_DELTA} --grid-seeds 2)
expect_exit_2(${ABLATION_FEES} --days 1)
expect_exit_2(${ABLATION_SEALING} --seed 7)
# Arguments a bare strtod/strtoull would take: a horizon that never
# ends, and text that reads as 0.
expect_exit_2(${DAEMON} inf)
expect_exit_2(${DAEMON} abc)
expect_exit_2(${ALLOC} --seed abc)

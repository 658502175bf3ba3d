# Example byte-identity oracle: runs one example, requires exit 0 and
# compares the SHA-256 of its stdout with the pinned digest.  Every
# example is deterministic, so any change to what it prints shows here.
#
#   cmake -DEXAMPLE=quickstart -DBINARY=path/to/quickstart \
#         -P examples/stdout_test.cmake
#
# A digest may change only with the simulated behaviour it pins: re-pin
# it in that change and say why in CHANGES.md.

set(digest_quickstart 214c76e29781984ca6a1974cdf63620b2164198f1fc33cc84cd4a158f0ce4f4b)
set(digest_token_transfer 6a4be3c63c314b0509f99f30e53e0e4dcd0d52541ba7c6bfc79670701c808a61)
set(digest_validator_lifecycle
    0a01b87201fb950396f4e4fd2dc47f6ad58007899f9263bd9d94b096003671ec)
set(digest_custom_app 83833ad340c5003d0fe1fd9ef34a4a4136482650079e81651dd2049e9e728ad6)
# One simulated hour.
set(args_relayer_daemon 1)
set(digest_relayer_daemon 95f41d1660bc9c3432615e8687c9bf251b1ff031e976c0e47a82784735d2bd12)

if(NOT DEFINED digest_${EXAMPLE})
  message(FATAL_ERROR "no pinned digest for example '${EXAMPLE}'")
endif()
execute_process(COMMAND ${BINARY} ${args_${EXAMPLE}}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
string(SHA256 got "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE}: exit ${rc}\n${err}")
elseif(NOT got STREQUAL digest_${EXAMPLE})
  message(FATAL_ERROR "${EXAMPLE}: stdout SHA-256 ${got}, expected ${digest_${EXAMPLE}}")
endif()

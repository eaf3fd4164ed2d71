# Tool-flow smoke test, run by ctest (label "smoke") as
#   cmake -DBIN=<dir of the tgsim_* tools> -DWORK=<scratch dir> -DPART=<part>
#         -P tool_flow_smoke.cmake
#
# PART=chain runs the paper's flow end to end on a small two-core
# mp_matrix (cacheloop has no result checks to pass): tgsim_run traces it,
# tgsim_translate turns the traces into TG programs, tgsim_tgasm assembles
# them, tgsim_tgdis disassembles the images, and tgsim_replay runs the
# disassembled programs with the benchmark's result checks.
#
# PART=flags checks that every tool answers --help with exit 0 and an
# undeclared flag with exit 1.

set(tools tgsim_run tgsim_replay tgsim_translate tgsim_tgasm tgsim_tgdis
          tgsim_sweep tgsim_patterns tgsim_merge)

# Runs BIN/<tool> with the remaining arguments; fails unless it exits with
# `want` and (when `expect` is not empty) prints `expect`.
function(run_tool want expect tool)
  execute_process(COMMAND "${BIN}/${tool}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${tool} ${ARGN}: exit ${rc}, want ${want}\n${out}${err}")
  endif()
  if(expect)
    string(FIND "${out}" "${expect}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${tool} ${ARGN}: no '${expect}' in\n${out}${err}")
    endif()
  endif()
endfunction()

if(PART STREQUAL "chain")
  file(REMOVE_RECURSE "${WORK}")
  file(MAKE_DIRECTORY "${WORK}")
  set(bench --app=mp_matrix --cores=2 --size=6)
  run_tool(0 "checks: PASS" tgsim_run ${bench} --trace-dir=${WORK})
  run_tool(0 "-> ${WORK}/core1.tgp" tgsim_translate
           ${WORK}/core0.trc ${WORK}/core1.trc ${bench} --out-dir=${WORK})
  foreach(core 0 1)
    run_tool(0 "-> ${WORK}/core${core}.bin" tgsim_tgasm ${WORK}/core${core}.tgp)
    run_tool(0 "wrote ${WORK}/dis${core}.tgp" tgsim_tgdis
             ${WORK}/core${core}.bin --out=${WORK}/dis${core}.tgp)
  endforeach()
  run_tool(0 "checks: PASS" tgsim_replay ${WORK}/dis0.tgp ${WORK}/dis1.tgp
           --app=mp_matrix --size=6 --ic=xpipes)
elseif(PART STREQUAL "flags")
  foreach(tool ${tools})
    run_tool(0 "usage: " ${tool} --help)
    run_tool(1 "" ${tool} --no-such-flag)
  endforeach()
else()
  message(FATAL_ERROR "PART must be chain or flags, not '${PART}'")
endif()

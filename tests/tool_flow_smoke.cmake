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
#
# PART=shard runs a small funnel sweep whole and as three shard processes
# (one after another), merges the shards with tgsim_merge, and requires the
# merged report to be byte-identical to the unsharded one.
#
# PART=resume runs a checkpointed sweep, cuts its journal the way a
# mid-write kill leaves it (six whole lines, then a torn one), resumes from
# the cut journal and requires the byte-identical report. Reusing a journal
# without --resume must be refused.
#
# Each part works in its own directory under WORK, so the parts can run in
# parallel.

set(WORK "${WORK}/${PART}")
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

# Fails unless files `a` and `b` are byte-identical.
function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

if(NOT PART STREQUAL "flags")
  file(REMOVE_RECURSE "${WORK}")
  file(MAKE_DIRECTORY "${WORK}")
endif()

if(PART STREQUAL "chain")
  set(bench --app=mp_matrix --cores=2 --size=6)
  # A missing trace directory is refused up front, naming it.
  execute_process(COMMAND "${BIN}/tgsim_run" ${bench}
                          --trace-dir=${WORK}/missing
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  string(FIND "${err}" "${WORK}/missing" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "tgsim_run --trace-dir=<missing>: exit ${rc}\n${err}")
  endif()
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
elseif(PART STREQUAL "shard")
  set(common --pattern=transpose --grid=4x4 --packets=200
             --rates=0.01,0.02,0.04 --mesh=5x4,6x3 --fifo=2,4
             --tier=funnel --funnel-top=4)
  run_tool(0 "" tgsim_sweep ${common} --jobs=4 --deterministic
           --json=${WORK}/single.json)
  foreach(k 0 1 2)
    run_tool(0 "" tgsim_sweep ${common} --jobs=2 --shard=${k}/3
             --json=${WORK}/shard_${k}.json)
  endforeach()
  run_tool(0 "" tgsim_merge --json=${WORK}/merged.json ${WORK}/shard_0.json
           ${WORK}/shard_1.json ${WORK}/shard_2.json)
  expect_same("${WORK}/single.json" "${WORK}/merged.json")
elseif(PART STREQUAL "resume")
  set(common --pattern=transpose --grid=4x4 --packets=200
             --rates=0.01,0.02,0.04 --mesh=5x4,6x3 --fifo=2,4 --jobs=4
             --deterministic)
  run_tool(0 "" tgsim_sweep ${common} --checkpoint=${WORK}/ck.jsonl
           --json=${WORK}/full.json)
  # Keep six whole lines and 40 bytes of the seventh.
  file(READ "${WORK}/ck.jsonl" journal)
  set(cut 0)
  foreach(line RANGE 1 6)
    string(SUBSTRING "${journal}" ${cut} -1 rest)
    string(FIND "${rest}" "\n" nl)
    if(nl EQUAL -1)
      message(FATAL_ERROR "journal has fewer than 7 lines")
    endif()
    math(EXPR cut "${cut} + ${nl} + 1")
  endforeach()
  math(EXPR cut "${cut} + 40")
  string(SUBSTRING "${journal}" 0 ${cut} kept)
  file(WRITE "${WORK}/cut.jsonl" "${kept}")
  run_tool(0 "" tgsim_sweep ${common} --checkpoint=${WORK}/cut.jsonl --resume
           --json=${WORK}/resumed.json)
  expect_same("${WORK}/full.json" "${WORK}/resumed.json")
  run_tool(1 "" tgsim_sweep ${common} --checkpoint=${WORK}/ck.jsonl
           --json=${WORK}/overwrite.json)
else()
  message(FATAL_ERROR "PART must be chain, flags, shard or resume, not '${PART}'")
endif()

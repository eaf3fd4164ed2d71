# Tool-flow smoke test, run by ctest (label "smoke") as
#   cmake -DBIN=<dir of the tgsim_* tools> -DWORK=<scratch dir> -DPART=<part>
#         -P tool_flow_smoke.cmake
#
# PART=chain runs the paper's flow end to end on a small two-core
# mp_matrix (cacheloop has no result checks to pass): tgsim_run traces it,
# tgsim_translate turns the traces into TG programs, tgsim_tgasm assembles
# them, tgsim_tgdis disassembles the images, tgsim_tgasm re-assembles the
# disassemblies into byte-identical images, and tgsim_replay runs the
# disassembled programs with the benchmark's result checks. A malformed
# .trc or .tgp must make tgsim_translate, tgsim_tgasm and tgsim_replay exit
# 1 naming the file and line, not abort.
#
# PART=flags checks that every tool answers --help with exit 0 and an
# undeclared flag with exit 1, and that tgsim_sweep's pattern mode refuses
# a --burst-len above ocp::kMaxBurstLen, a --reads fraction above 1, a
# --funnel-top without --tier=funnel and every traced-mode flag, its
# traced mode a pattern-shape flag, and both modes --deterministic without
# --json. tgsim_replay and tgsim_translate refuse --cores or --size
# without --app.
#
# PART=shard runs a small funnel sweep whole and as three shard processes
# (one after another), merges the shards with tgsim_merge, and requires the
# merged report to be byte-identical to the unsharded one.
#
# PART=identity pins the campaign identity (the report's sweep.app) of
# each mode's default campaign, and requires shards that differ in one
# identity flag (--packets, --mesh, --fifo, or --rates of the same count)
# to refuse to merge, and a traced journal to refuse to resume under
# another --size.
#
# PART=resume runs a checkpointed sweep, cuts its journal the way a
# mid-write kill leaves it (six whole lines, then a torn one), resumes from
# the cut journal and requires the byte-identical report. Reusing a journal
# without --resume must be refused.
#
# PART=topology runs a pattern sweep on a torus and on a table-routed ring
# (examples/graphs/ring18.graph), shards a sweep with a topology axis and
# merges it byte-identically, and requires a merge of a torus shard with a
# mesh shard to be refused: topology is campaign identity.
#
# PART=open runs an open-loop rate ladder and requires the hockey stick:
# the post-knee in-network p50 latency at least 3x the zero-load p50, a
# growing source queue and a saturation line (docs/traffic.md). Open
# shards merge byte-identically; an open shard and a closed shard must not
# merge.
#
# PART=fault shards a faulted sweep and merges it byte-identically, and
# requires every injected transaction to be accounted for in each row:
# injected == delivered + err_delivered + lost.
#
# PART=patterns runs a transpose saturation sweep at 4 workers. It also
# requires each pattern-shape flag (--process, --burst-frac, --burst-len,
# --reads, --hotspot, --hotspot-frac), added one at a time, to change a
# hotspot sweep's rows, so every one reaches the payload, and a shard of
# a non-default shape to refuse to merge with a default-shaped one.
# PART=funnel runs a two-phase (analytic screen, then cycle simulation of
# the top candidates) sweep at 4 workers. Both must write a non-empty JSON
# report.
#
# The pattern runs lay the --grid=WxH core grid row-major on a
# --mesh=Wx⌈(W·H+2)/W⌉ fabric, so grid and mesh coordinates agree.
#
# Each part works in its own directory under WORK, so the parts can run in
# parallel.

set(WORK "${WORK}/${PART}")
set(tools tgsim_run tgsim_replay tgsim_translate tgsim_tgasm tgsim_tgdis
          tgsim_sweep tgsim_merge)
# A nine-point offered-rate ladder from zero load to past saturation.
set(ladder --rates=0.005,0.01,0.02,0.04,0.08,0.16,0.32,0.64,1.0)

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

# Runs BIN/<tool> with the remaining arguments; fails unless it exits 1 and
# names `expect` on stderr.
function(expect_refusal expect tool)
  execute_process(COMMAND "${BIN}/${tool}" ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  string(FIND "${err}" "${expect}" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "${tool} ${ARGN}: exit ${rc}, want 1 naming '${expect}'\n${err}")
  endif()
endfunction()

# Runs tgsim_sweep with the remaining arguments whole (into
# WORK/<name>_single.json) and as two shards, merges the shards, and fails
# unless the merge is byte-identical to the whole run.
function(expect_shard_merge name)
  run_tool(0 "" tgsim_sweep ${ARGN} --jobs=4 --deterministic
           --json=${WORK}/${name}_single.json)
  foreach(k 0 1)
    run_tool(0 "" tgsim_sweep ${ARGN} --jobs=2 --shard=${k}/2
             --json=${WORK}/${name}_s${k}.json)
  endforeach()
  run_tool(0 "" tgsim_merge --json=${WORK}/${name}_merged.json
           ${WORK}/${name}_s0.json ${WORK}/${name}_s1.json)
  expect_same("${WORK}/${name}_single.json" "${WORK}/${name}_merged.json")
endfunction()

# Sets `out` to field `key` of candidate row `i` of the report in `json`.
function(row_field out json i key)
  string(JSON v GET "${json}" candidates ${i} ${key})
  set(${out} "${v}" PARENT_SCOPE)
endfunction()

# Fails unless `path` exists and is not empty.
function(expect_nonempty path)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${path} was not written")
  endif()
  file(SIZE "${path}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${path} is empty")
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
  expect_refusal("${WORK}/missing" tgsim_run ${bench}
                 --trace-dir=${WORK}/missing)
  run_tool(0 "checks: PASS" tgsim_run ${bench} --trace-dir=${WORK})
  run_tool(0 "-> ${WORK}/core1.tgp" tgsim_translate
           ${WORK}/core0.trc ${WORK}/core1.trc ${bench} --out-dir=${WORK})
  foreach(core 0 1)
    run_tool(0 "-> ${WORK}/core${core}.bin" tgsim_tgasm ${WORK}/core${core}.tgp)
    run_tool(0 "wrote ${WORK}/dis${core}.tgp" tgsim_tgdis
             ${WORK}/core${core}.bin --out=${WORK}/dis${core}.tgp)
    # The disassembly assembles back to the very same image.
    run_tool(0 "-> ${WORK}/re${core}.bin" tgsim_tgasm ${WORK}/dis${core}.tgp
             --out=${WORK}/re${core}.bin)
    expect_same("${WORK}/core${core}.bin" "${WORK}/re${core}.bin")
  endforeach()
  run_tool(0 "checks: PASS" tgsim_replay ${WORK}/dis0.tgp ${WORK}/dis1.tgp
           --app=mp_matrix --size=6 --ic=xpipes)
  file(WRITE "${WORK}/bad.trc" "CORE 0 THREAD 0\nEVT BWR 0x0 burst=4 data=[0x1]\nEND 9\n")
  expect_refusal("${WORK}/bad.trc: trc: line 2: 1 data beats for burst=4"
                 tgsim_translate ${WORK}/bad.trc --out-dir=${WORK})
  file(WRITE "${WORK}/bad.tgp" "MASTER[0,0]\nBEGIN\n  BurstRead(r1, 99999)\nEND\n")
  foreach(tool tgsim_tgasm tgsim_replay)
    expect_refusal("${WORK}/bad.tgp: tgp: line 3: burst count 99999"
                   ${tool} ${WORK}/bad.tgp)
  endforeach()
elseif(PART STREQUAL "flags")
  foreach(tool ${tools})
    run_tool(0 "usage: " ${tool} --help)
    run_tool(1 "" ${tool} --no-such-flag)
  endforeach()
  # A burst longer than the fabrics carry is refused, neither truncated to
  # 16 bits nor left spinning on beats the NI never sends.
  set(small --pattern=uniform_random --grid=3x3 --mesh=3x4 --packets=50
            --rates=0.01)
  foreach(len 65 65537)
    expect_refusal("--burst-len" tgsim_sweep ${small} --burst-frac=1
                   --burst-len=${len})
  endforeach()
  expect_refusal("--reads" tgsim_sweep ${small} --reads=1.5)
  # A survivor budget without the funnel tier would be ignored.
  expect_refusal("--funnel-top: needs --tier=funnel" tgsim_sweep
                 --pattern=transpose --funnel-top=3 --rates=0.01 --packets=10
                 --mesh=5x4)
  # Without --pattern there is no payload to shape.
  expect_refusal("--burst-len" tgsim_sweep --burst-len=8)
  # A pattern sweep runs no traced benchmark, so its flags would be ignored.
  foreach(flag --app=des --cores=2 --size=8 --no-fixed-prio --cpu-truth)
    string(REGEX REPLACE "=.*" "" name "${flag}")
    expect_refusal("${name}: not with --pattern" tgsim_sweep ${small} ${flag})
  endforeach()
  expect_refusal("--deterministic: needs --json" tgsim_sweep ${small}
                 --deterministic)
  # Without --app there is no benchmark for --cores or --size to shape.
  foreach(tool tgsim_replay tgsim_translate)
    foreach(flag cores size)
      expect_refusal("--${flag}: needs --app" ${tool} --${flag}=2
                     ${WORK}/none.tgp)
    endforeach()
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
elseif(PART STREQUAL "identity")
  # A campaign that sets no identity flag keeps its bare identity.
  run_tool(0 "" tgsim_sweep --pattern=transpose --tier=analytic
           --json=${WORK}/pattern.json)
  run_tool(0 "" tgsim_sweep --cores=2 --jobs=4 --json=${WORK}/traced.json)
  foreach(mode "pattern;pattern_transpose 4x4" "traced;mp_matrix")
    list(GET mode 0 report)
    list(GET mode 1 want)
    file(READ "${WORK}/${report}.json" json)
    string(JSON app GET "${json}" sweep app)
    if(NOT app STREQUAL want)
      message(FATAL_ERROR "${report}.json: sweep.app is '${app}', want '${want}'")
    endif()
  endforeach()
  # A shard that differs in one identity flag is another campaign's.
  set(one --pattern=transpose --grid=2x2 --packets=50 --mesh=2x3 --fifo=4
          --rates=0.01,0.02)
  run_tool(0 "" tgsim_sweep ${one} --shard=0/2 --json=${WORK}/one_s0.json)
  foreach(other --packets=60 --mesh=3x2 --fifo=8 --rates=0.01,0.03)
    string(REGEX REPLACE "=.*" "=" flag "${other}")
    set(args ${one})
    list(FILTER args EXCLUDE REGEX "^${flag}")
    run_tool(0 "" tgsim_sweep ${args} ${other} --shard=1/2
             --json=${WORK}/other_s1.json)
    expect_refusal("metadata mismatch" tgsim_merge --json=${WORK}/mixed.json
                   ${WORK}/one_s0.json ${WORK}/other_s1.json)
  endforeach()
  # A traced journal never resumes under another --size.
  set(traced --app=mp_matrix --cores=2 --no-fixed-prio --mesh=auto --jobs=2
             --checkpoint=${WORK}/traced.jsonl)
  run_tool(0 "" tgsim_sweep ${traced} --size=8)
  expect_refusal("field 'app' differs" tgsim_sweep ${traced} --size=12
                 --resume)
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
elseif(PART STREQUAL "topology")
  run_tool(0 "" tgsim_sweep --pattern=tornado --grid=4x4 --mesh=4x5
           --topology=torus ${ladder} --packets=200 --jobs=4
           --json=${WORK}/torus.json)
  run_tool(0 "" tgsim_sweep --pattern=transpose --grid=4x4 --mesh=4x5
           --topology=file:${CMAKE_CURRENT_LIST_DIR}/../examples/graphs/ring18.graph
           --rates=0.01,0.02,0.04 --packets=200 --jobs=4
           --json=${WORK}/graph.json)
  foreach(report torus graph)
    file(READ "${WORK}/${report}.json" json)
    string(JSON rows LENGTH "${json}" candidates)
    if(rows EQUAL 0)
      message(FATAL_ERROR "${report}.json has no candidate rows")
    endif()
  endforeach()
  set(common --pattern=transpose --grid=4x4 --packets=200 --rates=0.01,0.02
             --mesh=5x4)
  expect_shard_merge(topo ${common} --topology=mesh,torus)
  run_tool(0 "" tgsim_sweep ${common} --topology=torus --shard=0/2
           --json=${WORK}/mix_torus.json)
  run_tool(0 "" tgsim_sweep ${common} --shard=1/2 --json=${WORK}/mix_mesh.json)
  expect_refusal("metadata mismatch" tgsim_merge --json=${WORK}/mix_bad.json
                 ${WORK}/mix_torus.json ${WORK}/mix_mesh.json)
elseif(PART STREQUAL "open")
  run_tool(0 "saturation at offered" tgsim_sweep --pattern=uniform_random
           --grid=4x4 --mesh=4x5 --source=open --fifo=8
           --rates=0.01,0.08,0.64,1.0 --packets=200 --jobs=4
           --json=${WORK}/ladder.json)
  file(READ "${WORK}/ladder.json" json)
  string(JSON rows LENGTH "${json}" candidates)
  math(EXPR last "${rows} - 1")
  foreach(i RANGE ${last})
    string(JSON limit ERROR_VARIABLE missing GET "${json}" candidates ${i}
           pending_limit)
    if(missing)
      message(FATAL_ERROR "ladder row ${i} has no open block")
    endif()
  endforeach()
  row_field(zero_p50 "${json}" 0 net_lat_p50)
  row_field(knee_p50 "${json}" ${last} net_lat_p50)
  row_field(zero_sq "${json}" 0 sq_lat_mean)
  row_field(knee_sq "${json}" ${last} sq_lat_mean)
  if(zero_p50 LESS 1)
    set(zero_p50 1)
  endif()
  math(EXPR floor "3 * ${zero_p50}")
  if(knee_p50 LESS floor)
    message(FATAL_ERROR "no hockey stick: knee p50 ${knee_p50} < 3 x ${zero_p50}")
  endif()
  if(NOT knee_sq GREATER zero_sq)
    message(FATAL_ERROR "pending queue flat: ${knee_sq} <= ${zero_sq}")
  endif()
  set(common --pattern=uniform_random --grid=4x4 --mesh=5x4 --fifo=8
             --rates=0.01,0.08,0.64 --packets=200)
  expect_shard_merge(open ${common} --source=open)
  run_tool(0 "" tgsim_sweep ${common} --shard=1/2
           --json=${WORK}/mix_closed.json)
  expect_refusal("metadata mismatch" tgsim_merge --json=${WORK}/mix_bad.json
                 ${WORK}/open_s0.json ${WORK}/mix_closed.json)
elseif(PART STREQUAL "fault")
  expect_shard_merge(fault --pattern=transpose --grid=4x4 --packets=200
                     --rates=0.01,0.02 --mesh=5x4 --fifo=4
                     --fault-rate=0.02,0.05 --fault-seed=7)
  file(READ "${WORK}/fault_single.json" json)
  string(JSON rows LENGTH "${json}" candidates)
  if(rows EQUAL 0)
    message(FATAL_ERROR "no fault rows")
  endif()
  math(EXPR last "${rows} - 1")
  foreach(i RANGE ${last})
    foreach(key fault_injected fault_delivered fault_err_delivered fault_lost)
      row_field(${key} "${json}" ${i} ${key})
    endforeach()
    math(EXPR accounted
         "${fault_delivered} + ${fault_err_delivered} + ${fault_lost}")
    if(NOT fault_injected EQUAL accounted)
      message(FATAL_ERROR "row ${i}: ${fault_injected} injected, ${accounted} accounted for")
    endif()
  endforeach()
elseif(PART STREQUAL "patterns")
  run_tool(0 "" tgsim_sweep --pattern=transpose --grid=4x4 --mesh=4x5
           ${ladder} --packets=400 --jobs=4 --json=${WORK}/patterns_smoke.json)
  expect_nonempty("${WORK}/patterns_smoke.json")
  # Each shape flag reaches the payload: adding it to the shape changes
  # the rows, which never equal the default-shaped run's.
  set(hot --pattern=hotspot --grid=3x3 --mesh=3x4 --rates=0.01,0.08
          --packets=200 --jobs=4 --deterministic)
  run_tool(0 "" tgsim_sweep ${hot} --json=${WORK}/hot.json)
  file(READ "${WORK}/hot.json" json)
  string(JSON default_rows GET "${json}" candidates)
  set(prev_rows "${default_rows}")
  set(shape "")
  foreach(flag --process=bursty --burst-frac=0.5 --burst-len=8 --reads=0.25
               --hotspot=4 --hotspot-frac=0.3)
    list(APPEND shape ${flag})
    run_tool(0 "" tgsim_sweep ${hot} ${shape} --json=${WORK}/hot.json)
    file(READ "${WORK}/hot.json" json)
    string(JSON rows GET "${json}" candidates)
    if(rows STREQUAL prev_rows OR rows STREQUAL default_rows)
      message(FATAL_ERROR "${flag} left the rows of ${shape} unchanged")
    endif()
    set(prev_rows "${rows}")
  endforeach()
  # A non-default shape is campaign identity: its shards never merge with
  # a default-shaped campaign's.
  run_tool(0 "" tgsim_sweep ${hot} --process=bursty --shard=0/2
           --json=${WORK}/mix_bursty.json)
  run_tool(0 "" tgsim_sweep ${hot} --shard=1/2 --json=${WORK}/mix_default.json)
  expect_refusal("metadata mismatch" tgsim_merge --json=${WORK}/mix_bad.json
                 ${WORK}/mix_bursty.json ${WORK}/mix_default.json)
elseif(PART STREQUAL "funnel")
  run_tool(0 "" tgsim_sweep --pattern=tornado --grid=4x4 --packets=400
           --tier=funnel --funnel-top=4 --jobs=4 --mesh=auto,5x4 --fifo=2,4
           --json=${WORK}/funnel_smoke.json)
  expect_nonempty("${WORK}/funnel_smoke.json")
else()
  message(FATAL_ERROR
          "PART must be chain, flags, identity, shard, resume, topology, "
          "open, fault, patterns or funnel, not '${PART}'")
endif()

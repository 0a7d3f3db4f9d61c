# Smoke test for the opaq CLI: generate a tiny deterministic (sequential)
# data file, sketch it, query the median, and assert the certified bracket
# actually contains the exact answer computed by the CLI's second pass.
#
# Driven by ctest:  cmake -DOPAQ_CLI=... -DWORK_DIR=... -P cli_smoke.cmake

if(NOT DEFINED OPAQ_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "cli_smoke.cmake needs -DOPAQ_CLI=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(DATA "${WORK_DIR}/data.opaq")
set(SKETCH "${WORK_DIR}/data.sketch")

function(run_cli out_var)
  execute_process(
    COMMAND "${OPAQ_CLI}" ${ARGN}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code
  )
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "opaq ${ARGN} exited ${code}:\n${stdout}\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

# Sequential keys 1..10000: fully deterministic regardless of RNG details.
run_cli(gen_out generate --out=${DATA} --n=10000 --dist=sequential --seed=7)

# Overwrite guard: a second generate onto the same path must refuse without
# --force (the file may be a live dataset some writer is appending to) and
# succeed with it.
execute_process(
  COMMAND "${OPAQ_CLI}" generate --out=${DATA} --n=10000 --dist=sequential
          --seed=7
  OUTPUT_VARIABLE clobber_out
  ERROR_VARIABLE clobber_err
  RESULT_VARIABLE clobber_code
)
if(clobber_code EQUAL 0)
  message(FATAL_ERROR "generate overwrote ${DATA} without --force")
endif()
if(NOT "${clobber_out}${clobber_err}" MATCHES "already exists")
  message(FATAL_ERROR
          "overwrite refusal lacks explanation:\n${clobber_out}${clobber_err}")
endif()
run_cli(force_out generate --out=${DATA} --n=10000 --dist=sequential --seed=7
        --force)

# Live ingest: two CLI appends build a live dataset a sketch can read.
set(LIVE "${WORK_DIR}/live")
run_cli(append_out append --live=${LIVE} --n=3000 --dist=uniform --seed=11)
run_cli(append_out append --live=${LIVE} --n=2000 --dist=uniform --seed=12)
if(NOT append_out MATCHES "live dataset now holds 5000 elements in 2 segments")
  message(FATAL_ERROR "unexpected append summary:\n${append_out}")
endif()
# --data accepts the live directory itself (it opens as the live dataset).
run_cli(live_sketch_out sketch --data=${LIVE} --out=${WORK_DIR}/live.sketch
        --run-size=1000 --samples=100)
if(NOT live_sketch_out MATCHES "sketched 5000 keys \\(5 runs, 500 samples\\)")
  message(FATAL_ERROR "unexpected live sketch summary:\n${live_sketch_out}")
endif()
run_cli(sketch_out sketch --data=${DATA} --out=${SKETCH}
        --run-size=1000 --samples=100)
if(NOT sketch_out MATCHES "sketched 10000 keys \\(10 runs, 1000 samples\\)")
  message(FATAL_ERROR "unexpected sketch summary:\n${sketch_out}")
endif()

run_cli(q_out quantile --sketch=${SKETCH} --phi=0.5)
# Output row: "0.5<TAB>5000<TAB><lower><TAB><upper>" (no '?' marks: with 10
# full runs the median bracket must be certified, not clamped).
if(NOT q_out MATCHES "0\\.5\t5000\t([0-9]+)\t([0-9]+)")
  message(FATAL_ERROR "no certified median bracket in:\n${q_out}")
endif()
set(LOWER ${CMAKE_MATCH_1})
set(UPPER ${CMAKE_MATCH_2})

# --trace arms the flight recorder and writes its spans as Chrome JSON.
set(SKETCH_TRACE "${WORK_DIR}/sketch_trace.json")
run_cli(traced_out sketch --data=${DATA} --out=${SKETCH}
        --run-size=1000 --samples=100 --trace=${SKETCH_TRACE})
if(NOT EXISTS "${SKETCH_TRACE}")
  message(FATAL_ERROR "sketch --trace wrote no file at ${SKETCH_TRACE}")
endif()
file(READ "${SKETCH_TRACE}" sketch_trace)
foreach(event sample run_read)
  if(NOT sketch_trace MATCHES "\"name\":\"${event}\"")
    message(FATAL_ERROR "sketch trace lacks '${event}' events:\n${sketch_trace}")
  endif()
endforeach()
if(NOT sketch_trace MATCHES "^{\"traceEvents\":\\[")
  message(FATAL_ERROR "sketch trace is not trace-event JSON:\n${sketch_trace}")
endif()

set(EXACT_TRACE "${WORK_DIR}/exact_trace.json")
run_cli(exact_out exact --data=${DATA} --sketch=${SKETCH} --phi=0.5
        --trace=${EXACT_TRACE})
file(READ "${EXACT_TRACE}" exact_trace)
if(NOT exact_trace MATCHES "\"name\":\"exact_pass\"")
  message(FATAL_ERROR "exact trace lacks an exact_pass event:\n${exact_trace}")
endif()
if(NOT exact_out MATCHES "0\\.5\t([0-9]+)")
  message(FATAL_ERROR "no exact median in:\n${exact_out}")
endif()
set(EXACT ${CMAKE_MATCH_1})

if(LOWER GREATER EXACT OR UPPER LESS EXACT)
  message(FATAL_ERROR
          "bracket [${LOWER}, ${UPPER}] misses exact median ${EXACT}")
endif()
# Sequential 1..10000: the exact median is rank 5000's value, 5000.
if(NOT EXACT EQUAL 5000)
  message(FATAL_ERROR "exact median ${EXACT} != 5000")
endif()

# Lemma 3 budget for c=10, R=10, U=0 is c + (R-1)(c-1) = 91 <= n/s = 100.
run_cli(inspect_out inspect --sketch=${SKETCH})
if(NOT inspect_out MATCHES "max rank error : ([0-9]+)")
  message(FATAL_ERROR "no rank-error budget in:\n${inspect_out}")
endif()
if(CMAKE_MATCH_1 GREATER 100)
  message(FATAL_ERROR "rank-error budget ${CMAKE_MATCH_1} exceeds n/s=100")
endif()

message(STATUS "cli smoke ok: bracket [${LOWER}, ${UPPER}] contains ${EXACT}")

# Smoke test for stats-over-the-wire: start a real opaq_queryd on an
# ephemeral port, poll it with `opaq_cli stats` (wire STATS/STATS_DATA),
# and assert both renderings — the text rows and a well-formed Prometheus
# exposition. Exercises the full path: registry -> snapshot -> v6 encode ->
# TCP -> decode -> render.
#
# Driven by ctest:
#   cmake -DOPAQ_CLI=... -DOPAQ_QUERYD=... -DWORK_DIR=... -P stats_smoke.cmake

if(NOT DEFINED OPAQ_CLI OR NOT DEFINED OPAQ_QUERYD OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "stats_smoke.cmake needs -DOPAQ_CLI/-DOPAQ_QUERYD/-DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(DATA "${WORK_DIR}/data.opaq")
set(LOG "${WORK_DIR}/queryd.log")
set(PIDFILE "${WORK_DIR}/queryd.pid")

# Kills the daemon (if it is still up) before failing, so a broken run
# never leaks a background process into the ctest harness.
function(die msg)
  if(EXISTS "${PIDFILE}")
    file(READ "${PIDFILE}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND kill -TERM ${pid} ERROR_QUIET)
  endif()
  set(log_tail "")
  if(EXISTS "${LOG}")
    file(READ "${LOG}" log_tail)
  endif()
  message(FATAL_ERROR "${msg}\n--- queryd log ---\n${log_tail}")
endfunction()

execute_process(
  COMMAND "${OPAQ_CLI}" generate --out=${DATA} --n=20000 --dist=sequential
          --seed=3
  RESULT_VARIABLE gen_code
  OUTPUT_VARIABLE gen_out
  ERROR_VARIABLE gen_err
)
if(NOT gen_code EQUAL 0)
  message(FATAL_ERROR "generate failed:\n${gen_out}\n${gen_err}")
endif()

# Start the daemon in the background on an ephemeral port; --duration caps
# its lifetime so a wedged test cannot leave it running forever.
execute_process(
  COMMAND sh -c "'${OPAQ_QUERYD}' --serve=smoke='${DATA}' --port=0 \
                 --run-size=2000 --samples=200 --duration=120 \
                 > '${LOG}' 2>&1 & echo $! > '${PIDFILE}'"
  RESULT_VARIABLE spawn_code
)
if(NOT spawn_code EQUAL 0)
  message(FATAL_ERROR "failed to spawn opaq_queryd (${spawn_code})")
endif()

# Wait for the "serving on HOST:PORT" line and parse the bound port.
set(PORT "")
foreach(attempt RANGE 100)
  if(EXISTS "${LOG}")
    file(READ "${LOG}" log_text)
    if(log_text MATCHES "serving on ([0-9.]+):([0-9]+)")
      set(HOST ${CMAKE_MATCH_1})
      set(PORT ${CMAKE_MATCH_2})
      break()
    endif()
    if(log_text MATCHES "error:")
      die("opaq_queryd failed to start")
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(PORT STREQUAL "")
  die("opaq_queryd never reported its address")
endif()

# Poll `opaq_cli stats` until the daemon answers (the listener is up once
# the address prints, so the first attempt should already succeed).
set(TEXT_OUT "")
foreach(attempt RANGE 50)
  execute_process(
    COMMAND "${OPAQ_CLI}" stats ${HOST}:${PORT}
    RESULT_VARIABLE stats_code
    OUTPUT_VARIABLE stats_out
    ERROR_VARIABLE stats_err
  )
  if(stats_code EQUAL 0)
    set(TEXT_OUT "${stats_out}")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(TEXT_OUT STREQUAL "")
  die("opaq_cli stats never succeeded against ${HOST}:${PORT}")
endif()

# The text rendering must carry the server-side vocabulary: the net.*
# counters every daemon publishes and the query server's own metrics.
foreach(row net.connections_accepted net.requests_served query.exact_passes
        query.sessions engine.builds)
  if(NOT TEXT_OUT MATCHES "${row}")
    die("stats text output lacks '${row}':\n${TEXT_OUT}")
  endif()
endforeach()
# One session is being served.
if(NOT TEXT_OUT MATCHES "query\\.sessions +1\n")
  die("stats text output does not report 1 session:\n${TEXT_OUT}")
endif()

# The Prometheus rendering must be a well-formed exposition: TYPE lines,
# sanitized opaq_-prefixed names, and the batch-latency summary shape.
execute_process(
  COMMAND "${OPAQ_CLI}" stats ${HOST}:${PORT} --format=prometheus
  RESULT_VARIABLE prom_code
  OUTPUT_VARIABLE PROM_OUT
  ERROR_VARIABLE prom_err
)
if(NOT prom_code EQUAL 0)
  die("opaq_cli stats --format=prometheus exited ${prom_code}:\n${prom_err}")
endif()
foreach(needle
        "# TYPE opaq_net_connections_accepted counter"
        "# TYPE opaq_query_sessions gauge"
        "opaq_query_sessions 1\n"
        "opaq_net_requests_served ")
  if(NOT PROM_OUT MATCHES "${needle}")
    die("prometheus output lacks '${needle}':\n${PROM_OUT}")
  endif()
endforeach()
# Every non-comment line is "opaq_name[{labels}] value".
string(REPLACE "\n" ";" prom_lines "${PROM_OUT}")
foreach(line IN LISTS prom_lines)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  if(NOT line MATCHES "^opaq_[a-zA-Z0-9_:]+([{][^}]*[}])? -?[0-9]+$")
    die("malformed prometheus line: '${line}'")
  endif()
endforeach()

# Clean shutdown: SIGTERM the daemon and confirm the unified final dump.
file(READ "${PIDFILE}" pid)
string(STRIP "${pid}" pid)
execute_process(COMMAND kill -TERM ${pid} RESULT_VARIABLE kill_code)
if(NOT kill_code EQUAL 0)
  die("failed to SIGTERM queryd pid ${pid}")
endif()
set(final_ok FALSE)
foreach(attempt RANGE 100)
  file(READ "${LOG}" log_text)
  if(log_text MATCHES "shutdown: signal received; final stats:")
    set(final_ok TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT final_ok)
  die("queryd never printed the final stats dump after SIGTERM")
endif()

message(STATUS "stats smoke ok: wire-v6 snapshot served on ${HOST}:${PORT}")

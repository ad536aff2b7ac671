"""Two names kept for the pinned benchmark harness; nothing here is used.

The engine runs in one process and publishes no shared-memory trace
arena.  ``perfbench/run.py`` still imports these two constants and sets
the environment variable before each run; the variable is read by
nothing.  Delete this module once the harness stops importing it.
"""

#: Environment variable name ``perfbench/run.py`` sets (read by nothing).
ARENA_THRESHOLD_ENV = "REPRO_ARENA_THRESHOLD"
#: Value ``perfbench/run.py`` assigns to :data:`ARENA_THRESHOLD_ENV`.
DEFAULT_PUBLISH_THRESHOLD = 1 << 28

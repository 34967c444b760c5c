#!/usr/bin/env bash
# Crash-recovery smoke: kill -9 a serve session that is saving its
# summary snapshot in a tight loop, then assert the snapshot on disk
# still loads — it must be either the previous save or the new one,
# never a torn mix.  This exercises the atomic save path,
# analysis::SummaryFileWriter::write (temp file + fsync + rename), which
# every save reaches through TieredSummaryStore::save: a crash at ANY
# instant may strand a *.tmp file, but the target path is only ever
# touched by rename(2).
#
# A second case covers GRACEFUL interruption: a serve session holding
# --snapshot gets SIGTERM mid-session (parked in its stdin read) and
# must still write the shutdown snapshot — the signal handlers install
# without SA_RESTART, the read returns EINTR, and the session unwinds
# through the normal destructor path instead of dying snapshotless.
#
# Usage: scripts/crash_recovery_smoke.sh [build-dir] [iterations]
#
# Exits nonzero on the first iteration whose snapshot fails to load.
set -u

BUILD=${1:-build}
ITERS=${2:-25}
TOOL=$BUILD/dynsum_tool
IR=tests/golden/dsum_corpus/figure2.ir
WORK=$(mktemp -d)
STORE=$WORK/store.dsum
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$TOOL" ]; then
  echo "error: $TOOL is not built (run: cmake --build $BUILD --target dynsum_tool)" >&2
  exit 1
fi
if [ ! -f "$IR" ]; then
  echo "error: $IR not found (run from the repository root)" >&2
  exit 1
fi

# Warm a couple of summaries, then save: the REPL script every serve
# session below replays before its save loop.
WARMUP=$(printf 'query Main.main.s1\nquery Main.main.s2\nquery Vector.get.ret\n')

# The snapshot must parse as a well-formed DSUM file AND yield warm
# summaries; "starting cold" means the load was rejected.
load_ok() {
  local FILE=${1:-$STORE}
  "$TOOL" "$IR" --analysis=dynsum --load-summaries="$FILE" \
    --query=Vector.get.ret 2>/dev/null | grep -q 'loaded .* summaries'
}

# Seed the "old" snapshot with one clean save.
{ printf '%s\nsave %s\nquit\n' "$WARMUP" "$STORE"; } \
  | "$TOOL" "$IR" --analysis=dynsum --serve >/dev/null 2>&1
if ! load_ok; then
  echo "error: the seed save did not produce a loadable snapshot" >&2
  exit 1
fi

FAILED=0
for I in $(seq 1 "$ITERS"); do
  # A serve session saving over the same target as fast as it can...
  { printf '%s\n' "$WARMUP"; yes "save $STORE"; } 2>/dev/null \
    | "$TOOL" "$IR" --analysis=dynsum --serve >/dev/null 2>&1 &
  PID=$!
  # ...killed -9 after a delay swept across the save window (5-105 ms)
  # so the shot lands at a different byte offset every iteration.
  sleep "0.$(printf '%03d' $((5 + (I * 37) % 100)))"
  kill -9 "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null
  # A stranded temp file is the expected crash debris; clear it so the
  # next iteration starts clean.  The TARGET must still load.
  rm -f "$STORE.tmp"
  if ! load_ok; then
    echo "FAIL: iteration $I left an unloadable snapshot at $STORE" >&2
    FAILED=1
    break
  fi
done

if [ "$FAILED" -ne 0 ]; then
  exit 1
fi
echo "crash-recovery smoke: $ITERS kill -9 shots, snapshot loadable every time"

# --- SIGTERM mid-session: the graceful half of the story ---------------
# The session warms a few summaries, then parks in its stdin read (the
# sleep keeps the pipe open with no further input).  SIGTERM must make
# it save --snapshot on the way out, exactly like a clean "quit".
TERMSTORE=$WORK/term.dsum
{ printf '%s\n' "$WARMUP"; sleep 30; } \
  | "$TOOL" "$IR" --analysis=dynsum --serve --snapshot="$TERMSTORE" \
    >/dev/null 2>&1 &
PID=$!
sleep 1 # let the warmup queries land; the session then parks in fgets
kill -TERM "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
if [ ! -s "$TERMSTORE" ]; then
  echo "FAIL: SIGTERM mid-session left no snapshot at $TERMSTORE" >&2
  exit 1
fi
if ! load_ok "$TERMSTORE"; then
  echo "FAIL: the SIGTERM-mid-session snapshot does not load" >&2
  exit 1
fi
echo "crash-recovery smoke: SIGTERM mid-session saved a loadable snapshot"

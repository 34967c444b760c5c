#!/usr/bin/env bash
# Loopback smoke for dynsum_serverd: check that bad or out-of-range numeric
# flags exit 2 without listening, start the server with two tenants,
# drive both through edit/query/commit over real sockets (asserting
# per-tenant isolation, the one-error overflow contract and the refused
# save verb on the way), SIGTERM it mid-run, and assert the graceful
# drain snapshotted every tenant — then restart over the same snapshot
# directory and assert the un-edited tenant answers its first batch
# warm from the disk tier, and start a third time to assert the second
# start's drain kept the records it attached but never touched.
# (The edited tenant's snapshot is fingerprinted against its COMMITTED
# program, so a restart over the original source intentionally refuses
# the stale warm attach — that refusal is correctness, not a failure.)
#
# Usage: scripts/serverd_smoke.sh [build-dir]
set -u

BUILD=${1:-build}
SERVERD=$BUILD/dynsum_serverd
IR=tests/golden/dsum_corpus/figure2.ir
WORK=$(mktemp -d)
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

if [ ! -x "$SERVERD" ]; then
  echo "error: $SERVERD is not built (run: cmake --build $BUILD --target dynsum_serverd)" >&2
  exit 1
fi
if [ ! -f "$IR" ]; then
  echo "error: $IR not found (run from the repository root)" >&2
  exit 1
fi

start_server() { # start_server <tenant flags...>; sets SRV_PID and PORT
  rm -f "$WORK/port"
  "$SERVERD" "$@" --snapshot-dir="$WORK" --port-file="$WORK/port" \
    --threads=1 >"$WORK/server.log" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
      echo "error: dynsum_serverd died on startup:" >&2
      cat "$WORK/server.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  PORT=$(cat "$WORK/port")
}

# One python client process per session script: sends each line, reads
# the "."-terminated reply block, and checks the expectation patterns
# passed on stdin as "command<TAB>required substring<TAB>forbidden".
# The client is a file, not "python3 -": a heredoc on python's stdin
# would take the place of the piped session script.
cat >"$WORK/drive.py" <<'PYEOF'
import socket, sys

port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
f = s.makefile("rw", newline="\n")

def block():
    out = []
    while True:
        line = f.readline()
        if not line or line == ".\n":
            return "".join(out)
        out.append(line)

block()  # greeting
failed = 0
for spec in sys.stdin.read().splitlines():
    if not spec.strip():
        continue
    cmd, want, forbid = (spec.split("\t") + ["", ""])[:3]
    f.write(cmd + "\n")
    f.flush()
    reply = block()
    if want and want not in reply:
        print(f"FAIL: '{cmd}' reply lacks '{want}':\n{reply}", file=sys.stderr)
        failed = 1
    if forbid and forbid in reply:
        print(f"FAIL: '{cmd}' reply contains forbidden '{forbid}':\n{reply}",
              file=sys.stderr)
        failed = 1
s.close()
sys.exit(failed)
PYEOF
drive() { # drive <port>
  python3 "$WORK/drive.py" "$1"
}

# --- Bad numeric flags: usage error, never wrapped, clamped or cut short
# (a wrapped --port=70000 would listen on 4464; a clamped
# --max-connections=-1 would mean "unlimited"; --threads=abc would read
# 0, one shard per hardware thread).  The timeout only bounds a server
# that wrongly starts.
for FLAG in --port=70000 --max-connections=-1 --threads=abc \
    --commit-threads=4x; do
  rm -f "$WORK/port"
  timeout 10 "$SERVERD" --tenant=alpha="$IR" "$FLAG" \
    --port-file="$WORK/port" >"$WORK/server.log" 2>&1
  RC=$?
  if [ "$RC" -ne 2 ] || [ -e "$WORK/port" ]; then
    echo "FAIL: $FLAG exited $RC (want 2) or wrote a port file:" >&2
    cat "$WORK/server.log" >&2
    exit 1
  fi
done

# --- Round 1: two tenants, edits in alpha only, isolation in beta ------
start_server --tenant=alpha="$IR" --tenant=beta="$IR"

printf '%s\n' \
  $'tenants\talpha' \
  $'tenant alpha\ttenant alpha bound' \
  $'query Main.main.s1\t{o26:Integer}' \
  $'alloc Main.main s1 String\tbuffered: s1 = new String' \
  $'assign Main main.s1 main.s2\terror: unknown method' \
  $'commit\tgeneration 1' \
  $'query Main.main.s1\ts1@serve:String' \
  "query $(printf 'x%.0s' $(seq 1 5000))	error: line exceeds" \
  $'query Main.main.s1\ts1@serve:String' \
  "save $WORK/stolen.dsum	error: save is not served" \
  $'quit\tbye' \
  | drive "$PORT" || { echo "FAIL: alpha session" >&2; exit 1; }
if [ -e "$WORK/stolen.dsum" ]; then
  echo "FAIL: a socket client made the server write a file" >&2
  exit 1
fi

printf '%s\n' \
  $'tenant beta\ttenant beta bound' \
  $'query Main.main.s1\t{o26:Integer}\ts1@serve' \
  $'query Main.main.s2\t{o29:String}' \
  $'stats\tgeneration 0' \
  $'quit\tbye' \
  | drive "$PORT" || { echo "FAIL: beta session (isolation)" >&2; exit 1; }

# --- SIGTERM: the drain must snapshot every tenant ---------------------
kill -TERM "$SRV_PID"
wait "$SRV_PID"
RC=$?
SRV_PID=""
if [ "$RC" -ne 0 ]; then
  echo "FAIL: serverd exited $RC on SIGTERM:" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi
for T in alpha beta; do
  if [ ! -s "$WORK/$T.dsum" ]; then
    echo "FAIL: SIGTERM drain left no snapshot for tenant $T" >&2
    exit 1
  fi
done
if ! grep -q 'drained' "$WORK/server.log"; then
  echo "FAIL: no drain line in the server log" >&2
  exit 1
fi

# --- Round 2: restart; the un-edited tenant must answer warm -----------
start_server --tenant=beta="$IR"

printf '%s\n' \
  $'tenant beta\ttenant beta bound' \
  $'query Main.main.s1\t{o26:Integer}' \
  $'stats\tdisk tier: attached' \
  $'quit\tbye' \
  | drive "$PORT" || { echo "FAIL: beta did not restart warm" >&2; exit 1; }

kill -TERM "$SRV_PID"
wait "$SRV_PID"
RC=$?
SRV_PID=""
if [ "$RC" -ne 0 ]; then
  echo "FAIL: serverd exited $RC on the second SIGTERM:" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi

# --- Round 3: the second start asked only s1; its drain must still have
# saved s2's summaries, so a third start computes none of them ---------
start_server --tenant=beta="$IR"

printf '%s\n' \
  $'tenant beta\ttenant beta bound' \
  $'query Main.main.s2\t, 0 computed]' \
  $'quit\tbye' \
  | drive "$PORT" || { echo "FAIL: third start recomputed summaries" >&2; exit 1; }

kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=""

echo "serverd smoke: 2 tenants driven, isolated, SIGTERM-drained, two warm restarts verified"

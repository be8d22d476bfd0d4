#!/usr/bin/env bash
#===-- tests/repl/snapshot_between_lines.sh - Repl saves between lines ---===#
#
# Part of the Multiprocessor Smalltalk reproduction. MIT license.
#
# The repl takes its --snapshot-every images between lines, never in the
# middle of one. Line 1 sets A and B to 0; line 2 sets A to 1 and then
# never returns. Killed during line 2, the repl must leave an image that
# holds A = 0 and B = 0: a save taken inside line 2 would hold A = 1.
#
#   tests/repl/snapshot_between_lines.sh REPL WORKDIR
#
# It waits on the repl's answers and on the image file rather than on
# fixed sleeps, so slow (sanitizer) builds pass too. Exits 0 on a pass.
#===----------------------------------------------------------------------===#

set -u
repl=$1 dir=$2
image=$dir/x.image
pid=
rm -rf "$dir"
mkdir -p "$dir"

fail() {
  echo "FAIL: $*" >&2
  [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null
  exit 1
}

# wait_for SECONDS COMMAND...: polls COMMAND until it succeeds.
wait_for() {
  local limit=$1
  shift
  for _ in $(seq $((limit * 20))); do
    "$@" && return 0
    sleep 0.05
  done
  return 1
}

mkfifo "$dir/in"
"$repl" --snapshot="$image" --snapshot-every=20 <"$dir/in" >"$dir/out" 2>&1 &
pid=$!
exec 3>"$dir/in"

echo 'Smalltalk at: #A put: 0; at: #B put: 0' >&3
wait_for 120 grep -q '^> 0$' "$dir/out" ||
  fail "line 1 got no answer: $(cat "$dir/out")"
sleep 0.2 # past --snapshot-every, so the next line is preceded by a save
echo '| t | Smalltalk at: #A put: 1. [true] whileTrue' >&3
# The save before line 2 lands as the image file appears; a save inside
# line 2 would follow within a few 20 ms periods.
wait_for 120 test -f "$image" || fail "no image was saved"
sleep 1
kill -KILL "$pid"
wait "$pid" 2>/dev/null
pid=
exec 3>&-

printf 'Smalltalk at: #A\nSmalltalk at: #B\n' |
  "$repl" --load="$image" >"$dir/load.out" 2>&1 ||
  fail "cannot load the image: $(cat "$dir/load.out")"
values=$(sed -n 's/^> \(-*[0-9][0-9]*\)$/\1/p' "$dir/load.out" | paste -sd' ')
echo "image holds A B = $values"
[ "$values" = "0 0" ] || fail "want A B = 0 0"

#!/bin/sh
# Checks that a command rejects its input before running: it must exit with
# status 2 and print a diagnostic on stderr matching PATTERN (grep -E).  An
# abort (134), a crash or an out-of-memory kill fails the check, and so does
# a hang once the ctest TIMEOUT ends it.
#
#   expect_rejected.sh PATTERN COMMAND [ARGS...]
pattern=$1
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
printf '%s\n' "$err"
if [ "$rc" -ne 2 ]; then
  echo "expected exit status 2, got $rc"
  exit 1
fi
if ! printf '%s\n' "$err" | grep -Eq -- "$pattern"; then
  echo "no diagnostic matching: $pattern"
  exit 1
fi

#!/bin/sh
# Checks that `eclb_cli cluster --metrics` is a pure function of the run.
#
#   check_cli_metrics.sh ECLB_CLI WORKDIR threads  CLUSTER_ARGS...
#   check_cli_metrics.sh ECLB_CLI WORKDIR backlog  CLUSTER_ARGS...
#   check_cli_metrics.sh ECLB_CLI WORKDIR resilience  CLUSTER_ARGS...
#
# threads: runs CLUSTER_ARGS at --fabric-threads 1, 2 and 0 (twice) and
#          requires byte-identical --metrics files.
# backlog: requires the requests.backlog_seconds gauge to equal the
#          fleet backlog of the stderr SLA trailer (printed to 3 decimals).
# resilience: requires each count of the stderr resilience trailer and of
#          its `partitions:` line to equal its fault.* metric; without a
#          `partitions:` line fault.partitions must be 0.
# Exits nonzero on any mismatch or failed run.
set -eu
cli=$1
dir=$2
mode=$3
shift 3
mkdir -p "$dir"

case $mode in
  threads)
    run=0
    for t in 1 2 0 0; do
      run=$((run + 1))
      "$cli" cluster "$@" --fabric-threads "$t" \
        --metrics "$dir/metrics_$run.json" > /dev/null 2>&1
      cmp "$dir/metrics_1.json" "$dir/metrics_$run.json"
    done
    ;;
  backlog)
    trailer=$("$cli" cluster "$@" --metrics "$dir/metrics_backlog.json" \
      2>&1 > /dev/null | sed -n 's/.* backlog \([0-9.]*\) cap-s$/\1/p')
    gauge=$(sed -n 's/^ *"requests.backlog_seconds": \([^,]*\),*$/\1/p' \
      "$dir/metrics_backlog.json")
    if [ -z "$trailer" ] || [ -z "$gauge" ]; then
      echo "missing backlog: trailer '$trailer', gauge '$gauge'" >&2
      exit 1
    fi
    rounded=$(printf '%.3f' "$gauge")
    if [ "$rounded" != "$trailer" ]; then
      echo "backlog gauge $gauge ($rounded) != trailer $trailer" >&2
      exit 1
    fi
    echo "backlog $trailer cap-s"
    ;;
  resilience)
    json=$dir/metrics_resilience.json
    err=$("$cli" cluster "$@" --metrics "$json" 2>&1 > /dev/null)
    res=$(printf '%s\n' "$err" | grep '^resilience' || true)
    part=$(printf '%s\n' "$err" | grep '^partitions: ' || true)
    if [ -z "$res" ]; then
      echo "no resilience trailer" >&2
      exit 1
    fi
    bad=0
    # check LINE LABEL METRIC: the count before ` LABEL,` in LINE must
    # equal METRIC's value in the JSON.
    check() {
      fig=$(printf '%s\n' "$1" | sed -n "s/.*[:,] \([0-9][0-9]*\) $2,.*/\1/p")
      val=$(sed -n "s/^ *\"$3\": \([0-9][0-9]*\),*\$/\1/p" "$json")
      if [ -z "$fig" ] || [ "$fig" != "$val" ]; then
        echo "$2: trailer '$fig' != $3 '$val'" >&2
        bad=1
      fi
    }
    check "$res" crashes fault.crashes
    check "$res" recoveries fault.recoveries
    check "$res" failovers fault.failovers
    check "$res" dropped fault.dropped_messages
    check "$res" retried fault.retried_messages
    check "$res" "failed migrations" fault.failed_migrations
    if [ -n "$part" ]; then
      check "$part" splits fault.partitions
      check "$part" heals fault.heals
      check "$part" "fenced commands" fault.fenced_commands
      check "$part" "shadow restarts" fault.shadow_starts
      check "$part" "duplicates resolved" fault.duplicates_resolved
      check "$part" "orphans adopted" fault.orphans_adopted
    else
      check "partitions: 0 splits," splits fault.partitions
    fi
    if [ "$bad" -ne 0 ]; then
      exit 1
    fi
    printf '%s\n' "$res"
    if [ -n "$part" ]; then
      printf '%s\n' "$part"
    fi
    ;;
  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac

#!/bin/sh
# Checks that `eclb_cli cluster --metrics` is a pure function of the run.
#
#   check_cli_metrics.sh ECLB_CLI WORKDIR threads  CLUSTER_ARGS...
#   check_cli_metrics.sh ECLB_CLI WORKDIR backlog  CLUSTER_ARGS...
#
# threads: runs CLUSTER_ARGS at --fabric-threads 1, 2 and 0 (twice) and
#          requires byte-identical --metrics files.
# backlog: requires the requests.backlog_seconds gauge to equal the
#          fleet backlog of the stderr SLA trailer (printed to 3 decimals).
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
  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac

#!/usr/bin/env bash
# Determinism guard: hash every JSONL export of a fixed set of seeded runs.
#
#   tools/determinism_guard.sh record FILE [BUILD_DIR]   write the hashes
#   tools/determinism_guard.sh check  FILE [BUILD_DIR]   compare, exit 1 on drift
#
# For seeds 101/202/303 it runs five configurations with --metrics-dir:
# YCSB-B, YCSB-A with minitransactions (--tx), YCSB-A unreplicated (--rf 0),
# a crash-recovery run and the open-loop bench (bench_openloop --quick,
# which writes one run directory per experiment), and hashes each run's
# stdout log next to its exports. Record on a build of the old code, check
# on a build of the new one: a refactor that keeps the model unchanged
# leaves every exported and printed byte identical (docs/PERF.md, "The
# determinism guard").
set -euo pipefail

usage() {
  echo "usage: $0 record|check FILE [BUILD_DIR]" >&2
  exit 2
}

[[ $# -ge 2 && $# -le 3 ]] || usage
mode=$1
file=$2
[[ $mode == record || $mode == check ]] || usage
build=$(cd "${3:-build}" && pwd)
rcperf=$build/tools/rcperf
openloop=$build/bench/bench_openloop
[[ -x $rcperf ]] || { echo "no rcperf binary at $rcperf" >&2; exit 2; }
[[ -x $openloop ]] || { echo "no bench_openloop binary at $openloop" >&2; exit 2; }

ycsb=(ycsb --servers 5 --clients 4 --rf 3 --records 20000 --warmup 1
      --measure 3)
configs=(ycsb_b ycsb_a_tx ycsb_a_rf0 recovery openloop)

run_config() {  # name seed outdir
  case $1 in
    ycsb_b)     "$rcperf" "${ycsb[@]}" --workload B --seed "$2" \
                  --metrics-dir "$3" ;;
    ycsb_a_tx)  "$rcperf" "${ycsb[@]}" --workload A --tx --seed "$2" \
                  --metrics-dir "$3" ;;
    ycsb_a_rf0) "$rcperf" "${ycsb[@]}" --workload A --rf 0 --seed "$2" \
                  --metrics-dir "$3" ;;
    recovery)   "$rcperf" recovery --servers 9 --rf 3 --records 200000 \
                  --kill-at 5 --seed "$2" --metrics-dir "$3" ;;
    openloop)   "$openloop" --quick --seed "$2" --metrics-dir "$3" ;;
  esac
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for seed in 101 202 303; do
  for cfg in "${configs[@]}"; do
    out=$seed/$cfg  # relative: the logs print it, so it must not vary
    mkdir -p "$work/$out"
    if ! (cd "$work" && run_config "$cfg" "$seed" "$out" > "$out.log" 2>&1)
    then
      echo "run failed: $cfg seed $seed" >&2
      cat "$work/$out.log" >&2
      exit 1
    fi
  done
done

hashes=$work/hashes
(cd "$work" && find . \( -name '*.jsonl' -o -name '*.log' \) |
   LC_ALL=C sort | xargs sha256sum) > "$hashes"
[[ -s $hashes ]] || { echo "no exports found" >&2; exit 1; }

if [[ $mode == record ]]; then
  cp "$hashes" "$file"
  echo "recorded $(wc -l < "$hashes") export and log hashes to $file"
  exit 0
fi

if cmp -s "$file" "$hashes"; then
  echo "determinism guard: $(wc -l < "$hashes") exports and logs byte-identical"
  exit 0
fi
echo "determinism guard: exports differ from $file" >&2
diff "$file" "$hashes" >&2 || true
exit 1

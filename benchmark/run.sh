#!/usr/bin/env bash
# Runs the benchmark: builds it, then several passes of the workloads,
# writing one JSON report per workload per pass and printing every
# metric with its name, unit and value.
#
#   benchmark/run.sh [--seed=S] [--runs=N] [--pass=K] [--workloads=a,b,...]
#                    [--out=DIR] [--trace=DIR] [--smoke]
#
#   --seed       seed of pass 1; pass k uses S + k - 1 (default 9601, the
#                seed bench_fig4_cost_savings uses; the held-out seed for
#                checking a claim is 4242, see README.md)
#   --runs       passes (default 5)
#   --pass       number of the first pass (default 1): runs passes
#                K .. K + N - 1, so two commits can take turns pass by
#                pass (README.md, "Stating and checking a claim")
#   --workloads  comma-separated subset (default: all three)
#   --out        report directory (default .bench_build/runs/<time>);
#                compare two with benchmark/compare.py
#   --trace      afterwards run each workload once more traced, writing
#                its Chrome trace and per-layer report into DIR
#   --smoke      only the build's smoke test: every workload for about a
#                second with every check on
#
# Every run measures BENCHMARK.json's run_seconds. Pass k starts at the
# k-th workload, so a slow stretch of the machine does not always land
# on the same workload.

set -euo pipefail
cd "$(dirname "$0")/.."

seed=9601
runs=5
first=1
workloads=tpcd_remote,setquery_hot,tpcd_refresh
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=.bench_build/runs/$(date +%Y%m%d-%H%M%S)
trace=
smoke=0
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed=${arg#*=} ;;
    --runs=*) runs=${arg#*=} ;;
    --pass=*) first=${arg#*=} ;;
    --workloads=*) workloads=${arg#*=} ;;
    --out=*) out=${arg#*=} ;;
    --trace=*) trace=${arg#*=} ;;
    --smoke) smoke=1 ;;
    *) echo "run.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

python3 benchmark/run.py --build-only
if [[ $smoke == 1 ]]; then
  exec ctest --test-dir .bench_build/cmake --output-on-failure
fi

print_metrics() {
  python3 - "$1" <<'EOF'
import json, sys
report = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
for name, m in report["metrics"].items():
    print(f"    {name:34} {m['value']:>16.6g} {m['unit']}")
EOF
}

IFS=, read -r -a list <<< "$workloads"
mkdir -p "$out"
status=0
for ((pass = first; pass < first + runs; pass++)); do
  for ((i = 0; i < ${#list[@]}; i++)); do
    w=${list[$(((i + pass - 1) % ${#list[@]}))]}
    report="$out/$w.pass$pass.json"
    echo "pass $pass  $w  seed $((seed + pass - 1))"
    if ! python3 benchmark/run.py --workload "$w" --seed $((seed + pass - 1)) \
        --seconds "$seconds" --trace 0 --report "$report" \
        > /dev/null 2> "$out/$w.pass$pass.log"; then
      echo "  FAILED (see $out/$w.pass$pass.log)" >&2
      status=1
    fi
    [[ -s $report ]] && print_metrics "$report"
  done
done
echo "reports in $out"

if [[ -n $trace ]]; then
  mkdir -p "$trace"
  for w in "${list[@]}"; do
    report="$trace/$w.layers.json"
    echo "traced  $w  seed $seed"
    if ! python3 benchmark/run.py --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 1 --report "$report" \
        > /dev/null 2> "$trace/$w.layers.log"; then
      echo "  FAILED (see $trace/$w.layers.log)" >&2
      status=1
    fi
    [[ -f .bench_build/work/trace-$w.json ]] && cp ".bench_build/work/trace-$w.json" "$trace/$w.trace.json"
    [[ -s $report ]] && print_metrics "$report"
  done
  echo "Chrome traces and per-layer reports in $trace"
fi
exit $status

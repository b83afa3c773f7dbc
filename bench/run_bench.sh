#!/usr/bin/env bash
# Regenerates BENCH_micro.json at the repo root: runs the google-benchmark
# micro-bench binaries (bench_micro_sim, bench_micro_clocks,
# bench_micro_shards) and merges their items/sec against the committed
# pre-optimization baseline (bench/BASELINE_micro.json), so every PR leaves
# a before/after trajectory. Refuses non-Release build trees (see below) and
# stamps CMAKE_BUILD_TYPE into the output context.
#
# Usage: bench/run_bench.sh [build_dir]
#   build_dir defaults to <repo>/build. Override the per-benchmark minimum
#   measuring time with BENCH_MIN_TIME (seconds, plain number — the bundled
#   google-benchmark predates the "0.05s" form).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
min_time="${BENCH_MIN_TIME:-0.2}"

# Refuse to record numbers from a non-Release build: a debug-built tree once
# leaked into the committed BENCH_micro.json and made every before/after
# trajectory meaningless. The build type is read from CMakeCache.txt (the
# authoritative source) and stamped into the output so a stray number can
# always be traced back. BENCH_ALLOW_NONRELEASE=1 overrides for local
# profiling; the override is recorded too.
cache="${build_dir}/CMakeCache.txt"
if [[ ! -f "${cache}" ]]; then
  echo "error: ${cache} not found; is ${build_dir} a configured build tree?" >&2
  exit 1
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${cache}")"
build_type="${build_type:-unspecified}"
# (`library_build_type` in the context is the *preinstalled* google-benchmark
# library's own build mode — informational only; `cmake_build_type` below is
# what governs the code under test.)
if [[ "${build_type}" != "Release" && "${build_type}" != "RelWithDebInfo" ]]; then
  if [[ "${BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
    echo "error: ${build_dir} is CMAKE_BUILD_TYPE=${build_type}, not an optimized build." >&2
    echo "  Benchmark numbers from such a build must not be committed." >&2
    echo "  Configure with -DCMAKE_BUILD_TYPE=Release, or set" >&2
    echo "  BENCH_ALLOW_NONRELEASE=1 to record anyway (flagged in the JSON)." >&2
    exit 1
  fi
  echo "warning: recording ${build_type}-build numbers (BENCH_ALLOW_NONRELEASE=1)" >&2
fi
# glibc adapts its mmap and trim thresholds to what a process frees, so a
# row that grows and frees large buffers (BM_TraceRecord/presized:0 above
# all) measured heap layout: the same binary read 33-54 M records/s at
# min_time 0.2 and 11-16 M at 0.5. Both thresholds are pinned for every
# micro binary and the setting is stamped into the output context.
glibc_tunables="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=134217728"
baseline="${repo_root}/bench/BASELINE_micro.json"
out="${repo_root}/BENCH_micro.json"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

for bench in bench_micro_sim bench_micro_clocks bench_micro_shards; do
  bin="${build_dir}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${build_dir} --target ${bench})" >&2
    exit 1
  fi
  echo "== ${bench} (min_time=${min_time}s)" >&2
  GLIBC_TUNABLES="${glibc_tunables}" "${bin}" \
           --benchmark_min_time="${min_time}" \
           --benchmark_out="${tmp_dir}/${bench}.json" \
           --benchmark_out_format=json >&2
done

jq -s --slurpfile base "${baseline}" \
   --arg build_type "${build_type}" \
   --arg override "${BENCH_ALLOW_NONRELEASE:-0}" \
   --arg tunables "${glibc_tunables}" '
  ($base[0].benchmarks) as $before |
  {
    generated_by: "bench/run_bench.sh",
    baseline: "bench/BASELINE_micro.json (pre hot-path overhaul)",
    context: ((.[0].context | {date, num_cpus, mhz_per_cpu, library_build_type})
              + {cmake_build_type: $build_type, nonrelease_override: $override,
                 glibc_tunables: $tunables}),
    benchmarks: [
      .[].benchmarks[] | select(.run_type == "iteration") |
      ($before[.name]) as $b |
      {
        name: .name,
        items_per_second_before: ($b.items_per_second // null),
        items_per_second_after: (.items_per_second // null),
        real_time_ns_before: ($b.real_time_ns // null),
        real_time_ns_after: .real_time,
        speedup: (
          if ($b.items_per_second // 0) > 0 and (.items_per_second // 0) > 0
          then (.items_per_second / $b.items_per_second * 1000 | round / 1000)
          elif ($b.real_time_ns // 0) > 0 and .real_time > 0
          then ($b.real_time_ns / .real_time * 1000 | round / 1000)
          else null end)
      } + (if .allocs_per_update != null
           then {allocs_per_update: .allocs_per_update} else {} end)
        + (if .bytes_per_record != null
           then {bytes_per_record: .bytes_per_record} else {} end)
        + (if .allocs_per_line != null
           then {allocs_per_line: .allocs_per_line} else {} end)
        + (if .allocs_per_record != null
           then {allocs_per_record: .allocs_per_record} else {} end)
        + (if .allocs_per_op != null
           then {allocs_per_op: .allocs_per_op} else {} end)
        + (if .record_bytes != null
           then {record_bytes: .record_bytes} else {} end)
        + (if .ns_per_process != null
           then {ns_per_process: .ns_per_process} else {} end)
        + (if .allocs_per_process != null
           then {allocs_per_process: .allocs_per_process} else {} end)
    ]
  }' "${tmp_dir}/bench_micro_sim.json" "${tmp_dir}/bench_micro_clocks.json" \
     "${tmp_dir}/bench_micro_shards.json" \
  > "${out}"

echo "wrote ${out}" >&2
jq -r '.benchmarks[] | select(.speedup != null) |
       "\(.name)\t\(.speedup)x"' "${out}" >&2

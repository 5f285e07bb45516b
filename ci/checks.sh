#!/usr/bin/env bash
# The CI checks, one function per workflow step after the install:
#   ci/checks.sh STEP...   (STEP: tier1|bench|presets|gainmaps|sidecar|cli|oom)
# The steps named run in the order given, and the first that fails stops the run.
# Each runs from the repository root and writes every output under runs/. `sidecar`
# re-runs the fig5 sidecar that `presets` writes, so run `presets` first:
#   ci/checks.sh presets sidecar
# CI sets OPENBLAS_NUM_THREADS=1, which the byte comparisons assume.
set -e
cd "$(dirname "$0")/.."
src=$PWD/src

# twice NAME CODE ARGS...: run `nfmimo ARGS` in two processes, each in a fresh directory
# runs/NAME/1 or runs/NAME/2 that holds its stdout, its stderr and every file it writes.
# Both must exit with CODE; a failing run prints one stderr line and writes no file.
# The two directories must be identical. -W error makes a numpy warning fail the step,
# as it fails tier-1
twice() {
  local name=$1 code=$2 n dir status
  shift 2
  for n in 1 2; do
    dir=runs/$name/$n
    rm -rf $dir
    mkdir -p $dir
    status=0
    (cd $dir && PYTHONPATH=$src python -W error -m nfmimo.cli "$@" > stdout 2> stderr) || status=$?
    test $status -eq $code
    if [ $code -ne 0 ]; then
      test $(wc -l < $dir/stderr) -eq 1
      test "$(ls $dir)" = $'stderr\nstdout'
    fi
  done
  diff -r runs/$name/1 runs/$name/2
}

# Tier-1 tests.
tier1() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --durations=15 --continue-on-collection-errors
}

# Each benchmark workload runs and its outputs pass the oracle.
# run.py exits 0 even when the oracle rejects an output, so the step reads the
# "correct" field of the JSON line it prints last; that line, printed first, puts
# the runner's metrics (peak_rss_mb among them) in the job log
bench() {
  for w in sweep_spacing offaxis_dense gainmap_cli; do
    python3 benchmarks/run.py --workload $w --seed 1 --seconds 1 --trace 0 > runs/bench_$w.out
    tail -n 1 runs/bench_$w.out
    tail -n 1 runs/bench_$w.out | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  done
}

# Preset output is identical across processes.
# xl (about 14 s a run) is the only preset whose folds at S = 75 and 100 take more
# than one slab; the fig7 and fig8 profiles write no sidecar
presets() {
  for p in fig2 fig3 fig5 fig6 fig7 fig8 fig9 xl; do
    twice $p 0 sweep $p
  done
}

# Gain-map output is identical across processes.
# the default grid (41 points, half-width 2 d_th) holds 0; 60 points over +-3 lambda hold none;
# one point is the focus (0, 0, L) alone
gainmaps() {
  for m in exact phase_only fresnel; do
    twice gainmap_$m 0 gainmap --mode $m
    twice gainmap_even_$m 0 gainmap --mode $m --points 60 --extent 3lambda
    twice gainmap_one_$m 0 gainmap --mode $m --points 1
    test $(wc -l < runs/gainmap_one_$m/1/gainmap.csv) -eq 2
    tail -n 1 runs/gainmap_one_$m/1/gainmap.csv | grep -q '^0,0,'
  done
}

# The sidecar re-runs to the same CSV and sidecar.
# a spec file of integer JSON numbers too; a grid that is no list, a truncated spec, a spec
# that is not UTF-8 and a spec that does not exist each exit 1 with one line and write no
# output beside the spec, and the two malformed ones name their file
sidecar() {
  twice rerun 0 sweep ../../fig5/1/fig5.csv.spec.json --output fig5.csv
  diff -r runs/fig5/1 runs/rerun/1
  echo '{"swept_variable": "antennas_per_side", "grid": [2, 3], "wavelength": 0.01, "spacing": 0.05, "separation": 1}' > runs/ints.json
  twice ints 0 sweep ../../ints.json --output ints.csv
  twice ints_rerun 0 sweep ../../ints/1/ints.csv.spec.json --output ints.csv
  diff -r runs/ints/1 runs/ints_rerun/1
  echo '{"swept_variable": "spacing", "grid": "0.05", "wavelength": 0.01, "side_count": 2, "separation": 1}' > runs/text_grid.json
  printf '{"swept_variable": "spacing", "grid": [0.05' > runs/truncated.json
  printf '\377\376' > runs/not_utf8.json
  for f in text_grid truncated not_utf8 missing; do
    twice $f 1 sweep ../../$f.json
    test ! -e runs/$f.out.csv
  done
  grep -q '^error: \.\./\.\./truncated\.json: ' runs/truncated/1/stderr
  grep -q '^error: \.\./\.\./not_utf8\.json: ' runs/not_utf8/1/stderr
}

# Report and threshold output is identical across processes.
# a numerical failure exits 2 with one stderr line, the same in every process.
# d_th overflows at the 1e300 pair with spacing 1; the two fringe-EDoF reports leave the
# float range in plain Python floats; the 1e160 spacing and the 1e308 power overflow in
# numpy, whose warning the numerical-failure boundary raises as that one line; a gain map
# whose focus distances underflow leaves no output file behind
cli() {
  twice report 0 report
  twice report_json 0 report --json
  twice threshold 0 threshold
  twice d_th_overflow 2 threshold --wavelength 1e300 --separation 1e300 --spacing 1
  twice epsilon_overflow 2 threshold --spacing 1e154
  twice fringe_underflow 2 report --wavelength 1e-154 --spacing 1e-154 --separation 1e-154 --side-count 2
  twice fringe_overflow 2 report --wavelength 1e-5 --spacing 1e75 --separation 1e-5 --side-count 2
  twice distance_overflow 2 report --spacing 1e160
  twice capacity_overflow 2 report --spacing 0.002 --side-count 5 --separation 0.05 --power 1e308
  twice focus_underflow 2 gainmap --separation 1e-200 --points 2
}

# Running out of memory exits 2 with one line.
# at S = 300 the first fold asks for 7.5 GiB, so under a 1.5 GB address-space limit the
# allocation fails at once; MemoryError on accepted input is a numerical failure
oom() {
  (ulimit -v 1500000; twice oom 2 report --side-count 300)
}

usage() {
  echo "usage: ci/checks.sh tier1|bench|presets|gainmaps|sidecar|cli|oom..." >&2
  exit 1
}

# every name is checked before any step runs
test $# -gt 0 || usage
for step in "$@"; do
  case "$step" in
    tier1 | bench | presets | gainmaps | sidecar | cli | oom) ;;
    *) usage ;;
  esac
done
mkdir -p runs
for step in "$@"; do
  "$step"
done

#!/usr/bin/env bash
# The CI checks, one function per workflow step after the install:
#   ci/checks.sh STEP...   (STEP: tier1|bench|presets|gainmaps|sidecar|cli|oom)
# The steps named run in the order given, and the first that fails stops the run.
# Each runs from the repository root and writes its outputs there. `sidecar` re-runs
# the fig5 sidecar that `presets` writes, so run `presets` first:
#   ci/checks.sh presets sidecar
# CI sets OPENBLAS_NUM_THREADS=1, which the byte comparisons assume.
set -e
cd "$(dirname "$0")/.."

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
    python3 benchmarks/run.py --workload $w --seed 1 --seconds 1 --trace 0 > bench_$w.out
    tail -n 1 bench_$w.out
    tail -n 1 bench_$w.out | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  done
}

# Preset output is identical across processes.
# xl (about 14 s a run) is the only preset whose folds at S = 75 and 100 take more
# than one slab; the fig7 and fig8 profiles write no sidecar. -W error makes a
# numpy warning fail the job, as it fails tier-1, which never runs xl
presets() {
  for p in fig2 fig3 fig5 fig6 fig7 fig8 fig9 xl; do
    for n in 1 2; do
      PYTHONPATH=src python -W error -m nfmimo.cli sweep $p --output ${p}_$n.csv
    done
    cmp ${p}_1.csv ${p}_2.csv
  done
  for p in fig2 fig3 fig5 fig6 fig9 xl; do
    cmp ${p}_1.csv.spec.json ${p}_2.csv.spec.json
  done
}

# Gain-map output is identical across processes.
# the default grid (41 points, half-width 2 d_th) holds 0; 60 points over +-3 lambda hold none;
# one point is the focus (0, 0, L) alone
gainmaps() {
  for m in exact phase_only fresnel; do
    for n in 1 2; do
      PYTHONPATH=src python -W error -m nfmimo.cli gainmap --mode $m --output gainmap_${m}_$n.csv
      PYTHONPATH=src python -W error -m nfmimo.cli gainmap --mode $m --points 60 --extent 3lambda \
        --output gainmap_even_${m}_$n.csv
      PYTHONPATH=src python -W error -m nfmimo.cli gainmap --mode $m --points 1 \
        --output gainmap_one_${m}_$n.csv
    done
    cmp gainmap_${m}_1.csv gainmap_${m}_2.csv
    cmp gainmap_even_${m}_1.csv gainmap_even_${m}_2.csv
    cmp gainmap_one_${m}_1.csv gainmap_one_${m}_2.csv
    test "$(wc -l < gainmap_one_${m}_1.csv)" -eq 2
    tail -n 1 gainmap_one_${m}_1.csv | grep -q '^0,0,'
  done
}

# The sidecar re-runs to the same CSV and sidecar.
# a spec file of integer JSON numbers too; a grid that is no list exits 1 with one line
sidecar() {
  PYTHONPATH=src python -W error -m nfmimo.cli sweep fig5_1.csv.spec.json --output rerun.csv
  cmp fig5_1.csv rerun.csv
  cmp fig5_1.csv.spec.json rerun.csv.spec.json
  echo '{"swept_variable": "antennas_per_side", "grid": [2, 3], "wavelength": 0.01, "spacing": 0.05, "separation": 1}' > ints.json
  for n in 1 2; do
    PYTHONPATH=src python -W error -m nfmimo.cli sweep ints.json --output ints_$n.csv
  done
  PYTHONPATH=src python -W error -m nfmimo.cli sweep ints_1.csv.spec.json --output ints_rerun.csv
  for f in ints_2 ints_rerun; do
    cmp ints_1.csv $f.csv
    cmp ints_1.csv.spec.json $f.csv.spec.json
  done
  echo '{"swept_variable": "spacing", "grid": "0.05", "wavelength": 0.01, "side_count": 2, "separation": 1}' > text_grid.json
  for n in 1 2; do
    code=0
    PYTHONPATH=src python -W error -m nfmimo.cli sweep text_grid.json 2> text_grid_$n.err || code=$?
    test $code -eq 1
    test $(wc -l < text_grid_$n.err) -eq 1
  done
  cmp text_grid_1.err text_grid_2.err
  # a truncated spec and a spec that is not UTF-8 each exit 1 with one line naming the file
  printf '{"swept_variable": "spacing", "grid": [0.05' > truncated.json
  printf '\377\376' > not_utf8.json
  for c in "sweep truncated.json" "sweep not_utf8.json"; do
    f=$(echo $c | tr -d ' -.')
    for n in 1 2; do
      code=0
      PYTHONPATH=src python -W error -m nfmimo.cli $c 2> ${f}_$n.err || code=$?
      test $code -eq 1
      test $(wc -l < ${f}_$n.err) -eq 1
      grep -q "^error: ${c##* }: " ${f}_$n.err
    done
    cmp ${f}_1.err ${f}_2.err
  done
  test ! -e truncated.out.csv
  test ! -e not_utf8.out.csv
  # a spec file that does not exist exits 1 with one line and creates no output
  for n in 1 2; do
    code=0
    PYTHONPATH=src python -W error -m nfmimo.cli sweep missing.json 2> missing_$n.err || code=$?
    test $code -eq 1
    test $(wc -l < missing_$n.err) -eq 1
  done
  cmp missing_1.err missing_2.err
  test ! -e missing.out.csv
}

# Report and threshold output is identical across processes.
# a numerical failure exits 2 with one stderr line, the same in every process.
# d_th overflows at the 1e300 pair with spacing 1; the two fringe-EDoF reports leave the
# float range in plain Python floats; the 1e160 spacing and the 1e308 power overflow in
# numpy, whose warning the numerical-failure boundary raises as that one line; a gain map
# whose focus distances underflow leaves no output file behind
cli() {
  for c in report "report --json" threshold; do
    f=cli_$(echo $c | tr -d ' -')
    for n in 1 2; do
      PYTHONPATH=src python -W error -m nfmimo.cli $c > ${f}_$n.out
    done
    cmp ${f}_1.out ${f}_2.out
  done
  for c in "threshold --wavelength 1e300 --separation 1e300 --spacing 1" "threshold --spacing 1e154" \
    "report --wavelength 1e-154 --spacing 1e-154 --separation 1e-154 --side-count 2" \
    "report --wavelength 1e-5 --spacing 1e75 --separation 1e-5 --side-count 2" \
    "report --spacing 1e160" \
    "report --spacing 0.002 --side-count 5 --separation 0.05 --power 1e308"; do
    f=err_$(echo $c | tr -d ' -')
    for n in 1 2; do
      code=0
      PYTHONPATH=src python -W error -m nfmimo.cli $c 2> ${f}_$n.err || code=$?
      test $code -eq 2
      test $(wc -l < ${f}_$n.err) -eq 1
    done
    cmp ${f}_1.err ${f}_2.err
  done
  code=0
  PYTHONPATH=src python -W error -m nfmimo.cli gainmap --separation 1e-200 --points 2 \
    --output err.csv 2> err_gainmap.err || code=$?
  test $code -eq 2
  test $(wc -l < err_gainmap.err) -eq 1
  test ! -e err.csv
}

# Running out of memory exits 2 with one line.
# at S = 300 the first fold asks for 7.5 GiB, so under a 1.5 GB address-space limit the
# allocation fails at once; MemoryError on accepted input is a numerical failure
oom() {
  for n in 1 2; do
    code=0
    (ulimit -v 1500000; PYTHONPATH=src python -W error -m nfmimo.cli report --side-count 300) \
      2> oom_$n.err || code=$?
    test $code -eq 2
    test $(wc -l < oom_$n.err) -eq 1
  done
  cmp oom_1.err oom_2.err
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
for step in "$@"; do
  "$step"
done

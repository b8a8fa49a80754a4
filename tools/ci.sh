#!/usr/bin/env bash
# Local/hosted CI: a release build plus an ASan/UBSan build, each running
# the full test suite, followed by bench smokes, the bench-regression
# gate, observability guards, and CLI-level determinism checks (train and
# serve). The hosted matrix (.github/workflows/ci.yml) reuses these stages
# verbatim via --only.
#
# Usage: tools/ci.sh [--skip-sanitizers] [--only STAGE]
#                    [--build-dir-prefix PREFIX] [--artifact-dir DIR]
#   STAGE  one of: release bench obs trace serve registry scrape chaos
#          ingest cli perfbench asan
#   PREFIX build tree prefix, default "build-ci-" (trees land at
#          <repo>/<prefix><name>; keep it matching .gitignore's build-*/)
#   DIR    where bench/trace/metrics JSONs are written, default
#          <release build dir>/ci-artifacts (hosted CI uploads this
#          directory when a run fails)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
skip_san=0
only_stage=""
build_prefix="build-ci-"
artifact_dir=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitizers) skip_san=1; shift ;;
    --only) only_stage="$2"; shift 2 ;;
    --build-dir-prefix) build_prefix="$2"; shift 2 ;;
    --artifact-dir) artifact_dir="$2"; shift 2 ;;
    *) echo "usage: tools/ci.sh [--skip-sanitizers] [--only STAGE]" \
            "[--build-dir-prefix PREFIX] [--artifact-dir DIR]" >&2
       exit 2 ;;
  esac
done

release_dir="${repo_root}/${build_prefix}release"
if [[ -z "${artifact_dir}" ]]; then
  artifact_dir="${release_dir}/ci-artifacts"
fi
mkdir -p "${artifact_dir}"
cli="${release_dir}/tools/hpcpredict_cli"

# The server serves only from a model store: publish_default MODEL STORE
# puts a saved model file into a fresh one-tenant store as "default",
# version 1 — the CLI form of serving one file.
publish_default() {
  rm -rf "$2"
  "${cli}" registry add --root "$2" --tenant default --model "$1" \
    > /dev/null
}

# serve_torn_reload STORE HEAD TAIL OUT [serve flags...]: serves the
# request file HEAD over stdio, waits until every non-blank HEAD line is
# answered (so the default tenant's version 1 is resident), then tears
# STORE/default/2.hpcp as a crashed publisher would (a 512-byte prefix of
# version 1) and sends TAIL, which reloads the tenant. The torn version
# is removed afterwards, so the store can be served again.
serve_torn_reload() {
  local store="$1" head="$2" tail="$3" out="$4"
  shift 4
  local fifo="${out}.fifo"
  rm -f "${fifo}"
  mkfifo "${fifo}"
  timeout 120 "${cli}" serve --registry "${store}" --stdio "$@" \
    < "${fifo}" > "${out}" 2> /dev/null &
  local pid=$!
  local fd
  exec {fd}> "${fifo}"
  cat "${head}" >&"${fd}"
  local want i
  want="$(grep -cv '^[[:space:]]*$' "${head}")"
  for i in $(seq 1 600); do
    [[ "$(wc -l < "${out}")" -ge "${want}" ]] && break
    kill -0 "${pid}" 2> /dev/null || break
    sleep 0.1
  done
  head -c 512 "${store}/default/1.hpcp" > "${store}/default/2.hpcp"
  cat "${tail}" >&"${fd}"
  exec {fd}>&-
  local status=0
  wait "${pid}" || status=$?
  rm -f "${fifo}" "${store}/default/2.hpcp"
  return "${status}"
}

run_matrix_entry() {
  local name="$1"
  shift
  local dir="${repo_root}/${build_prefix}${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S "${repo_root}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j"${jobs}"
  # Fail-fast ordering: the fast unit tier runs first; the slower
  # integration / golden / determinism / serve tiers only run once it is
  # green (labels are assigned in tests/CMakeLists.txt).
  echo "=== [${name}] test (unit) ==="
  ctest --test-dir "${dir}" --output-on-failure -j"${jobs}" -L unit
  echo "=== [${name}] test (integration+golden+determinism+serve) ==="
  ctest --test-dir "${dir}" --output-on-failure -j"${jobs}" -LE unit
}

stage_release() {
  run_matrix_entry release -DCMAKE_BUILD_TYPE=Release -DHPCP_WERROR=ON
}

stage_asan() {
  # The full suite runs here too, so the epoll transport and the
  # concurrent-serving tests (test_serve_concurrent, the chaos scenarios)
  # execute under ASan/UBSan — data races on the batching path tend to
  # surface as sanitizer reports long before they corrupt a response.
  run_matrix_entry asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DHPCP_SANITIZE=address;undefined"
}

# Bench smoke + regression gate: run every pinned-seed suite in --short
# mode, validate the schema of each output, then compare the derived
# speedup ratios against the committed short-mode baselines in
# bench/baselines/ (tools/check_bench_regression.py; tolerance
# overridable via HPCP_BENCH_TOLERANCE for noisy hosts). Fresh outputs go
# to the artifact dir — the tracked repo-root BENCH_*.json files are
# full-mode runs and are never overwritten by CI.
stage_bench() {
  echo "=== [release] bench-smoke ==="
  local forest_json="${artifact_dir}/BENCH_forest.json"
  local train_json="${artifact_dir}/BENCH_train.json"
  local serve_json="${artifact_dir}/BENCH_serve.json"
  "${release_dir}/bench/bench_micro_forest" --short --json "${forest_json}"
  "${release_dir}/bench/bench_micro_train" --short --json "${train_json}"
  "${release_dir}/bench/bench_serve" --short --json "${serve_json}"
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${forest_json}" "${train_json}" "${serve_json}" << 'EOF'
import json, sys
schemas = ("hpcp-bench-forest/1", "hpcp-bench-train/1", "hpcp-bench-serve/1")
for path, want in zip(sys.argv[1:], schemas):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == want, f"{path}: bad schema marker"
    assert doc["cases"], f"{path}: no cases recorded"
    for case in doc["cases"]:
        assert case["seconds"] > 0, \
            f"{path}: non-positive timing in {case['name']}"
    assert "speedups" in doc, f"{path}: missing derived speedups"
    for key, flag in doc.get("determinism", {}).items():
        assert flag is True, f"{path}: determinism flag {key} is false"
    print(f"{path.rsplit('/', 1)[-1]} ok ({len(doc['cases'])} cases)")
EOF
    echo "=== [release] bench-regression-gate ==="
    local tol="${HPCP_BENCH_TOLERANCE:-0.25}"
    # The acceptance number "batched predict >= 2x per-row": the batched
    # FlatForest walk against the per-row pointer walk over the same rows
    # (the median of back-to-back pairs, so host noise cancels).
    python3 "${repo_root}/tools/check_bench_regression.py" \
      --baseline "${repo_root}/bench/baselines/BENCH_forest_short.json" \
      --fresh "${forest_json}" --tolerance "${tol}" \
      --require "predict_batched_vs_per_row>=2"
    python3 "${repo_root}/tools/check_bench_regression.py" \
      --baseline "${repo_root}/bench/baselines/BENCH_train_short.json" \
      --fresh "${train_json}" --tolerance "${tol}"
    # Serve ratios span hosts less cleanly (cache hits are tens of
    # nanoseconds of work); gate loosely on the ratio but pin the
    # acceptance floors: cached answers at least 5x faster than cold, and
    # the fast-rejection paths (admission shed, expired deadline) at
    # least 2x faster than computing the answers they replace — a
    # protection mechanism slower than the work it sheds protects nothing.
    python3 "${repo_root}/tools/check_bench_regression.py" \
      --baseline "${repo_root}/bench/baselines/BENCH_serve_short.json" \
      --fresh "${serve_json}" --tolerance "${HPCP_SERVE_TOLERANCE:-0.6}" \
      --require "cache_hit_p50>=5" \
      --require "overload_shed_vs_nocache>=2" \
      --require "deadline_vs_nocache>=2" \
      --require "concurrent_4conn_vs_1conn>=2" \
      --require "concurrent_16conn_vs_1conn>=2" \
      --require "retrain_cold_vs_model_load>=5" \
      --require "retrain_shadow_vs_cold>=1.3" \
      --require-max "obs_on_vs_off<=1.01"
    # The registry cold-start floor: loading a model from its archive
    # (mmap + one checksummed section parse) must stay at least 5x cheaper
    # than a cold fit of the same tenant — a tenant fault under LRU churn
    # must never cost what retraining the tenant costs.
    # The observability ceiling: serving with the metric registry and
    # rolling SLO windows hot must cost at most 1% of nocache replay
    # wall-clock (median of paired on/off runs, so host noise cancels).
    # The concurrent-replay floors carry min_cores: 4 in the scaling
    # block — cross-connection batching cannot speed anything up on a
    # single core, so the gate skips them on small runners.
  else
    grep -q '"schema": "hpcp-bench-serve/1"' "${serve_json}" \
      || { echo "BENCH_serve.json missing schema marker" >&2; exit 1; }
    echo "python3 unavailable; schema-grep only, regression gate skipped"
  fi
}

# Observability off-mode overhead guard: the bench times the identical
# disabled-instrumentation workload twice (A/A); their ratio must stay
# within noise of 1.0 and the traced run must not perturb predictions.
# Timing is retried because a loaded CI host can spike a single
# best-of measurement.
stage_obs() {
  echo "=== [release] obs-overhead-guard ==="
  local bench_json="${artifact_dir}/BENCH_forest.json"
  if [[ ! -f "${bench_json}" ]]; then
    "${release_dir}/bench/bench_micro_forest" --short --json "${bench_json}"
  fi
  if command -v python3 > /dev/null 2>&1; then
    local obs_guard_ok=0
    local attempt
    for attempt in 1 2 3; do
      if python3 - "${bench_json}" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
obs = doc["obs"]
assert obs["bitwise_identical_on_off"] is True, \
    "predictions differ between obs on and off"
ratio = obs["off_overhead"]
assert ratio <= 1.01, f"disabled-obs overhead {ratio:.4f}x exceeds 1%"
print(f"obs off-mode overhead {ratio:.4f}x (<= 1.01), on/off bitwise identical")
EOF
      then
        obs_guard_ok=1
        break
      fi
      echo "obs overhead guard failed (attempt ${attempt}); re-timing" >&2
      "${release_dir}/bench/bench_micro_forest" --short --json "${bench_json}"
    done
    [[ "${obs_guard_ok}" -eq 1 ]] \
      || { echo "obs off-mode overhead guard failed after retries" >&2
           exit 1; }
  fi
}

# Trace smoke: fit a real (tiny) history with --trace/--metrics-out and
# make sure the Chrome trace covers the pipeline stages and the metrics
# dump follows the hpcp-metrics/1 schema documented in EXPERIMENTS.md.
stage_trace() {
  echo "=== [release] trace-smoke ==="
  local dir="${artifact_dir}/trace-smoke"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" fit --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --trace "${dir}/trace.json" \
    --metrics-out "${dir}/metrics.json" \
    --metrics-text "${dir}/metrics.prom"
  local usage_status=0
  "${cli}" fit --history "${dir}/hist.csv" --no-such-flag \
    > /dev/null 2>&1 || usage_status=$?
  if [[ "${usage_status}" -ne 2 ]]; then
    echo "unknown CLI option exited ${usage_status}, expected 2" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${dir}/trace.json" "${dir}/metrics.json" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
assert trace["otherData"]["schema"] == "hpcp-trace/1", "bad trace schema"
names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
for span in ("twolevel.fit", "interpolation.fit", "cluster.kmeans",
             "lasso.multitask_fit", "extrapolation.fit",
             "validation.history"):
    assert span in names, f"trace missing span {span}"
with open(sys.argv[2]) as f:
    metrics = json.load(f)
assert metrics["schema"] == "hpcp-metrics/1", "bad metrics schema"
counters = {c["name"] for c in metrics["counters"]}
for name in ("forest.split_mode", "lasso.multitask_iterations",
             "fallback.rung", "validation.rows_quarantined"):
    assert name in counters, f"metrics missing counter {name}"
print(f"trace-smoke ok ({len(names)} distinct spans,"
      f" {len(counters)} counters)")
EOF
  else
    grep -q '"hpcp-trace/1"' "${dir}/trace.json" \
      || { echo "trace.json missing schema marker" >&2; exit 1; }
    grep -q '"hpcp-metrics/1"' "${dir}/metrics.json" \
      || { echo "metrics.json missing schema marker" >&2; exit 1; }
  fi
}

# Serve smoke: train a tiny model through the CLI, publish it as a
# one-tenant store, replay a request file (valid predictions, repeats for
# cache hits, malformed lines, a failed reload of a torn version 2,
# control commands) through `hpcpredict_cli serve --stdio`, and require
# byte-identical response streams across worker counts and cache
# configurations — the user-facing half of the serve determinism contract.
stage_serve() {
  echo "=== [release] serve-smoke ==="
  local dir="${artifact_dir}/serve-smoke"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --save "${dir}/model.hpcp" > /dev/null
  local store="${dir}/store"
  publish_default "${dir}/model.hpcp" "${store}"

  {
    local i
    for i in $(seq 1 60); do
      printf '{"id":%d,"params":[%d,%d,%d],"scales":[16,32]}\n' \
        "${i}" "$((200 + i * 7))" "$((100 + i * 3))" "$((1 + i % 3))"
      printf '{"id":%d,"params":[256,150,2],"scales":[16,32]}\n' \
        "$((1000 + i))"   # exact repeat every round: cache hits
    done
    printf '{"id":"oops","params":[1,2],"scales":[16]}\n'   # width mismatch
    printf 'not json at all\n'
    printf '{"id":"bad","cmd":"frobnicate"}\n'
  } > "${dir}/replay-head.txt"
  {
    printf '{"cmd":"reload","tenant":"default"}\n'   # torn version 2
    printf '{"id":"after-reload","params":[256,150,2],"scales":[16,32]}\n'
    printf '{"cmd":"ping"}\n'
    printf '{"cmd":"shutdown"}\n'
  } > "${dir}/replay-tail.txt"

  local variant
  for variant in "t1:--threads 1" "t8:--threads 8" \
                 "t8-nocache:--threads 8 --cache-entries 0" \
                 "t8-batch1:--threads 8 --batch-max 1"; do
    local name="${variant%%:*}"
    local flags="${variant#*:}"
    # shellcheck disable=SC2086
    serve_torn_reload "${store}" "${dir}/replay-head.txt" \
      "${dir}/replay-tail.txt" "${dir}/out-${name}.txt" ${flags}
  done
  local name
  for name in t8 t8-nocache t8-batch1; do
    if ! cmp -s "${dir}/out-t1.txt" "${dir}/out-${name}.txt"; then
      echo "serve responses differ between t1 and ${name}" >&2
      diff "${dir}/out-t1.txt" "${dir}/out-${name}.txt" | head >&2 || true
      exit 1
    fi
  done
  grep -q '"code":"bad-data"' "${dir}/out-t1.txt" \
    || { echo "failed reload did not produce a typed bad-data error" >&2
         exit 1; }
  grep -q '"id":"after-reload","ok":true,"model_version":1' \
    "${dir}/out-t1.txt" \
    || { echo "old model stopped serving after a failed reload" >&2
         exit 1; }
  grep -q '"cmd":"shutdown"' "${dir}/out-t1.txt" \
    || { echo "shutdown was not acknowledged" >&2; exit 1; }

  # An unusable model store must be a clean exit 1, not a crash; an
  # unknown serve flag must be the usual usage exit 2, and so must the
  # removed --model flag, whose message names its replacement.
  local status=0
  "${cli}" serve --registry "${dir}/model.hpcp" --stdio \
    < /dev/null > /dev/null 2>&1 || status=$?
  [[ "${status}" -eq 1 ]] \
    || { echo "serve with an unusable store exited ${status}, expected 1" >&2
         exit 1; }
  status=0
  "${cli}" serve --registry "${store}" --no-such-flag \
    > /dev/null 2>&1 || status=$?
  [[ "${status}" -eq 2 ]] \
    || { echo "unknown serve option exited ${status}, expected 2" >&2
         exit 1; }
  status=0
  "${cli}" serve --model "${dir}/model.hpcp" --stdio \
    < /dev/null > /dev/null 2> "${dir}/model-flag.log" || status=$?
  [[ "${status}" -eq 2 ]] && grep -q 'registry add' "${dir}/model-flag.log" \
    || { echo "serve --model exited ${status} without naming" \
         "\`registry add\`" >&2; exit 1; }
  echo "serve-smoke ok (4 variants byte-identical, errors typed)"

  # Concurrent-socket replay: the same determinism contract over real
  # sockets. Several clients share one TCP daemon (port 0 = kernel-
  # assigned, scraped from the startup log), so their lines interleave
  # into shared flush windows and the prediction cache; each connection's
  # response stream must still be byte-identical to replaying that
  # connection's lines alone through a fresh stdio server.
  if command -v python3 > /dev/null 2>&1; then
    echo "=== [release] serve-concurrent-replay ==="
    local cdir="${dir}/concurrent"
    mkdir -p "${cdir}"
    local conns=4
    local c
    for c in $(seq 0 $((conns - 1))); do
      : > "${cdir}/conn-${c}.txt"
    done
    local i
    for i in $(seq 1 40); do
      c=$((i % conns))
      {
        printf '{"id":%d,"params":[%d,%d,%d],"scales":[16,32]}\n' \
          "${i}" "$((200 + i * 7))" "$((100 + i * 3))" "$((1 + i % 3))"
        # The same request from every connection: shared-cache hits must
        # not depend on which connection populated the entry.
        printf '{"id":%d,"params":[256,150,2],"scales":[16,32]}\n' \
          "$((1000 + i))"
      } >> "${cdir}/conn-${c}.txt"
    done
    for c in $(seq 0 $((conns - 1))); do
      "${cli}" serve --registry "${store}" --stdio \
        < "${cdir}/conn-${c}.txt" > "${cdir}/expect-${c}.txt" 2> /dev/null
    done
    timeout 120 "${cli}" serve --registry "${store}" --port 0 \
      2> "${cdir}/daemon.log" &
    local daemon_pid=$!
    local tcp_port=""
    for i in $(seq 1 100); do
      tcp_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${cdir}/daemon.log" | head -n 1)"
      [[ -n "${tcp_port}" ]] && break
      kill -0 "${daemon_pid}" 2> /dev/null || break
      sleep 0.1
    done
    [[ -n "${tcp_port}" ]] \
      || { echo "TCP daemon never announced its port" >&2; exit 1; }
    timeout 60 python3 - "${tcp_port}" "${cdir}" "${conns}" << 'EOF'
import socket
import sys
import threading

port, cdir, conns = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
errors = []

def client(c):
    try:
        with open(f"{cdir}/conn-{c}.txt", "rb") as f:
            lines = f.read().splitlines()
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            stream = s.makefile("rwb")
            stream.write(b"\n".join(lines) + b"\n")
            stream.flush()
            with open(f"{cdir}/got-{c}.txt", "wb") as out:
                for _ in lines:
                    resp = stream.readline()
                    if not resp:
                        raise RuntimeError(f"conn {c}: closed early")
                    out.write(resp)
    except Exception as exc:  # noqa: BLE001 - report and fail the stage
        errors.append(f"conn {c}: {exc}")

threads = [threading.Thread(target=client, args=(c,)) for c in range(conns)]
for t in threads:
    t.start()
for t in threads:
    t.join()
if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
    stream = s.makefile("rwb")
    stream.write(b'{"cmd":"shutdown"}\n')
    stream.flush()
    stream.readline()
EOF
    wait "${daemon_pid}" \
      || { echo "TCP daemon exited non-zero after shutdown" >&2; exit 1; }
    for c in $(seq 0 $((conns - 1))); do
      if ! cmp -s "${cdir}/expect-${c}.txt" "${cdir}/got-${c}.txt"; then
        echo "connection ${c} responses differ from its sequential replay" >&2
        diff "${cdir}/expect-${c}.txt" "${cdir}/got-${c}.txt" | head >&2 || true
        exit 1
      fi
    done
    echo "serve-concurrent-replay ok (${conns} connections, each" \
         "byte-identical to its sequential stdio replay)"
  else
    echo "python3 unavailable; concurrent-socket replay skipped"
  fi
}

# Registry smoke: the multi-tenant model store end to end through the
# installed CLI. Publishes 16 tenants with `registry add`, then serves
# the store under a resident-model budget of 4 — the mixed-tenant replay
# continuously evicts and reloads archives — and requires byte-identical
# response streams across worker counts, cache configurations, and
# residency budgets over stdio, plus per-tenant byte-identity against
# one-tenant servers over the epoll TCP front-end: tenant
# routing, LRU churn, and cross-tenant batching must never reach
# response bytes. Then the blast-radius check: corrupting one tenant's
# archive degrades that tenant alone (typed bad-data) while every other
# tenant keeps serving, and `registry gc` removes exactly the
# superseded versions.
stage_registry() {
  echo "=== [release] registry-smoke ==="
  local dir="${artifact_dir}/registry-smoke"
  rm -rf "${dir}"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --save "${dir}/model.hpcp" > /dev/null

  local store="${dir}/store"
  local c t
  for c in $(seq 0 15); do
    t="$(printf 'tenant-%02d' "${c}")"
    "${cli}" registry add --root "${store}" --tenant "${t}" \
      --model "${dir}/model.hpcp" > /dev/null
  done
  [[ "$("${cli}" registry ls --root "${store}" | wc -l)" -eq 16 ]] \
    || { echo "registry ls did not report 16 tenants" >&2; exit 1; }

  # Per-tenant request files: conn-N.txt carries the "model" routing
  # field, ref-N.txt is the same requests without it. A replay of
  # ref-N.txt against a one-tenant store holding the same model is the
  # ground truth the 16-tenant server must reproduce for that tenant,
  # byte for byte (responses carry id + model_version, never the tenant
  # name, so the comparison is direct).
  local single="${dir}/single"
  publish_default "${dir}/model.hpcp" "${single}"
  local i
  for c in $(seq 0 15); do
    t="$(printf 'tenant-%02d' "${c}")"
    : > "${dir}/conn-${c}.txt"
    : > "${dir}/ref-${c}.txt"
    for i in $(seq 1 6); do
      printf '{"id":%d,"model":"%s","params":[%d,%d,%d],"scales":[16,32]}\n' \
        "$((c * 100 + i))" "${t}" "$((200 + c * 11 + i * 7))" \
        "$((100 + i * 3))" "$((1 + i % 3))" >> "${dir}/conn-${c}.txt"
      printf '{"id":%d,"params":[%d,%d,%d],"scales":[16,32]}\n' \
        "$((c * 100 + i))" "$((200 + c * 11 + i * 7))" \
        "$((100 + i * 3))" "$((1 + i % 3))" >> "${dir}/ref-${c}.txt"
    done
    "${cli}" serve --registry "${single}" --stdio \
      < "${dir}/ref-${c}.txt" > "${dir}/expect-${c}.txt" 2> /dev/null
  done

  # Mixed-tenant stdio replay under eviction pressure: all 16 tenants
  # interleaved (budget 4 => at most a quarter resident at once), an
  # unknown tenant salted in (typed unknown-model, still deterministic).
  : > "${dir}/replay.txt"
  for i in $(seq 1 6); do
    for c in $(seq 0 15); do
      sed -n "${i}p" "${dir}/conn-${c}.txt" >> "${dir}/replay.txt"
    done
  done
  printf '{"id":"ghost","model":"no-such-tenant","params":[1,2,3],"scales":[16]}\n' \
    >> "${dir}/replay.txt"

  local variant
  for variant in "t1:--threads 1" "t8:--threads 8" \
                 "t8-nocache:--threads 8 --cache-entries 0" \
                 "t8-batch1:--threads 8 --batch-max 1" \
                 "t1-budget16:--threads 1 --max-resident 16"; do
    local name="${variant%%:*}"
    local flags="${variant#*:}"
    # shellcheck disable=SC2086
    "${cli}" serve --registry "${store}" --stdio --max-resident 4 ${flags} \
      < "${dir}/replay.txt" > "${dir}/out-${name}.txt" 2> /dev/null
  done
  local name
  for name in t8 t8-nocache t8-batch1 t1-budget16; do
    if ! cmp -s "${dir}/out-t1.txt" "${dir}/out-${name}.txt"; then
      echo "registry responses differ between t1 and ${name}" >&2
      diff "${dir}/out-t1.txt" "${dir}/out-${name}.txt" | head >&2 || true
      exit 1
    fi
  done
  [[ "$(grep -c '"ok":true' "${dir}/out-t1.txt")" -eq 96 ]] \
    || { echo "mixed-tenant replay lost predictions" >&2; exit 1; }
  grep -q '"id":"ghost","ok":false.*"code":"unknown-model"' \
    "${dir}/out-t1.txt" \
    || { echo "unknown tenant did not produce a typed unknown-model" \
         "error" >&2; exit 1; }

  # The epoll front-end: one connection per tenant against a live
  # registry daemon under the same budget; each connection's responses
  # must equal its tenant's one-tenant ground truth.
  if command -v python3 > /dev/null 2>&1; then
    timeout 120 "${cli}" serve --registry "${store}" --port 0 \
      --max-resident 4 2> "${dir}/daemon.log" &
    local daemon_pid=$!
    local tcp_port=""
    for i in $(seq 1 100); do
      tcp_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${dir}/daemon.log" | head -n 1)"
      [[ -n "${tcp_port}" ]] && break
      kill -0 "${daemon_pid}" 2> /dev/null || break
      sleep 0.1
    done
    [[ -n "${tcp_port}" ]] \
      || { echo "registry TCP daemon never announced its port" >&2; exit 1; }
    timeout 60 python3 - "${tcp_port}" "${dir}" 16 << 'EOF'
import socket
import sys
import threading

port, cdir, conns = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
errors = []

def client(c):
    try:
        with open(f"{cdir}/conn-{c}.txt", "rb") as f:
            lines = f.read().splitlines()
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            stream = s.makefile("rwb")
            stream.write(b"\n".join(lines) + b"\n")
            stream.flush()
            with open(f"{cdir}/got-{c}.txt", "wb") as out:
                for _ in lines:
                    resp = stream.readline()
                    if not resp:
                        raise RuntimeError(f"conn {c}: closed early")
                    out.write(resp)
    except Exception as exc:  # noqa: BLE001 - report and fail the stage
        errors.append(f"conn {c}: {exc}")

threads = [threading.Thread(target=client, args=(c,)) for c in range(conns)]
for t in threads:
    t.start()
for t in threads:
    t.join()
if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
    stream = s.makefile("rwb")
    stream.write(b'{"cmd":"shutdown"}\n')
    stream.flush()
    stream.readline()
EOF
    wait "${daemon_pid}" \
      || { echo "registry daemon exited non-zero after shutdown" >&2
           exit 1; }
    for c in $(seq 0 15); do
      if ! cmp -s "${dir}/expect-${c}.txt" "${dir}/got-${c}.txt"; then
        echo "tenant ${c} TCP responses differ from the one-tenant" \
             "replay" >&2
        diff "${dir}/expect-${c}.txt" "${dir}/got-${c}.txt" | head >&2 || true
        exit 1
      fi
    done
    echo "registry-tcp ok (16 tenants under budget 4, each byte-identical" \
         "to its one-tenant replay)"
  else
    echo "python3 unavailable; registry TCP replay skipped"
  fi

  # Blast radius: tear one tenant's archive mid-byte — that tenant
  # degrades to a typed bad-data error, its neighbours keep serving.
  cp -r "${store}" "${dir}/store-corrupt"
  printf 'HPCPARC1 torn mid-write' \
    > "${dir}/store-corrupt/tenant-03/1.hpcp"
  {
    printf '{"id":"broken","model":"tenant-03","params":[210,110,2],"scales":[16,32]}\n'
    printf '{"id":"healthy","model":"tenant-05","params":[210,110,2],"scales":[16,32]}\n'
  } > "${dir}/corrupt-replay.txt"
  "${cli}" serve --registry "${dir}/store-corrupt" --stdio \
    < "${dir}/corrupt-replay.txt" > "${dir}/out-corrupt.txt" 2> /dev/null
  grep -q '"id":"broken","ok":false.*"code":"bad-data"' \
    "${dir}/out-corrupt.txt" \
    || { echo "corrupt tenant archive did not produce a typed bad-data" \
         "error" >&2; exit 1; }
  grep -q '"id":"healthy","ok":true' "${dir}/out-corrupt.txt" \
    || { echo "corrupting one tenant degraded its neighbours" >&2; exit 1; }

  # gc keeps live versions: publish a second version for one tenant,
  # collect with --keep 1, and exactly one archive (the superseded v1)
  # goes away.
  "${cli}" registry add --root "${store}" --tenant tenant-00 \
    --model "${dir}/model.hpcp" > /dev/null
  "${cli}" registry gc --root "${store}" --keep 1 \
    | grep -q '^removed 1 ' \
    || { echo "registry gc did not remove exactly the superseded" \
         "version" >&2; exit 1; }
  [[ -f "${store}/tenant-00/2.hpcp" && ! -f "${store}/tenant-00/1.hpcp" ]] \
    || { echo "registry gc removed the wrong archive" >&2; exit 1; }
  echo "registry-smoke ok (16-tenant store byte-identical across" \
       "configs, corruption contained, gc exact)"
}

# Scrape smoke: the admin observability plane end to end over real
# sockets. A TCP daemon starts with --admin-port 0 (both ports kernel-
# assigned, scraped from the startup log); raw-socket HTTP GETs validate
# /metrics (Prometheus exposition), /healthz, and /statsz (hpcp-stats/1
# schema, windows + slow log populated); {"cmd":"stats"} must wrap the
# same snapshot in-protocol. Then the side-effect-freedom proof: the same
# predict replay runs once with the admin plane idle and once with a
# scraper hammering every route mid-replay — the data-plane response
# streams must be byte-identical (scrapes may observe, never perturb).
# The in-process twin of this stage (jsonlite-validated, chaos
# interleavings) is tests/serve/test_serve_admin.cpp in the release/asan
# matrices; this stage covers the installed CLI + real HTTP clients.
stage_scrape() {
  echo "=== [release] scrape-smoke ==="
  if ! command -v python3 > /dev/null 2>&1; then
    echo "python3 unavailable; scrape-smoke skipped"
    return 0
  fi
  local dir="${artifact_dir}/scrape-smoke"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --save "${dir}/model.hpcp" > /dev/null
  publish_default "${dir}/model.hpcp" "${dir}/store"

  # Predicts only: health/stats responses carry wall-clock fields
  # (uptime_ms, windows), so the byte-compared stream must stay free of
  # them; the snapshot endpoints are validated on separate connections.
  {
    local i
    for i in $(seq 1 40); do
      printf '{"id":%d,"params":[%d,%d,%d],"scales":[16,32]}\n' \
        "${i}" "$((200 + i * 7))" "$((100 + i * 3))" "$((1 + i % 3))"
      printf '{"id":%d,"params":[256,150,2],"scales":[16,32]}\n' \
        "$((1000 + i))"   # repeats: cache hits show up in the windows
    done
    printf 'not json at all\n'
  } > "${dir}/replay.txt"

  local mode
  for mode in idle hammer; do
    timeout 120 "${cli}" serve --registry "${dir}/store" --port 0 \
      --admin-port 0 2> "${dir}/daemon-${mode}.log" &
    local daemon_pid=$!
    local data_port="" admin_port=""
    local i
    for i in $(seq 1 100); do
      data_port="$(sed -n \
        's/^serve: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "${dir}/daemon-${mode}.log" | head -n 1)"
      admin_port="$(sed -n \
        's/^serve: admin listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "${dir}/daemon-${mode}.log" | head -n 1)"
      [[ -n "${data_port}" && -n "${admin_port}" ]] && break
      kill -0 "${daemon_pid}" 2> /dev/null || break
      sleep 0.1
    done
    [[ -n "${data_port}" && -n "${admin_port}" ]] \
      || { echo "daemon never announced both ports (${mode})" >&2; exit 1; }
    timeout 60 python3 "${repo_root}/tools/scrape_smoke.py" \
      "${data_port}" "${admin_port}" "${dir}/replay.txt" \
      "${dir}/got-${mode}.txt" "${mode}" \
      || { echo "scrape client failed (${mode})" >&2; exit 1; }
    wait "${daemon_pid}" \
      || { echo "daemon exited non-zero after shutdown (${mode})" >&2
           exit 1; }
  done
  cmp -s "${dir}/got-idle.txt" "${dir}/got-hammer.txt" \
    || { echo "admin scraping perturbed data-plane response bytes" >&2
         diff "${dir}/got-idle.txt" "${dir}/got-hammer.txt" | head >&2 || true
         exit 1; }
  echo "scrape-smoke ok (admin endpoints valid, replay byte-identical" \
       "with and without concurrent scraping)"
}

# Chaos stage: the deterministic fault-injection suite under a hang
# watchdog (a hung scenario is a finding, not a stuck CI job), then
# CLI-level chaos replays via HPCP_SERVE_FAULTS — the daemon must exit
# cleanly with one well-formed response per delivered line while the
# transport injects garbage frames, short reads, and mid-line
# disconnects; a seeded chaos replay must be byte-reproducible; and a
# torn model archive (version 2 of the served tenant) must be a typed
# reload error with the old version still serving, never a crash.
stage_chaos() {
  echo "=== [release] chaos-suite (watchdog) ==="
  timeout 300 ctest --test-dir "${release_dir}" --output-on-failure \
    -j"${jobs}" -L chaos \
    || { echo "chaos suite failed or hung (300s watchdog)" >&2; exit 1; }

  echo "=== [release] chaos-cli-replay ==="
  local dir="${artifact_dir}/chaos-smoke"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --save "${dir}/model.hpcp" > /dev/null
  local store="${dir}/store"
  publish_default "${dir}/model.hpcp" "${store}"

  {
    local i
    for i in $(seq 1 40); do
      printf '{"id":%d,"params":[%d,%d,%d],"scales":[16,32]}\n' \
        "${i}" "$((200 + i * 7))" "$((100 + i * 3))" "$((1 + i % 3))"
    done
    printf '{"cmd":"health"}\n'
    printf '{"cmd":"shutdown"}\n'
  } > "${dir}/replay.txt"

  # Garbage + short reads: the run exits 0 (shutdown still arrives —
  # injected frames are whole extra lines) and every response line is a
  # well-formed protocol object. The seed is pinned to one whose decision
  # stream injects garbage frames for this replay (injection is
  # deterministic in (spec, stream shape), so this never flakes).
  local spec="seed=23,short_read=0.6,garbage=0.5"
  HPCP_SERVE_FAULTS="${spec}" timeout 60 \
    "${cli}" serve --registry "${store}" --stdio \
    < "${dir}/replay.txt" > "${dir}/out-chaos.txt" 2> "${dir}/chaos.log"
  grep -q "FAULT INJECTION ACTIVE" "${dir}/chaos.log" \
    || { echo "chaos run did not announce fault injection" >&2; exit 1; }
  if grep -cv '"ok":' "${dir}/out-chaos.txt" | grep -qv '^0$'; then
    echo "chaos replay produced a malformed response line" >&2
    grep -v '"ok":' "${dir}/out-chaos.txt" | head >&2
    exit 1
  fi
  grep -q '"ok":false' "${dir}/out-chaos.txt" \
    || { echo "garbage frames produced no typed errors" >&2; exit 1; }
  grep -q '"cmd":"health"' "${dir}/out-chaos.txt" \
    || { echo "health probe went unanswered under chaos" >&2; exit 1; }

  # Same seed, same bytes: a chaos scenario found in CI replays exactly.
  HPCP_SERVE_FAULTS="${spec}" timeout 60 \
    "${cli}" serve --registry "${store}" --stdio \
    < "${dir}/replay.txt" > "${dir}/out-chaos2.txt" 2> /dev/null
  cmp -s "${dir}/out-chaos.txt" "${dir}/out-chaos2.txt" \
    || { echo "seeded chaos replay is not byte-reproducible" >&2; exit 1; }

  # Mid-line disconnect: the daemon must exit cleanly (EOF, status 0),
  # never hang or crash, whatever prefix of the stream was delivered.
  HPCP_SERVE_FAULTS="seed=11,short_read=0.4,disconnect=0.02" timeout 60 \
    "${cli}" serve --registry "${store}" --stdio \
    < "${dir}/replay.txt" > "${dir}/out-disconnect.txt" 2> /dev/null

  # A torn archive (crashed writer) is a typed reload error; the old
  # model keeps serving and says so.
  printf '{"id":1,"params":[256,150,2],"scales":[16,32]}\n' \
    > "${dir}/torn-head.txt"
  {
    printf '{"cmd":"reload","tenant":"default"}\n'
    printf '{"id":"survivor","params":[256,150,2],"scales":[16,32]}\n'
    printf '{"cmd":"shutdown"}\n'
  } > "${dir}/torn-tail.txt"
  serve_torn_reload "${store}" "${dir}/torn-head.txt" \
    "${dir}/torn-tail.txt" "${dir}/out-torn.txt"
  grep -Eq '"code":"(bad-data|io)"' "${dir}/out-torn.txt" \
    || { echo "torn archive reload did not produce a typed error" >&2
         exit 1; }
  grep -q '"id":"survivor","ok":true' "${dir}/out-torn.txt" \
    || { echo "old model stopped serving after a torn-archive reload" >&2
         exit 1; }
  echo "chaos ok (suite under watchdog, CLI chaos replay reproducible," \
       "torn archive typed)"
}

# Continuous-learning smoke: the ingest pipeline end to end through the
# installed CLI. Seeds a deliberately weak incumbent (trained on 6
# configurations), streams run records through {"cmd":"ingest"} over
# stdio AND the epoll TCP front end, forces an in-protocol retrain, and
# asserts the shadow gate promoted the candidate (trained on the streamed
# 24-configuration history, judged on the held-out largest scale). Then
# the flagship contract: `hpcp ingest --rebuild` reconstructs the
# promoted model from the append-only log alone — byte-identical at
# --threads 1 and --threads 4, and byte-identical to the archive the
# live server published. Every input is seeded, so the verdict and the
# bytes are stable on any host.
stage_ingest() {
  echo "=== [release] ingest-smoke ==="
  local dir="${artifact_dir}/ingest-smoke"
  rm -rf "${dir}"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" generate --app heat3d --out "${dir}/hist-weak.csv" \
    --configs 6 --scales 1,2,4,8 --seed 9
  "${cli}" train --history "${dir}/hist-weak.csv" --targets 16,32 --seed 5 \
    --save "${dir}/weak.hpcp" > /dev/null
  local store="${dir}/store"
  "${cli}" registry add --root "${store}" --tenant default \
    --model "${dir}/weak.hpcp" > /dev/null

  # The streamed diet: history rows rendered as in-protocol ingest lines
  # (the log keeps raw measurements; quarantine happens at retrain time).
  # 40 records over stdio, 40 more over TCP into the same tenant log.
  awk -F, 'NR > 1 {
    printf "{\"cmd\":\"ingest\",\"run_id\":%d,\"params\":[%s,%s,%s]," \
           "\"nprocs\":%d,\"runtime\":%s}\n", $6, $1, $2, $3, $4, $5
  }' "${dir}/hist.csv" > "${dir}/ingest-lines.txt"
  head -n 40 "${dir}/ingest-lines.txt" > "${dir}/stdio-batch.txt"
  sed -n '41,80p' "${dir}/ingest-lines.txt" > "${dir}/tcp-batch.txt"
  printf '{"cmd":"shutdown"}\n' >> "${dir}/stdio-batch.txt"

  "${cli}" serve --registry "${store}" --stdio \
    < "${dir}/stdio-batch.txt" > "${dir}/out-stdio.txt" 2> /dev/null
  [[ "$(grep -c '"ok":true,"cmd":"ingest"' "${dir}/out-stdio.txt")" -eq 40 ]] \
    || { echo "stdio leg did not ack all 40 ingest records" >&2; exit 1; }
  grep -q '"records":40' "${dir}/out-stdio.txt" \
    || { echo "stdio ingest ack counter never reached 40" >&2; exit 1; }

  {
    cat "${dir}/tcp-batch.txt"
    printf '{"cmd":"retrain"}\n'
    printf '{"cmd":"health"}\n'
    printf '{"cmd":"shutdown"}\n'
  } > "${dir}/tcp-replay.txt"
  if command -v python3 > /dev/null 2>&1; then
    timeout 120 "${cli}" serve --registry "${store}" --port 0 \
      2> "${dir}/daemon.log" &
    local daemon_pid=$!
    local tcp_port=""
    local i
    for i in $(seq 1 100); do
      tcp_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${dir}/daemon.log" | head -n 1)"
      [[ -n "${tcp_port}" ]] && break
      kill -0 "${daemon_pid}" 2> /dev/null || break
      sleep 0.1
    done
    [[ -n "${tcp_port}" ]] \
      || { echo "ingest TCP daemon never announced its port" >&2; exit 1; }
    timeout 60 python3 - "${tcp_port}" "${dir}/tcp-replay.txt" \
      "${dir}/out-tcp.txt" << 'EOF'
import socket
import sys

port, replay, out_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
with open(replay, "rb") as f:
    lines = f.read().splitlines()
with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
    stream = s.makefile("rwb")
    stream.write(b"\n".join(lines) + b"\n")
    stream.flush()
    with open(out_path, "wb") as out:
        for _ in lines:
            resp = stream.readline()
            if not resp:
                raise RuntimeError("connection closed early")
            out.write(resp)
EOF
    wait "${daemon_pid}" \
      || { echo "ingest daemon exited non-zero after shutdown" >&2; exit 1; }
  else
    echo "python3 unavailable; running the TCP leg over stdio instead"
    "${cli}" serve --registry "${store}" --stdio \
      < "${dir}/tcp-replay.txt" > "${dir}/out-tcp.txt" 2> /dev/null
  fi
  [[ "$(grep -c '"ok":true,"cmd":"ingest"' "${dir}/out-tcp.txt")" -eq 40 ]] \
    || { echo "TCP leg did not ack all 40 ingest records" >&2; exit 1; }
  grep -q '"verdict":"promoted"' "${dir}/out-tcp.txt" \
    || { echo "forced retrain did not promote the candidate over the" \
         "weak incumbent" >&2
         grep '"cmd":"retrain"' "${dir}/out-tcp.txt" | head >&2 || true
         exit 1; }
  grep -q '"promoted":true' "${dir}/out-tcp.txt" \
    || { echo "retrain ack missing promoted flag" >&2; exit 1; }
  grep -q '"model_version":2' "${dir}/out-tcp.txt" \
    || { echo "promotion did not publish registry version 2" >&2; exit 1; }
  grep -q '"ingest":{' "${dir}/out-tcp.txt" \
    || { echo "health response carries no ingest block" >&2; exit 1; }

  # The replay gate: the promoted archive reconstructed from the log
  # alone, at two thread counts, must match the published bytes exactly.
  "${cli}" ingest --registry "${store}" --rebuild "${dir}/replay-t1.hpcp" \
    --threads 1 > /dev/null
  "${cli}" ingest --registry "${store}" --rebuild "${dir}/replay-t4.hpcp" \
    --threads 4 > /dev/null
  cmp -s "${dir}/replay-t1.hpcp" "${dir}/replay-t4.hpcp" \
    || { echo "log replay differs between --threads 1 and --threads 4" >&2
         exit 1; }
  cmp -s "${dir}/replay-t1.hpcp" "${store}/default/2.hpcp" \
    || { echo "log replay does not reproduce the published archive" >&2
         exit 1; }
  echo "ingest-smoke ok (80 records over stdio+TCP, candidate promoted," \
       "log replay byte-identical at 2 thread counts and to the store)"
}

# End-to-end determinism check through the CLI: the same history trained
# at --threads 1 and --threads 8 must save byte-identical model files.
# This exercises the whole user-facing path (CSV ingestion -> fit ->
# save), not just the library calls the determinism tests cover.
stage_cli() {
  echo "=== [release] cli-determinism ==="
  local dir="${artifact_dir}/cli-smoke"
  mkdir -p "${dir}"
  "${cli}" generate --app heat3d --out "${dir}/hist.csv" \
    --configs 24 --scales 1,2,4,8 --seed 3
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --threads 1 --save "${dir}/model_t1.hpcp" > /dev/null
  "${cli}" train --history "${dir}/hist.csv" --targets 16,32 --seed 5 \
    --threads 8 --save "${dir}/model_t8.hpcp" > /dev/null
  if ! cmp -s "${dir}/model_t1.hpcp" "${dir}/model_t8.hpcp"; then
    echo "model files differ between --threads 1 and --threads 8" >&2
    cmp "${dir}/model_t1.hpcp" "${dir}/model_t8.hpcp" >&2 || true
    exit 1
  fi
  # Model files in the retired text format are a documented break:
  # predict --model and registry add refuse them as typed bad-data errors
  # (exit 1) instead of misparsing them.
  printf '@hpcpredict-two-level-v1\n9 two-level\n0\n1\n64\n' \
    > "${dir}/model-text.txt"
  local status=0
  "${cli}" predict --model "${dir}/model-text.txt" \
    --queries "${dir}/hist.csv" > /dev/null 2> "${dir}/text-predict.log" \
    || status=$?
  [[ "${status}" -eq 1 ]] && grep -q 'bad-data' "${dir}/text-predict.log" \
    || { echo "predict --model on a text model exited ${status} without" \
         "a bad-data error" >&2; exit 1; }
  status=0
  "${cli}" registry add --root "${dir}/store" --tenant default \
    --model "${dir}/model-text.txt" > /dev/null 2> "${dir}/text-add.log" \
    || status=$?
  [[ "${status}" -eq 1 ]] && grep -q 'bad-data' "${dir}/text-add.log" \
    || { echo "registry add of a text model exited ${status} without" \
         "a bad-data error" >&2; exit 1; }
  echo "cli-determinism ok (--threads 1 and --threads 8 models" \
       "byte-identical, text-format models refused as bad-data)"
}

# Frozen-benchmark smoke: the serving benchmark (perfbench/, see
# BENCHMARK.json) built from this checkout and run once per workload with
# the traced in-process replay. Exit 1 is a correctness failure (a
# response that differs from a fresh server's, or handle_batch bytes that
# stop matching the traced per-layer mirror) and exit 2 means it could not
# build or start: both fail the stage. Exit 3 marks a run too noisy to be
# a measurement, which a shared runner may produce, so it only warns.
# Catches a broken frozen-API build before the benchmark pipeline does.
stage_perfbench() {
  echo "=== [release] perfbench-smoke ==="
  local status=0
  (cd "${repo_root}" && python3 perfbench/run.py --workload all \
      --seconds 6 --trace 1) \
    > "${artifact_dir}/perfbench.json" || status=$?
  case "${status}" in
    0) echo "perfbench-smoke ok (all workloads correct)" ;;
    3) echo "perfbench-smoke: runs flagged as not a measurement (exit 3)" \
            "— correctness held, tolerated on a noisy runner" >&2 ;;
    *) echo "perfbench-smoke failed with exit ${status}" >&2
       exit 1 ;;
  esac
}

# Per-stage wall-clock accounting: every stage runs through run_stage,
# which records its duration, and the EXIT trap prints a summary table
# whether the matrix passed or died mid-stage — so a slow or hung stage
# is visible from the log tail without artifact archaeology.
stage_summary_names=()
stage_summary_secs=()
print_stage_summary() {
  [[ "${#stage_summary_names[@]}" -eq 0 ]] && return 0
  echo ""
  echo "=== per-stage wall-clock ==="
  printf '  %-10s %9s\n' "stage" "seconds"
  local i total=0
  for i in "${!stage_summary_names[@]}"; do
    printf '  %-10s %9d\n' "${stage_summary_names[$i]}" \
      "${stage_summary_secs[$i]}"
    total=$((total + stage_summary_secs[i]))
  done
  printf '  %-10s %9d\n' "total" "${total}"
}
trap print_stage_summary EXIT
run_stage() {
  local name="$1"
  local t0="${SECONDS}"
  "stage_${name}"
  stage_summary_names+=("${name}")
  stage_summary_secs+=("$((SECONDS - t0))")
}

if [[ -n "${only_stage}" ]]; then
  case "${only_stage}" in
    release|bench|obs|trace|serve|registry|scrape|chaos|ingest|cli|\
    perfbench|asan)
      run_stage "${only_stage}" ;;
    *) echo "unknown stage: ${only_stage} (expected release|bench|obs|" \
            "trace|serve|registry|scrape|chaos|ingest|cli|perfbench|asan)" >&2
       exit 2 ;;
  esac
  echo "=== stage ${only_stage} passed ==="
  exit 0
fi

run_stage release
run_stage bench
run_stage obs
run_stage trace
run_stage serve
run_stage registry
run_stage scrape
run_stage chaos
run_stage ingest
run_stage cli
run_stage perfbench
if [[ "${skip_san}" -eq 0 ]]; then
  run_stage asan
fi
echo "=== CI matrix passed ==="

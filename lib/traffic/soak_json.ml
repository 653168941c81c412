(* Hand-rolled JSON for BENCH_soak.json (the bench tree stays free of
   parser dependencies, same as the other BENCH_* emitters). One row
   per (label, config, comparison): the chaos run's completion,
   latency percentiles, robustness counters and the fault-free
   baseline's p99 with the ratio the gate checks. *)

let row ~label ~(cfg : Soak.config) (cmp : Soak.comparison) =
  let c = cmp.Soak.chaos in
  Printf.sprintf
    "    {\"label\": %S, \"seed\": %d, \"contention\": %S, \"policy\": %S,\n\
    \     \"horizon_s\": %.1f, \"drop\": %.4f, \"dup\": %.4f,\n\
    \     \"crash_period_s\": %.1f, \"outage_s\": %.3f,\n\
    \     \"sessions\": %d, \"committed\": %d, \"failed\": %d,\n\
    \     \"aborts\": %d, \"recovered\": %d, \"completion\": %.6f,\n\
    \     \"makespan_s\": %.6f, \"throughput_per_s\": %.3f,\n\
    \     \"latency_p50_s\": %.6f, \"latency_p95_s\": %.6f, \
     \"latency_p99_s\": %.6f,\n\
    \     \"baseline_p99_s\": %.6f, \"p99_ratio\": %.3f,\n\
    \     \"crashes\": %d, \"revives\": %d, \"heartbeats\": %d, \
     \"suspicions\": %d,\n\
    \     \"sheds\": %d, \"breaker_trips\": %d, \"recoveries\": %d,\n\
    \     \"queued\": %d, \"retried\": %d, \"validation_failed\": %d,\n\
    \     \"race_errors\": %d, \"proto_errors\": %d}"
    label cfg.Soak.seed
    (Traffic.contention_name cfg.Soak.contention)
    (Srpc_core.Strategy.admission_name cfg.Soak.policy)
    cfg.Soak.horizon cfg.Soak.drop cfg.Soak.dup cfg.Soak.crash_period
    cfg.Soak.outage c.Soak.s_sessions c.Soak.s_committed c.Soak.s_failed
    c.Soak.s_aborts c.Soak.s_recovered c.Soak.s_completion c.Soak.s_makespan
    c.Soak.s_throughput c.Soak.s_p50 c.Soak.s_p95 c.Soak.s_p99
    cmp.Soak.fault_free.Soak.s_p99 cmp.Soak.p99_ratio c.Soak.s_crashes
    c.Soak.s_revives c.Soak.s_heartbeats c.Soak.s_suspicions c.Soak.s_sheds
    c.Soak.s_breaker_trips c.Soak.s_recoveries c.Soak.s_queued
    c.Soak.s_retried c.Soak.s_validation_failed c.Soak.s_race_errors
    c.Soak.s_proto_errors

let report rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\n\
    \  \"experiment\": \"soak\",\n\
    \  \"completion_gate\": 0.99,\n\
    \  \"p99_ratio_gate\": 5.0,\n\
    \  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (label, cfg, cmp) ->
      Buffer.add_string b (row ~label ~cfg cmp);
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

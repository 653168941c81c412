(* Hand-rolled JSON for BENCH_traffic.json (the bench tree stays free
   of parser dependencies, same as the other BENCH_* emitters). One row
   per (seed, comparison): the concurrent run's metrics and admission
   counters next to the serialized baseline and the speedup ratio. *)

let row ~seed ~(cfg : Traffic.config) (cmp : Traffic.comparison) =
  let c = cmp.Traffic.concurrent in
  Printf.sprintf
    "    {\"seed\": %d, \"contention\": %S, \"policy\": %S,\n\
    \     \"sessions\": %d, \"committed\": %d, \"aborted\": %d,\n\
    \     \"makespan_s\": %.6f, \"throughput_per_s\": %.3f,\n\
    \     \"serialized_throughput_per_s\": %.3f, \"speedup\": %.3f,\n\
    \     \"latency_p50_s\": %.6f, \"latency_p95_s\": %.6f, \
     \"latency_p99_s\": %.6f,\n\
    \     \"admitted\": %d, \"queued\": %d, \"denied\": %d, \"retried\": %d,\n\
    \     \"validation_failed\": %d, \"race_errors\": %d, \
     \"proto_errors\": %d}"
    seed
    (Traffic.contention_name cfg.Traffic.contention)
    (Srpc_core.Strategy.admission_name cfg.Traffic.policy)
    c.Traffic.r_sessions c.Traffic.r_committed c.Traffic.r_aborted
    c.Traffic.r_makespan c.Traffic.r_throughput
    cmp.Traffic.serialized.Traffic.r_throughput cmp.Traffic.speedup
    c.Traffic.r_p50 c.Traffic.r_p95 c.Traffic.r_p99 c.Traffic.r_admitted
    c.Traffic.r_queued c.Traffic.r_denied c.Traffic.r_retried
    c.Traffic.r_validation_failed c.Traffic.r_race_errors
    c.Traffic.r_proto_errors

let report ~clients ~servers ~rate ~sessions rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n\
    \  \"experiment\": \"traffic\",\n\
    \  \"clients\": %d,\n\
    \  \"servers\": %d,\n\
    \  \"rate_per_client_per_s\": %.1f,\n\
    \  \"sessions_per_client\": %d,\n\
    \  \"speedup_gate\": 2.0,\n\
    \  \"rows\": [\n"
    clients servers rate sessions;
  let n = List.length rows in
  List.iteri
    (fun i (seed, cfg, cmp) ->
      Buffer.add_string b (row ~seed ~cfg cmp);
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

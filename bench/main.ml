(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 4) on the simulated cluster, runs the ablations
   from DESIGN.md, and finishes with Bechamel microbenchmarks — one
   Test.make per table/figure, plus the Access hit path — measuring the
   real CPU cost (ns/run) and minor-heap allocation (words/run) of that
   experiment's hot path.

   Run with:  dune exec bench/main.exe
   Subsets:   dune exec bench/main.exe -- table1 fig4 fig6 fig7 ablations micro *)

open Srpc_core
open Srpc_workloads

let line () = print_endline (String.make 78 '-')

let section name f =
  line ();
  Printf.printf "%s\n%!" name;
  line ();
  f ();
  print_newline ()

(* --- paper reproduction --- *)

let run_table1 () =
  Experiments.table1 Format.std_formatter ();
  Format.print_newline ()

let run_fig45 () =
  let rows = Experiments.fig4 () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig4 ppf) rows;
  print_newline ();
  let series sel label =
    { Ascii_plot.label; points = List.map (fun (r : Experiments.fig4_row) -> (r.Experiments.ratio, sel r)) rows }
  in
  print_string
    (Ascii_plot.render ~x_label:"access ratio" ~y_label:"processing time (s)"
       [
         series (fun r -> r.Experiments.eager.Experiments.seconds) "fully eager";
         series (fun r -> r.Experiments.lazy_.Experiments.seconds) "fully lazy";
         series (fun r -> r.Experiments.proposed.Experiments.seconds) "proposed";
       ]);
  print_newline ();
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig5 ppf) rows;
  print_newline ();
  print_string
    (Ascii_plot.render ~x_label:"access ratio" ~y_label:"callbacks"
       [
         series (fun r -> float_of_int r.Experiments.lazy_.stats.callbacks) "fully lazy";
         series (fun r -> float_of_int r.Experiments.proposed.stats.callbacks) "proposed";
       ])

let run_fig6 () =
  let rows = Experiments.fig6 () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig6 ppf) rows;
  print_newline ();
  let depths = match rows with [] -> [] | r :: _ -> List.map fst r.Experiments.by_depth in
  let series d =
    {
      Ascii_plot.label = Printf.sprintf "%d nodes" (Tree.nodes_of_depth d);
      points =
        List.map
          (fun (r : Experiments.fig6_row) ->
            ( float_of_int r.Experiments.closure_bytes /. 1024.0,
              (List.assoc d r.Experiments.by_depth).Experiments.seconds ))
          rows;
    }
  in
  print_string
    (Ascii_plot.render ~x_label:"closure size (KB)" ~y_label:"processing time (s)"
       (List.map series depths))

let run_fig6b () =
  Format.printf
    "Fig. 6 under the descent reading (10 root-to-leaf paths per call):@.";
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig6 ppf)
    (Experiments.fig6_descents ())

let run_fig7 () =
  let rows = Experiments.fig7 () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig7 ppf) rows;
  print_newline ();
  let series sel label =
    { Ascii_plot.label; points = List.map (fun (r : Experiments.fig7_row) -> (r.Experiments.ratio7, sel r)) rows }
  in
  print_string
    (Ascii_plot.render ~x_label:"update ratio" ~y_label:"processing time (s)"
       [
         series (fun r -> r.Experiments.updated.Experiments.seconds) "updated";
         series (fun r -> r.Experiments.not_updated.Experiments.seconds) "not updated";
       ])

let run_ablations () =
  let a1 = Experiments.ablation_alloc_strategy () in
  let a2 = Experiments.ablation_closure_shape () in
  let a3 = Experiments.ablation_alloc_batching () in
  let a4 = Experiments.ablation_writeback_grain () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_ablations ppf) (a1, a2, a3, a4);
  Format.print_newline ();
  Format.printf "%a@." (fun ppf -> Experiments.pp_hint_rows ppf)
    (Experiments.ablation_closure_hints ());
  Format.print_newline ();
  Format.printf "%a@." (fun ppf -> Experiments.pp_page_rows ppf)
    (Experiments.ablation_page_size ())

let run_kv () =
  Format.printf "%a@." (fun ppf -> Experiments.pp_kv ppf) (Experiments.kv_store ())

let run_manual () =
  Format.printf "%a@." (fun ppf -> Experiments.pp_manual ppf)
    (Experiments.manual_comparison ())

let run_scale () =
  Format.printf "%a@." (fun ppf -> Experiments.pp_scaling ppf) (Experiments.scaling ())

let run_wan () =
  let rows = Experiments.fig4_wan ~ratios:[ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ] () in
  Format.printf
    "Fig. 4 with the caller-callee link behind a 50x-latency WAN:@.";
  Format.printf "%a@." (fun ppf -> Experiments.pp_fig4 ppf) rows

(* --- adaptive policy (srpc-adapt) --- *)

(* Final-session time, best static competitor, and the acceptance verdict
   (within 1.15x of the best of fully-eager / fully-lazy / smart-8192,
   the bar set for the adaptive controller). *)
let adaptive_acceptance (r : Experiments.adaptive_fig4_row) =
  let final =
    match List.rev r.Experiments.af_adaptive.Experiments.a_sessions with
    | last :: _ -> last.Experiments.seconds
    | [] -> infinity
  in
  let s = r.Experiments.af_static in
  let best =
    min s.eager.seconds (min s.lazy_.seconds s.proposed.seconds)
  in
  (final, best, final <= (1.15 *. best) +. 1e-9)

(* Hand-rolled JSON so the bench stays free of parser dependencies. *)
let adaptive_json ~depth ~sessions ~closure
    (rows : Experiments.adaptive_fig4_row list) =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n\
    \  \"experiment\": \"adaptive_fig4\",\n\
    \  \"depth\": %d,\n\
    \  \"sessions\": %d,\n\
    \  \"closure_bytes\": %d,\n\
    \  \"acceptance_factor\": 1.15,\n\
    \  \"rows\": [\n"
    depth sessions closure;
  let n = List.length rows in
  List.iteri
    (fun i (r : Experiments.adaptive_fig4_row) ->
      let final, best, pass = adaptive_acceptance r in
      let final_bytes =
        match List.rev r.Experiments.af_adaptive.Experiments.a_sessions with
        | last :: _ -> last.Experiments.stats.bytes
        | [] -> 0
      in
      let s = r.Experiments.af_static in
      Printf.bprintf b
        "    {\"ratio\": %.2f, \"eager_s\": %.6f, \"lazy_s\": %.6f, \
         \"smart_s\": %.6f,\n\
        \     \"eager_bytes\": %d, \"lazy_bytes\": %d, \"smart_bytes\": %d, \
         \"adaptive_final_bytes\": %d,\n\
        \     \"adaptive_final_s\": %.6f, \"best_static_s\": %.6f, \
         \"adaptive_over_best\": %.4f, \"pass\": %b,\n"
        s.ratio s.eager.seconds s.lazy_.seconds s.proposed.seconds
        s.eager.stats.bytes s.lazy_.stats.bytes s.proposed.stats.bytes
        final_bytes final best (final /. best) pass;
      Printf.bprintf b "     \"adaptive_sessions_s\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun (s : Experiments.run) ->
                Printf.sprintf "%.6f" s.Experiments.seconds)
              r.Experiments.af_adaptive.Experiments.a_sessions));
      Printf.bprintf b "     \"budgets\": {%s}}%s\n"
        (String.concat ", "
           (List.map
              (fun (ty, bu) -> Printf.sprintf "%S: %d" ty bu)
              r.Experiments.af_adaptive.Experiments.a_budgets))
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let report_acceptance rows =
  let failures = ref 0 in
  List.iter
    (fun (r : Experiments.adaptive_fig4_row) ->
      let final, best, pass = adaptive_acceptance r in
      if not pass then incr failures;
      Printf.printf "ratio %.2f  adaptive %.6fs  best static %.6fs  x%.3f  %s\n"
        r.Experiments.af_static.ratio final best (final /. best)
        (if pass then "ok" else "FAIL"))
    rows;
  !failures

let run_adaptive () =
  let depth = 15 and sessions = 12 and closure = 8192 in
  let rows = Experiments.adaptive_fig4 ~depth ~sessions ~closure () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_adaptive_fig4 ppf) rows;
  let json = adaptive_json ~depth ~sessions ~closure rows in
  let path = "BENCH_adaptive.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (report_acceptance rows)

(* --- faults (srpc-faults) --- *)

let faults_json ~depth ~ratio ~sessions (ov : Experiments.faults_overhead)
    (rows : Experiments.faults_summary list) =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n\
    \  \"experiment\": \"faults\",\n\
    \  \"depth\": %d,\n\
    \  \"ratio\": %.2f,\n\
    \  \"sessions_per_cell\": %d,\n\
    \  \"overhead\": {\"plain_s\": %.6f, \"envelope_s\": %.6f, \
     \"ratio\": %.4f, \"bound\": 1.05},\n\
    \  \"cells\": [\n"
    depth ratio sessions ov.Experiments.fo_plain.Experiments.seconds
    ov.Experiments.fo_envelope.Experiments.seconds ov.Experiments.fo_ratio;
  let n = List.length rows in
  List.iteri
    (fun i (f : Experiments.faults_summary) ->
      Printf.bprintf b
        "    {\"drop\": %.2f, \"strategy\": %S, \"sessions\": %d, \
         \"completed\": %d, \"aborted\": %d, \"wrong\": %d,\n\
        \     \"retries\": %d, \"timeouts\": %d, \"duplicates\": %d, \
         \"mean_completed_s\": %.6f}%s\n"
        f.Experiments.f_drop f.Experiments.f_strategy f.Experiments.f_sessions
        f.Experiments.f_completed f.Experiments.f_aborted f.Experiments.f_wrong
        f.Experiments.f_retries f.Experiments.f_timeouts
        f.Experiments.f_duplicates f.Experiments.f_seconds
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* The acceptance gate over a faults run: the retry envelope must cost at
   most 5% at zero fault rate, no completed session may return a wrong
   result, every session must be accounted for, and under a 1% drop rate
   most sessions still complete. *)
let faults_failures (ov : Experiments.faults_overhead)
    (rows : Experiments.faults_summary list) =
  let failures = ref 0 in
  let check cond msg =
    if not cond then begin
      incr failures;
      Printf.printf "faults: FAIL %s\n" msg
    end
  in
  check
    (ov.Experiments.fo_ratio <= 1.05 +. 1e-9)
    (Printf.sprintf "envelope overhead x%.4f exceeds 1.05"
       ov.Experiments.fo_ratio);
  List.iter
    (fun (f : Experiments.faults_summary) ->
      let cell = Printf.sprintf "drop %.2f %s" f.Experiments.f_drop f.Experiments.f_strategy in
      check (f.Experiments.f_wrong = 0)
        (Printf.sprintf "%s: %d wrong result(s)" cell f.Experiments.f_wrong);
      check
        (f.Experiments.f_completed + f.Experiments.f_aborted
        = f.Experiments.f_sessions)
        (Printf.sprintf "%s: %d session(s) unaccounted for" cell
           (f.Experiments.f_sessions - f.Experiments.f_completed
          - f.Experiments.f_aborted));
      if f.Experiments.f_drop <= 0.011 then
        check
          (f.Experiments.f_completed * 5 >= f.Experiments.f_sessions * 4)
          (Printf.sprintf "%s: only %d/%d sessions completed" cell
             f.Experiments.f_completed f.Experiments.f_sessions))
    rows;
  !failures

let run_faults () =
  let depth = 11 and ratio = 0.6 and sessions = 8 in
  let ov = Experiments.measure_faults_overhead ~depth ~ratio () in
  let rows = Experiments.faults_sweep ~depth:9 ~ratio ~sessions () in
  Format.printf "%a@." (fun ppf -> Experiments.pp_faults ppf) (ov, rows);
  let json = faults_json ~depth ~ratio ~sessions ov rows in
  let path = "BENCH_faults.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (faults_failures ov rows)

(* --- delta coherency (srpc-delta) --- *)

let delta_json (field : Experiments.delta_run list)
    (rows : Experiments.delta_fig4_row list) =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\n\
    \  \"experiment\": \"delta_coherency\",\n\
    \  \"wb_bytes_bound\": 0.5,\n\
    \  \"field_update\": [\n";
  let n = List.length field in
  List.iteri
    (fun i (r : Experiments.delta_run) ->
      let s = r.Experiments.dl_run.stats in
      Printf.bprintf b
        "    {\"delta\": %b, \"wb_bytes\": %d, \"saved\": %d, \
         \"fallbacks\": %d, \"copies\": %d, \"cachers\": %d,\n\
        \     \"inval_sent\": %d, \"inval_skipped\": %d, \"messages\": %d, \
         \"bytes\": %d, \"check\": %b}%s\n"
        (i > 0) s.writeback_bytes s.delta_bytes_saved s.full_fallbacks
        r.Experiments.dl_copies r.Experiments.dl_cachers
        r.Experiments.dl_inval_sent s.invalidations_skipped s.messages s.bytes
        r.Experiments.dl_check
        (if i = n - 1 then "" else ","))
    field;
  Buffer.add_string b "  ],\n  \"fig4_update\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (r : Experiments.delta_fig4_row) ->
      Printf.bprintf b
        "    {\"method\": %S, \"off_wb_bytes\": %d, \"on_wb_bytes\": %d, \
         \"saved\": %d, \"fallbacks\": %d}%s\n"
        (Experiments.method_name r.Experiments.dm_method)
        r.Experiments.dm_off.stats.writeback_bytes
        r.Experiments.dm_on.stats.writeback_bytes
        r.Experiments.dm_on.stats.delta_bytes_saved
        r.Experiments.dm_on.stats.full_fallbacks
        (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* The delta acceptance gates. On the single-field-update workload the
   delta run must ship at most half the write-back bytes (it ships about
   0.5%), invalidation must reach exactly the caching spaces, and with
   the flag off the wire must look exactly like the pre-delta protocol:
   no delta counters and the same traffic on every run. (Copy and
   Inval_sent provenance notes are zero-byte witnesses recorded in every
   mode for the offline linters, so they are not a fingerprint.) *)
let delta_failures (off : Experiments.delta_run)
    (off2 : Experiments.delta_run) (on : Experiments.delta_run)
    (rows : Experiments.delta_fig4_row list) =
  let failures = ref 0 in
  let check cond msg =
    if not cond then begin
      incr failures;
      Printf.printf "delta: FAIL %s\n" msg
    end
  in
  let s (r : Experiments.delta_run) = r.Experiments.dl_run.stats in
  check off.Experiments.dl_check "flag-off home missed a poked value";
  check on.Experiments.dl_check "flag-on home missed a poked value";
  check
    (2 * (s on).writeback_bytes <= (s off).writeback_bytes)
    (Printf.sprintf "delta write-back bytes %d exceed half of full %d"
       (s on).writeback_bytes (s off).writeback_bytes);
  check
    (on.Experiments.dl_inval_sent = on.Experiments.dl_cachers)
    (Printf.sprintf "%d invalidation(s) for %d caching space(s)"
       on.Experiments.dl_inval_sent on.Experiments.dl_cachers);
  check
    (on.Experiments.dl_cachers = 1 && (s on).invalidations_skipped = 2)
    (Printf.sprintf "expected 1 casher and 2 spared idlers, got %d and %d"
       on.Experiments.dl_cachers (s on).invalidations_skipped);
  check
    ((s off).delta_bytes_saved = 0
    && (s off).full_fallbacks = 0
    && (s off).invalidations_skipped = 0)
    "flag off left delta fingerprints (counters)";
  check
    ((s off).messages = (s off2).messages
    && (s off).bytes = (s off2).bytes
    && (s off).writeback_bytes = (s off2).writeback_bytes)
    "flag-off runs are not byte-identical";
  List.iter
    (fun (r : Experiments.delta_fig4_row) ->
      let on = r.Experiments.dm_on.stats.writeback_bytes
      and off = r.Experiments.dm_off.stats.writeback_bytes in
      check (on <= off)
        (Printf.sprintf "%s: delta on ships more write-back bytes (%d > %d)"
           (Experiments.method_name r.Experiments.dm_method) on off))
    rows;
  !failures

let delta_measure ?(depth = 12) () =
  let off = Experiments.run_field_update ~delta:false () in
  let off2 = Experiments.run_field_update ~delta:false () in
  let on = Experiments.run_field_update ~delta:true () in
  let rows = Experiments.delta_fig4 ~depth () in
  (off, off2, on, rows)

let run_delta () =
  let off, off2, on, rows = delta_measure () in
  Format.printf "%a@." (fun ppf () -> Experiments.pp_delta ppf [ off; on ] rows) ();
  let json = delta_json [ off; on ] rows in
  let path = "BENCH_delta.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (delta_failures off off2 on rows)

(* --- traffic (srpc-traffic: concurrent-session admission) --- *)

(* The speedup gate: >= 8 admission-disjoint clients must beat the
   serialized replay of the same session population by >= 2x on
   committed-session throughput, with zero Race_lint / Proto_lint
   errors over the full trace. Contended rows (queue and abort-retry)
   are reported for the record; they gate only on linter cleanliness
   and full commitment, not on speedup. *)
let traffic_speedup_gate = 2.0

let traffic_measure () =
  let module T = Srpc_traffic.Traffic in
  let disjoint seed = { T.default with T.seed } in
  let hot policy =
    { T.default with T.contention = T.Hot; policy; sessions_per_client = 3 }
  in
  List.map
    (fun cfg -> (cfg.T.seed, cfg, T.compare_runs cfg))
    [
      disjoint 0;
      disjoint 1;
      hot Srpc_core.Strategy.Queue_conflicts;
      hot Srpc_core.Strategy.Abort_retry;
    ]

let traffic_failures rows =
  let module T = Srpc_traffic.Traffic in
  let failures = ref 0 in
  List.iter
    (fun (seed, (cfg : T.config), (cmp : T.comparison)) ->
      let c = cmp.T.concurrent in
      let fail fmt =
        incr failures;
        Printf.printf fmt
      in
      let label =
        let contention = T.contention_name cfg.T.contention in
        match cfg.T.contention with
        | T.Disjoint -> Printf.sprintf "%s seed %d" contention seed
        | T.Hot ->
          contention ^ "/" ^ Srpc_core.Strategy.admission_name cfg.T.policy
      in
      Printf.printf
        "traffic %-16s %2d/%2d committed  x%.2f serialized  races %d  \
         proto %d\n"
        label c.T.r_committed c.T.r_sessions cmp.T.speedup c.T.r_race_errors
        c.T.r_proto_errors;
      if c.T.r_committed <> c.T.r_sessions then
        fail "traffic %s: %d/%d sessions committed\n" label c.T.r_committed
          c.T.r_sessions;
      if c.T.r_race_errors > 0 then
        fail "traffic %s: %d Race_lint error(s)\n" label c.T.r_race_errors;
      if c.T.r_proto_errors > 0 then
        fail "traffic %s: %d Proto_lint error(s)\n" label c.T.r_proto_errors;
      if cfg.T.contention = T.Disjoint && cmp.T.speedup < traffic_speedup_gate
      then
        fail "traffic %s: speedup x%.2f below the x%.1f gate\n" label
          cmp.T.speedup traffic_speedup_gate)
    rows;
  !failures

let traffic_json rows =
  let module T = Srpc_traffic.Traffic in
  Srpc_traffic.Traffic_json.report ~clients:T.default.T.clients
    ~servers:T.default.T.servers ~rate:T.default.T.rate
    ~sessions:T.default.T.sessions_per_client rows

let run_traffic () =
  let rows = traffic_measure () in
  let json = traffic_json rows in
  let path = "BENCH_traffic.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (traffic_failures rows)

(* --- soak (srpc-recover: chaos traffic with recovery armed) --- *)

(* The robustness gate: over >= 300 virtual seconds at 1% drop with
   periodic crash/revive cycles, session completion must stay >= 99%,
   validation must detect zero lost updates, p99 latency must stay
   within 5x the fault-free baseline's p99, and the recovery machinery
   must demonstrably fire (crashes applied, heartbeats sent, at least
   one session recovered). The two deliberately overloaded hot rows
   (tiny queue cap and retry budget) gate only on typed shedding and
   zero lost updates — under overload the controller must shed, not
   corrupt. *)
let soak_completion_gate = 0.99
let soak_p99_ratio_gate = 5.0

let soak_seed () =
  match Sys.getenv_opt "SRPC_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> 0)
  | None -> 0

let soak_measure () =
  let module S = Srpc_traffic.Soak in
  let seed = soak_seed () in
  let gate = { S.default with S.seed } in
  let hot policy =
    {
      S.default with
      S.seed;
      policy;
      contention = Srpc_traffic.Traffic.Hot;
      horizon = 60.0;
      rate = 1.0;
      crash_period = 16.0;
      queue_cap = 2;
      retry_budget = 6;
    }
  in
  List.map
    (fun (label, cfg) -> (label, cfg, S.compare_runs cfg))
    [
      ("chaos-gate", gate);
      ("hot/queue", hot Srpc_core.Strategy.Queue_conflicts);
      ("hot/abort-retry", hot Srpc_core.Strategy.Abort_retry);
    ]

let soak_failures rows =
  let module S = Srpc_traffic.Soak in
  let failures = ref 0 in
  List.iter
    (fun (label, (cfg : S.config), (cmp : S.comparison)) ->
      let c = cmp.S.chaos in
      let fail fmt =
        incr failures;
        Printf.printf fmt
      in
      Printf.printf
        "soak %-16s %3d/%3d committed (%.1f%%)  p99 x%.2f  aborts %d \
         recovered %d sheds %d trips %d hb %d  races %d proto %d\n"
        label c.S.s_committed c.S.s_sessions (100.0 *. c.S.s_completion)
        cmp.S.p99_ratio c.S.s_aborts c.S.s_recovered c.S.s_sheds
        c.S.s_breaker_trips c.S.s_heartbeats c.S.s_race_errors
        c.S.s_proto_errors;
      if c.S.s_validation_failed > 0 then
        fail "soak %s: %d validation-detected lost update(s)\n" label
          c.S.s_validation_failed;
      if c.S.s_race_errors > 0 then
        fail "soak %s: %d Race_lint error(s)\n" label c.S.s_race_errors;
      if c.S.s_proto_errors > 0 then
        fail "soak %s: %d Proto_lint error(s)\n" label c.S.s_proto_errors;
      if c.S.s_committed + c.S.s_failed <> c.S.s_sessions then
        fail "soak %s: %d committed + %d failed != %d sessions\n" label
          c.S.s_committed c.S.s_failed c.S.s_sessions;
      if cfg.S.contention = Srpc_traffic.Traffic.Disjoint then begin
        if c.S.s_completion < soak_completion_gate then
          fail "soak %s: completion %.4f below the %.2f gate\n" label
            c.S.s_completion soak_completion_gate;
        if cmp.S.p99_ratio > soak_p99_ratio_gate then
          fail "soak %s: p99 x%.2f the fault-free baseline (gate x%.1f)\n"
            label cmp.S.p99_ratio soak_p99_ratio_gate;
        if c.S.s_crashes = 0 || c.S.s_revives <> c.S.s_crashes then
          fail "soak %s: crash/revive schedule did not run (%d/%d)\n" label
            c.S.s_crashes c.S.s_revives;
        if c.S.s_heartbeats = 0 then
          fail "soak %s: the failure detector never probed\n" label;
        if c.S.s_recovered = 0 then
          fail "soak %s: no session exercised crash recovery\n" label;
        if c.S.s_recoveries <> c.S.s_recovered then
          fail "soak %s: Stats.recoveries %d != recovered sessions %d\n"
            label c.S.s_recoveries c.S.s_recovered
      end
      else if c.S.s_sheds = 0 then
        fail "soak %s: overload never shed (queue_cap %d, budget %d)\n" label
          cfg.S.queue_cap cfg.S.retry_budget)
    rows;
  !failures

let run_soak () =
  let rows = soak_measure () in
  let json = Srpc_traffic.Soak_json.report rows in
  let path = "BENCH_soak.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (soak_failures rows)

(* --- offload (srpc-offload: traversal plans shipped to the home) --- *)

(* The wire gate: at the lowest-locality point (K = 1) the offloaded
   traversal must move an order of magnitude fewer bytes than the eager
   closure, for the same answer. The adaptive gate: the per-type
   learner, fed only per-traversal seconds, must offload at the lowest
   repeat point and keep the walk local at the highest — no hints. *)
let offload_wire_gate = 10

let offload_measure ?(depth = 10)
    ?(repeat_points = Experiments.default_offload_repeats) ?(sessions = 24) ()
    =
  let rows = Experiments.offload_sweep ~depth ~repeat_points () in
  let points = Experiments.offload_adaptive_sweep ~depth ~sessions () in
  (rows, points)

let offload_failures (rows, points) =
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  (match rows with
  | [] -> fail "offload: empty sweep\n"
  | (first : Experiments.offload_row) :: _ ->
    let e = first.Experiments.of_eager.stats.bytes
    and o = first.Experiments.of_always.stats.bytes in
    Printf.printf "offload K=%d  eager %d B  offloaded %d B  x%.1f\n"
      first.Experiments.of_repeats e o
      (float_of_int e /. float_of_int (max 1 o));
    if o * offload_wire_gate > e then
      fail "offload: K=%d moved %d B, above the eager/%d gate (%d B)\n"
        first.Experiments.of_repeats o offload_wire_gate e);
  List.iter
    (fun (r : Experiments.offload_row) ->
      if not (Experiments.offload_agrees r) then
        fail "offload: K=%d arms disagree on the traversal result\n"
          r.Experiments.of_repeats)
    rows;
  (match points with
  | [ lo; hi ] ->
    Printf.printf "offload adaptive  K=%d -> %s  K=%d -> %s\n"
      lo.Experiments.oa_repeats lo.Experiments.oa_choice
      hi.Experiments.oa_repeats hi.Experiments.oa_choice;
    if not (String.equal lo.Experiments.oa_choice "offload") then
      fail "offload: learner picked %S at K=%d, expected \"offload\"\n"
        lo.Experiments.oa_choice lo.Experiments.oa_repeats;
    if not (String.equal hi.Experiments.oa_choice "local") then
      fail "offload: learner picked %S at K=%d, expected \"local\"\n"
        hi.Experiments.oa_choice hi.Experiments.oa_repeats;
    if lo.Experiments.oa_run.visited <> hi.Experiments.oa_run.visited then
      fail "offload: adaptive endpoints disagree on the result\n"
  | points ->
    fail "offload: expected two adaptive points, got %d\n"
      (List.length points));
  !failures

let run_offload () =
  let depth = 10 in
  let rows, points = offload_measure ~depth () in
  Format.printf "%a@." Experiments.pp_offload (rows, points);
  let json = Experiments.offload_json ~depth (rows, points) in
  let path = "BENCH_offload.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  ignore (offload_failures (rows, points))

(* Scaled-down adaptive + faults acceptance gate, wired into `dune runtest`
   via the bench-smoke alias: fails the build if the controller stops
   converging or the fault machinery regresses. *)
let run_smoke () =
  let depth = 10
  and sessions = 12
  and closure = 8192
  and ratios = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let rows = Experiments.adaptive_fig4 ~depth ~ratios ~sessions ~closure () in
  print_string (adaptive_json ~depth ~sessions ~closure rows);
  let failures = report_acceptance rows in
  let ov = Experiments.measure_faults_overhead ~depth:10 () in
  let frows = Experiments.faults_sweep ~depth:7 ~sessions:4 () in
  print_string (faults_json ~depth:10 ~ratio:0.5 ~sessions:4 ov frows);
  let ffailures = faults_failures ov frows in
  let doff, doff2, don, drows = delta_measure ~depth:9 () in
  print_string (delta_json [ doff; don ] drows);
  let dfailures = delta_failures doff doff2 don drows in
  let trows = traffic_measure () in
  let json = traffic_json trows in
  print_string json;
  let oc = open_out "BENCH_traffic.json" in
  output_string oc json;
  close_out oc;
  let tfailures = traffic_failures trows in
  let srows = soak_measure () in
  let sjson = Srpc_traffic.Soak_json.report srows in
  print_string sjson;
  let oc = open_out "BENCH_soak.json" in
  output_string oc sjson;
  close_out oc;
  let sfailures = soak_failures srows in
  let odepth = 8 in
  let omeasure =
    offload_measure ~depth:odepth ~repeat_points:[ 1; 8; 32 ] ()
  in
  let ojson = Experiments.offload_json ~depth:odepth omeasure in
  print_string ojson;
  let oc = open_out "BENCH_offload.json" in
  output_string oc ojson;
  close_out oc;
  let ofailures = offload_failures omeasure in
  if
    failures > 0 || ffailures > 0 || dfailures > 0 || tfailures > 0
    || sfailures > 0 || ofailures > 0
  then begin
    if failures > 0 then
      Printf.eprintf "bench-smoke: %d ratio(s) outside the 1.15x bound\n"
        failures;
    if ffailures > 0 then
      Printf.eprintf "bench-smoke: %d faults gate failure(s)\n" ffailures;
    if dfailures > 0 then
      Printf.eprintf "bench-smoke: %d delta gate failure(s)\n" dfailures;
    if tfailures > 0 then
      Printf.eprintf "bench-smoke: %d traffic gate failure(s)\n" tfailures;
    if sfailures > 0 then
      Printf.eprintf "bench-smoke: %d soak gate failure(s)\n" sfailures;
    if ofailures > 0 then
      Printf.eprintf "bench-smoke: %d offload gate failure(s)\n" ofailures;
    exit 1
  end

(* --- Bechamel microbenchmarks --- *)

let micro_tests () =
  let open Bechamel in
  (* Shared fixture: a two-site cluster with a small tree, session open,
     fully warmed cache at the callee. *)
  let cluster = Cluster.create ~cost:Srpc_simnet.Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:8 in
  Node.register b "search" (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let visited, _ =
          Tree.visit node (Access.of_value rootv) ~limit:(Value.to_int limitv)
        in
        [ Value.int visited ]
      | _ -> assert false);
  Node.register b "noop" (fun _ _ -> []);
  Node.begin_session a;
  (* warm the callee's cache so per-iteration work is steady-state *)
  ignore
    (Node.call a ~dst:(Node.id b) "search"
       [ Access.to_value root; Value.int max_int ]);

  let reg = Cluster.registry cluster in
  let lp =
    Long_pointer.make ~origin:(Node.id a) ~addr:root.Access.addr ~ty:Tree.type_name
  in
  let fetch_frame =
    Wire.encode_request ~reg (Wire.Fetch { session = 1; wanted = [ lp ] })
  in
  let enc_ctx =
    {
      Object_codec.enc_reg = reg;
      enc_arch = Node.arch a;
      unswizzle = (fun ~ty w -> Node.unswizzle a ~ty w);
    }
  in
  let raw =
    Srpc_memory.Address_space.read_unchecked (Node.space a) ~addr:root.Access.addr
      ~len:16
  in

  [
    (* Table 1: the swizzling machinery itself — long-pointer to cache
       address translation on the hit path. *)
    Test.make ~name:"table1/swizzle-hit"
      (Staged.stage (fun () -> ignore (Node.swizzle b (Some lp))));
    Test.make ~name:"table1/unswizzle"
      (Staged.stage (fun () ->
           ignore (Node.unswizzle a ~ty:Tree.type_name root.Access.addr)));
    (* Fig 4: one complete smart RPC (call + return + coherency). *)
    Test.make ~name:"fig4/rpc-tree-search"
      (Staged.stage (fun () ->
           ignore
             (Node.call a ~dst:(Node.id b) "search"
                [ Access.to_value root; Value.int 64 ])));
    Test.make ~name:"fig4/rpc-noop"
      (Staged.stage (fun () -> ignore (Node.call a ~dst:(Node.id b) "noop" [])));
    (* Fig 5: the per-callback CPU cost — decoding one Fetch frame. *)
    Test.make ~name:"fig5/fetch-frame-decode"
      (Staged.stage (fun () -> ignore (Wire.decode_request ~reg fetch_frame)));
    (* Fig 6: the closure engine's unit of work — type-directed encode of
       one tree node (XDR + pointer unswizzling). *)
    Test.make ~name:"fig6/encode-tree-node"
      (Staged.stage (fun () ->
           ignore (Object_codec.encode enc_ctx ~ty:Tree.type_name raw)));
    (* ... and its receiving half: decode one tree node at the callee,
       swizzling its pointers into the warmed cache. *)
    Test.make ~name:"fig6/decode-tree-node"
      (Staged.stage
         (let data = Object_codec.encode enc_ctx ~ty:Tree.type_name raw in
          let ctx =
            {
              Object_codec.dec_reg = reg;
              dec_arch = Node.arch b;
              swizzle = (fun lp -> Node.swizzle b lp);
            }
          in
          fun () -> ignore (Object_codec.decode ctx ~ty:Tree.type_name data)));
    (* The Access layer's hit path: a field read of a cached datum. *)
    Test.make ~name:"access/cached-get-int"
      (Staged.stage
         (let p = Access.ptr ~ty:Tree.type_name (Node.swizzle b (Some lp)) in
          fun () -> ignore (Access.get_int b p ~field:"data")));
    (* Fig 7: the update path's unit of work — a cached field write
       through the MMU (steady state: page already writable). *)
    Test.make ~name:"fig7/cached-field-write"
      (Staged.stage
         (let p = Access.ptr ~ty:Tree.type_name (Node.swizzle b (Some lp)) in
          fun () -> Access.set_int b p ~field:"data" 42));
  ]

(* Bechamel's own [Toolkit.Instance.minor_allocated] reads
   [Gc.quick_stat], whose minor-word count OCaml 5 only brings up to date
   at a minor collection, so it reads 0 for runs that allocate less than
   the minor heap. [Gc.minor_words] also counts the live minor heap. *)
module Minor_words = struct
  include Bechamel.Toolkit.Minor_allocated

  let get () = Gc.minor_words ()
  let label () = "minor-words"
end

let minor_words =
  Bechamel.Measure.instance (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let run_micro () =
  let open Bechamel in
  let tests = micro_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let time = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let grouped = Test.make_grouped ~name:"srpc" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ time; minor_words ] grouped in
  let estimate instance name =
    match Analyze.OLS.estimates (Hashtbl.find (Analyze.all ols instance raw) name) with
    | Some [ est ] -> Printf.sprintf "%.1f" est
    | Some _ | None -> "n/a"
  in
  Printf.printf "%-36s %14s %14s\n" "microbenchmark" "ns/run" "words/run";
  Hashtbl.fold (fun name _ acc -> name :: acc) raw []
  |> List.sort compare
  |> List.iter (fun name ->
         Printf.printf "%-36s %14s %14s\n" name (estimate time name)
           (estimate minor_words name))

(* --- driver --- *)

let all_sections =
  [
    ("table1", ("Table 1 - data allocation table", run_table1));
    ("fig4", ("Fig. 4 / Fig. 5 - three methods vs access ratio", run_fig45));
    ("fig6", ("Fig. 6 - closure size sweep", run_fig6));
    ("fig6b", ("Fig. 6 - descent-workload reading", run_fig6b));
    ("fig7", ("Fig. 7 - update performance", run_fig7));
    ("ablations", ("Ablations A1-A6", run_ablations));
    ("adaptive", ("Adaptive policy vs Fig. 4 statics", run_adaptive));
    ("faults", ("Faults: retry envelope overhead + chaos sweep", run_faults));
    ("delta", ("Delta coherency: dirty ranges vs full write-backs", run_delta));
    ("traffic", ("Concurrent-session traffic vs serialized baseline", run_traffic));
    ("soak", ("Chaos soak: recovery + overload protection under faults", run_soak));
    ("offload", ("Offload: traversal plans vs closure transfer", run_offload));
    ("smoke", ("Adaptive + faults + delta acceptance smoke (scaled down)", run_smoke));
    ("wan", ("Derived: Fig. 4 over a WAN link", run_wan));
    ("kv", ("Derived: remote B-tree key-value store", run_kv));
    ("scale", ("Derived: session width scaling", run_scale));
    ("manual", ("Derived: hand-written protocols vs transparency", run_manual));
    ("micro", ("Bechamel microbenchmarks (real time)", run_micro));
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [] | [ _ ] -> List.map fst all_sections
    | _ :: args -> args
  in
  List.iter
    (fun key ->
      match List.assoc_opt key all_sections with
      | Some (title, f) -> section title f
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" key
          (String.concat ", " (List.map fst all_sections));
        exit 1)
    requested

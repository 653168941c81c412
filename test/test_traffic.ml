(* Concurrent-session admission and the srpc-traffic generator.

   Four layers of evidence, from unit to end-to-end:
   - the Admission controller's decision table, FIFO no-barging drain,
     OCC validation and backoff arithmetic, in isolation;
   - the traffic generator itself: deterministic, disjoint clients
     overlap (>= 2x the serialized throughput at 8 clients), contended
     clients queue or abort-retry with live Stats counters;
   - the shared-counter workload: admission serializes conflicting
     bumps with no lost update, and with the conflict check chaosed off
     the close-time validation, Race_lint (CC101) and the protocol
     linter (SP008) all catch the overlap while the counter still ends
     exactly at the committed-bump count;
   - the single-session fingerprint: each legacy-mode run's trace is
     pinned per seed by event count and digest, the paper-mode seeds at
     the bytes the tree produced before concurrent admission existed;
     the four coherency paths (encoding x delivery) are pinned by
     digest. *)

open Srpc_core
open Srpc_simnet
open Srpc_analysis
open Srpc_check
open Srpc_traffic

(* {1 Admission unit tests} *)

let fp_of label regions =
  Footprint.session ~label
    (List.map
       (fun (root, mode) -> { Footprint.root; path = "*"; mode })
       regions)

let w root = (root, Footprint.Write)
let r root = (root, Footprint.Read)

let test_admission_disjoint () =
  let adm = Admission.create (Stats.create ()) in
  (match Admission.request adm ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first session not admitted");
  (match Admission.request adm ~session:2 (fp_of "b" [ w "y" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "disjoint session not admitted");
  (* two readers of the same (otherwise untouched) root do not conflict *)
  (match Admission.request adm ~session:3 (fp_of "c" [ r "z" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first reader not admitted");
  (match Admission.request adm ~session:4 (fp_of "d" [ r "z" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "read-read treated as a conflict");
  (* a reader of a root an open session is writing does conflict *)
  (match Admission.request adm ~session:5 (fp_of "e" [ r "x" ]) with
  | Admission.Admitted -> Alcotest.fail "read admitted against an open writer"
  | _ -> ());
  Alcotest.(check int) "open" 4 (Admission.open_count adm)

let test_admission_queue_fifo () =
  let adm = Admission.create ~policy:Strategy.Queue_conflicts (Stats.create ()) in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "conflicting session not queued");
  (* session 3 conflicts with QUEUED session 2 — it must not barge *)
  (match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "younger conflicting session barged the queue");
  Alcotest.(check int) "queue" 2 (Admission.queue_length adm);
  let drained = Admission.close adm ~session:1 in
  (* FIFO: only session 2 comes out (3 conflicts with it) *)
  Alcotest.(check (list int)) "drain order" [ 2 ] (List.map fst drained);
  let drained = Admission.close adm ~session:2 in
  Alcotest.(check (list int)) "second drain" [ 3 ] (List.map fst drained)

let test_admission_abort_retry () =
  let stats = Stats.create () in
  let adm = Admission.create ~policy:Strategy.Abort_retry stats in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Denied -> ()
  | _ -> Alcotest.fail "conflicting session not denied under abort-retry");
  ignore (Admission.close adm ~session:1);
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "retry after the holder left not admitted");
  let snap = Stats.snapshot stats in
  Alcotest.(check int) "denied counted" 1 snap.Stats.sessions_aborted;
  Alcotest.(check int) "retry counted" 1 snap.Stats.sessions_retried

let test_admission_validation () =
  let adm = Admission.create (Stats.create ()) in
  (* forced concurrent writers to the same root: the later closer must
     fail validation *)
  ignore (Admission.request ~force:true adm ~session:1 (fp_of "a" [ w "x" ]));
  ignore (Admission.request ~force:true adm ~session:2 (fp_of "b" [ w "x" ]));
  ignore (Admission.close adm ~session:1);
  Alcotest.(check bool) "loser fails validation" false
    (Admission.validate adm ~session:2);
  (* an uncontended root is unaffected *)
  ignore (Admission.request adm ~session:3 (fp_of "c" [ w "y" ]));
  Alcotest.(check bool) "disjoint session validates" true
    (Admission.validate adm ~session:3)

let test_backoff () =
  (* jittered capped exponential: delay = base * 2^min(attempt,6) * j
     with j drawn deterministically from (session, attempt) in
     [0.5, 1.5) *)
  let check_range name ~attempt ~expo =
    let d = Admission.backoff_delay ~session:7 ~attempt ~base:1e-3 in
    let lo = 0.5 *. expo *. 1e-3 and hi = 1.5 *. expo *. 1e-3 in
    if d < lo || d >= hi then
      Alcotest.failf "%s: %.6g outside jitter window [%.6g, %.6g)" name d lo hi
  in
  check_range "attempt 0" ~attempt:0 ~expo:1.0;
  check_range "attempt 3" ~attempt:3 ~expo:8.0;
  (* capped at 2^6 *)
  check_range "attempt 40" ~attempt:40 ~expo:64.0;
  (* deterministic: same (session, attempt) -> same delay *)
  Alcotest.(check (float 0.0)) "deterministic"
    (Admission.backoff_delay ~session:3 ~attempt:2 ~base:1e-3)
    (Admission.backoff_delay ~session:3 ~attempt:2 ~base:1e-3);
  (* the point of the jitter: distinct sessions denied at the same
     attempt spread out instead of re-colliding in lockstep *)
  let d1 = Admission.backoff_delay ~session:1 ~attempt:1 ~base:1e-3
  and d2 = Admission.backoff_delay ~session:2 ~attempt:1 ~base:1e-3 in
  if Float.abs (d1 -. d2) < 1e-6 then
    Alcotest.failf "sessions 1 and 2 got identical backoff %.6g" d1

(* {1 Overload protection: bounded queue, retry budget, breaker} *)

let test_admission_queue_cap () =
  let stats = Stats.create () in
  let adm =
    Admission.create ~policy:Strategy.Queue_conflicts ~queue_cap:1 stats
  in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Queued -> ()
  | _ -> Alcotest.fail "first conflict not queued");
  (match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Overloaded Admission.Queue_full -> ()
  | _ -> Alcotest.fail "full queue did not shed");
  Alcotest.(check int) "queue stayed bounded" 1 (Admission.queue_length adm);
  Alcotest.(check int) "shed counted" 1 (Stats.snapshot stats).Stats.sheds;
  (* the shed is terminal but not fatal: once the queue drains, the same
     reserved id is admitted by a fresh request *)
  ignore (Admission.close adm ~session:1);
  ignore (Admission.close adm ~session:2);
  match Admission.request adm ~session:3 (fp_of "c" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "shed session not admitted after the queue drained"

let test_admission_retry_budget () =
  let stats = Stats.create () in
  let adm =
    Admission.create ~policy:Strategy.Abort_retry ~retry_budget:2 stats
  in
  ignore (Admission.request adm ~session:1 (fp_of "a" [ w "x" ]));
  for _ = 1 to 2 do
    match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
    | Admission.Denied -> ()
    | _ -> Alcotest.fail "in-budget conflict not denied"
  done;
  (match Admission.request adm ~session:2 (fp_of "b" [ w "x" ]) with
  | Admission.Overloaded Admission.Retry_budget -> ()
  | _ -> Alcotest.fail "exhausted budget did not shed");
  Alcotest.(check int) "shed counted" 1 (Stats.snapshot stats).Stats.sheds

(* A two-node cluster the detector can actually probe: the node answers
   heartbeats from its transport dispatcher, and the fault plan lets the
   test crash and revive it. *)
let health_fixture () =
  let cluster = Cluster.create () in
  let node = Cluster.add_node cluster ~site:1 () in
  Cluster.install_faults cluster (Fault_plan.create ());
  let h =
    Health.create ~src:"monitor" ~registry:(Cluster.registry cluster)
      ~stats:(Cluster.stats cluster)
      (Cluster.transport cluster)
  in
  (cluster, h, Srpc_memory.Space_id.to_string (Node.id node))

let test_health_ladder () =
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  Alcotest.(check bool) "initially available" true (Health.available h ep);
  (match Health.probe h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "answered probe left the peer un-alive");
  Transport.crash (Cluster.transport cluster) ep;
  (* suspect_after = 2 consecutive misses, confirm_after = 4 *)
  ignore (Health.probe h ep);
  (match Health.probe h ep with
  | Health.Suspected -> ()
  | _ -> Alcotest.fail "2 misses did not suspect");
  Alcotest.(check bool) "suspected peer unavailable" false
    (Health.available h ep);
  ignore (Health.probe h ep);
  (match Health.probe h ep with
  | Health.Dead -> ()
  | _ -> Alcotest.fail "4 misses did not confirm death");
  Transport.revive (Cluster.transport cluster) ep;
  (match Health.probe h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "answered probe did not revive the peer");
  Alcotest.(check int) "revival recorded" 1 (Health.revivals h ep);
  let snap = Cluster.snapshot cluster in
  Alcotest.(check int) "every probe counted" 6 snap.Stats.heartbeats_sent;
  Alcotest.(check int) "one suspicion counted" 1 snap.Stats.suspicions

let test_health_observe () =
  (* ground-truth crash/revive marks fold into the detector without
     waiting out a probe cycle *)
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  Transport.crash (Cluster.transport cluster) ep;
  let cursor = Health.observe h trace ~from:0 in
  (match Health.state h ep with
  | Health.Dead -> ()
  | _ -> Alcotest.fail "crash mark did not mark the peer dead");
  Transport.revive (Cluster.transport cluster) ep;
  ignore (Health.observe h trace ~from:cursor);
  (match Health.state h ep with
  | Health.Alive -> ()
  | _ -> Alcotest.fail "revive mark's confirming probe did not restore");
  Alcotest.(check int) "revival recorded" 1 (Health.revivals h ep)

let test_admission_breaker () =
  let cluster, h, ep = health_fixture () in
  Health.watch h ep;
  let stats = Cluster.stats cluster in
  let adm = Admission.create ~retry_budget:3 ~health:h stats in
  Transport.crash (Cluster.transport cluster) ep;
  ignore (Health.probe h ep);
  ignore (Health.probe h ep);
  (* suspected: the breaker must refuse sessions naming the peer... *)
  (match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Overloaded (Admission.Dead_peer e) ->
    Alcotest.(check string) "names the dead peer" ep e
  | _ -> Alcotest.fail "breaker did not trip on a suspected peer");
  (* ...without charging the session's retry budget *)
  (match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Overloaded (Admission.Dead_peer _) -> ()
  | _ -> Alcotest.fail "second breaker trip expected");
  let snap = Stats.snapshot stats in
  Alcotest.(check int) "trips counted" 2 snap.Stats.breaker_trips;
  Alcotest.(check int) "trips are not sheds" 0 snap.Stats.sheds;
  (* a session not touching the peer is unaffected *)
  (match Admission.request adm ~session:2 (fp_of "b" [ w "y" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "breaker blocked an unrelated session");
  Transport.revive (Cluster.transport cluster) ep;
  ignore (Health.probe h ep);
  match Admission.request adm ~peers:[ ep ] ~session:1 (fp_of "a" [ w "x" ]) with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "breaker still open after confirmed revival"

(* {1 Traffic} *)

let small = { Traffic.default with Traffic.sessions_per_client = 3 }

let test_traffic_deterministic () =
  let a = Traffic.run small and b = Traffic.run small in
  if a <> b then Alcotest.fail "same config+seed gave two different results"

let test_traffic_disjoint_speedup () =
  let cmp = Traffic.compare_runs Traffic.default in
  let c = cmp.Traffic.concurrent in
  Alcotest.(check int) "all sessions committed" c.Traffic.r_sessions
    c.Traffic.r_committed;
  Alcotest.(check int) "no races" 0 c.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 c.Traffic.r_proto_errors;
  Alcotest.(check int) "no validation failures" 0
    c.Traffic.r_validation_failed;
  if cmp.Traffic.speedup < 2.0 then
    Alcotest.failf
      "8 disjoint clients only reached %.2fx the serialized throughput"
      cmp.Traffic.speedup

let test_traffic_contended_queue () =
  let cfg =
    { small with Traffic.contention = Traffic.Hot;
      policy = Strategy.Queue_conflicts }
  in
  let res = Traffic.run cfg in
  Alcotest.(check int) "all sessions committed" res.Traffic.r_sessions
    res.Traffic.r_committed;
  if res.Traffic.r_queued = 0 then
    Alcotest.fail "hot contention never queued a session";
  Alcotest.(check int) "no races" 0 res.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 res.Traffic.r_proto_errors

let test_traffic_contended_abort_retry () =
  let cfg =
    { small with Traffic.contention = Traffic.Hot;
      policy = Strategy.Abort_retry }
  in
  let res = Traffic.run cfg in
  Alcotest.(check int) "all sessions committed" res.Traffic.r_sessions
    res.Traffic.r_committed;
  if res.Traffic.r_denied = 0 then
    Alcotest.fail "hot contention never denied a session";
  if res.Traffic.r_retried = 0 then
    Alcotest.fail "denied sessions were never credited as retried";
  Alcotest.(check int) "no races" 0 res.Traffic.r_race_errors;
  Alcotest.(check int) "no protocol violations" 0 res.Traffic.r_proto_errors

(* A rate that is not positive and finite would give infinite or
   negative inter-arrival gaps (an [inf] makespan, [nan] percentiles):
   the job generator refuses it up front. *)
let test_traffic_rejects_rate () =
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Traffic: rate must be positive and finite")
        (fun () -> ignore (Traffic.run { small with Traffic.rate })))
    [ 0.0; -5.0; Float.infinity; Float.nan ]

(* Every field of every open-loop result, floats printed exactly
   ([%h]), digested over a run set that exercises queueing, denials,
   sheds, breaker trips and crash recovery: the scheduler shared by
   [Traffic.run] and [Soak.run] may be restructured, but not change a
   single result. *)
let traffic_fields (r : Traffic.result) =
  Printf.sprintf "%d %d %d %h %h %h %h %h %d %d %d %d %d %d %d\n"
    r.Traffic.r_sessions r.Traffic.r_committed r.Traffic.r_aborted
    r.Traffic.r_makespan r.Traffic.r_throughput r.Traffic.r_p50
    r.Traffic.r_p95 r.Traffic.r_p99 r.Traffic.r_admitted r.Traffic.r_queued
    r.Traffic.r_denied r.Traffic.r_retried r.Traffic.r_validation_failed
    r.Traffic.r_race_errors r.Traffic.r_proto_errors

let soak_fields (r : Soak.result) =
  Printf.sprintf
    "%d %d %d %d %d %h %h %h %h %h %h %d %d %d %d %d %d %d %d %d %d %d %d\n"
    r.Soak.s_sessions r.Soak.s_committed r.Soak.s_failed r.Soak.s_aborts
    r.Soak.s_recovered r.Soak.s_completion r.Soak.s_makespan
    r.Soak.s_throughput r.Soak.s_p50 r.Soak.s_p95 r.Soak.s_p99
    r.Soak.s_crashes r.Soak.s_revives r.Soak.s_heartbeats
    r.Soak.s_suspicions r.Soak.s_sheds r.Soak.s_breaker_trips
    r.Soak.s_recoveries r.Soak.s_queued r.Soak.s_retried
    r.Soak.s_validation_failed r.Soak.s_race_errors r.Soak.s_proto_errors

let open_loop_fingerprint = "96ab1a75c1070acbb79982dfc9458b5b"

let test_open_loop_fingerprint () =
  let buf = Buffer.create 8192 in
  let traffic =
    List.init 7 (fun seed ->
        { Traffic.default with Traffic.seed; sessions_per_client = 2 })
    @ List.map
        (fun policy ->
          { small with Traffic.contention = Traffic.Hot; policy })
        [ Strategy.Queue_conflicts; Strategy.Abort_retry ]
  in
  let traffic_results =
    List.concat_map
      (fun cfg ->
        let cmp = Traffic.compare_runs cfg in
        [ cmp.Traffic.concurrent; cmp.Traffic.serialized ])
      traffic
  in
  let chaos seed =
    { Soak.default with Soak.seed; horizon = 40.0; crash_period = 10.0 }
  in
  let hot policy =
    {
      Soak.default with
      Soak.policy;
      contention = Traffic.Hot;
      horizon = 20.0;
      rate = 1.0;
      queue_cap = 2;
      retry_budget = 6;
    }
  in
  let soak_results =
    List.concat_map
      (fun cfg ->
        let cmp = Soak.compare_runs cfg in
        [ cmp.Soak.chaos; cmp.Soak.fault_free ])
      [
        chaos 0;
        chaos 1;
        { (chaos 1) with Soak.drop = 0.02 };
        hot Strategy.Queue_conflicts;
        hot Strategy.Abort_retry;
      ]
  in
  List.iter (fun r -> Buffer.add_string buf (traffic_fields r)) traffic_results;
  List.iter (fun r -> Buffer.add_string buf (soak_fields r)) soak_results;
  (* the pin must cover every scheduler path, or it pins nothing *)
  let sum f l = List.fold_left (fun acc r -> acc + f r) 0 l in
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "fingerprint runs never exercised %s" what)
    [
      ("queueing", sum (fun r -> r.Traffic.r_queued) traffic_results);
      ("denials", sum (fun r -> r.Traffic.r_denied) traffic_results);
      ("recovery", sum (fun r -> r.Soak.s_recovered) soak_results);
      ("sheds", sum (fun r -> r.Soak.s_sheds) soak_results);
      ("breaker trips", sum (fun r -> r.Soak.s_breaker_trips) soak_results);
    ];
  Alcotest.(check string) "open-loop results byte-identical"
    open_loop_fingerprint
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* {1 The shared counter: no lost update} *)

let test_counter_serializes () =
  List.iter
    (fun policy ->
      let o = Traffic.run_counter ~clients:6 ~seed:0 ~policy () in
      Alcotest.(check int) "every client committed" 6 o.Traffic.k_committed;
      Alcotest.(check int) "final = committed bumps" o.Traffic.k_committed
        o.Traffic.k_final;
      Alcotest.(check int) "no validation failures" 0
        o.Traffic.k_validation_failures;
      Alcotest.(check int) "no races" 0 o.Traffic.k_race_errors;
      Alcotest.(check int) "no protocol violations" 0 o.Traffic.k_proto_errors)
    [ Strategy.Queue_conflicts; Strategy.Abort_retry ]

let test_counter_chaos_detected () =
  (* bypassing admission makes the bump sessions overlap: validation
     must abort every loser (no lost update — the counter still ends at
     the committed count) and both linters must flag the overlap *)
  let o =
    Traffic.run_counter ~chaos:true ~clients:6 ~seed:0
      ~policy:Strategy.Queue_conflicts ()
  in
  Alcotest.(check int) "every client eventually committed" 6
    o.Traffic.k_committed;
  Alcotest.(check int) "final = committed bumps (no lost update)"
    o.Traffic.k_committed o.Traffic.k_final;
  if o.Traffic.k_validation_failures = 0 then
    Alcotest.fail "overlapping bumps never failed validation";
  if o.Traffic.k_race_errors = 0 then
    Alcotest.fail "Race_lint missed the chaos-admitted overlap (CC101)";
  if o.Traffic.k_proto_errors = 0 then
    Alcotest.fail "the protocol linter missed the overlap (SP008)"

(* {1 The chaos soak: recovery and overload protection, end to end} *)

(* A scaled-down chaos config that still exercises the full recovery
   path: two crash/revive cycles inside the horizon, drops on, recovery
   demonstrably fired (pinned by seed 0's schedule). *)
let soak_chaos =
  { Soak.default with Soak.horizon = 80.0; crash_period = 20.0 }

let test_soak_deterministic () =
  let a = Soak.run soak_chaos and b = Soak.run soak_chaos in
  if a <> b then Alcotest.fail "same config gave two different soak results"

let test_soak_recovery () =
  let r = Soak.run soak_chaos in
  Alcotest.(check int) "every session committed" r.Soak.s_sessions
    r.Soak.s_committed;
  Alcotest.(check int) "no lost updates" 0 r.Soak.s_validation_failed;
  Alcotest.(check int) "no races" 0 r.Soak.s_race_errors;
  Alcotest.(check int) "no protocol violations" 0 r.Soak.s_proto_errors;
  if r.Soak.s_crashes = 0 then Alcotest.fail "chaos schedule never ran";
  Alcotest.(check int) "every crash revived" r.Soak.s_crashes
    r.Soak.s_revives;
  if r.Soak.s_heartbeats = 0 then
    Alcotest.fail "the failure detector never probed";
  if r.Soak.s_recovered = 0 then
    Alcotest.fail "no session aborted by a crash was replayed to commit";
  Alcotest.(check int) "Stats.recoveries agrees" r.Soak.s_recovered
    r.Soak.s_recoveries;
  if r.Soak.s_breaker_trips = 0 then
    Alcotest.fail "the circuit breaker never held a session back"

let test_soak_overload_sheds () =
  (* deliberately overloaded: hot contention against a tiny queue and
     budget. The controller must shed (typed, counted), never corrupt —
     and the accounting must close: every session either committed or
     was abandoned by its client. *)
  let cfg =
    {
      Soak.default with
      Soak.contention = Traffic.Hot;
      horizon = 60.0;
      rate = 1.0;
      crash_period = 16.0;
      queue_cap = 2;
      retry_budget = 6;
    }
  in
  List.iter
    (fun policy ->
      let r = Soak.run { cfg with Soak.policy } in
      if r.Soak.s_sheds = 0 then
        Alcotest.fail "overload never shed a session";
      Alcotest.(check int) "accounting closes" r.Soak.s_sessions
        (r.Soak.s_committed + r.Soak.s_failed);
      Alcotest.(check int) "no lost updates" 0 r.Soak.s_validation_failed;
      Alcotest.(check int) "no races" 0 r.Soak.s_race_errors;
      Alcotest.(check int) "no protocol violations" 0 r.Soak.s_proto_errors)
    [ Strategy.Queue_conflicts; Strategy.Abort_retry ]

let test_soak_baseline_fault_free () =
  (* the fault-free baseline installs no fault plan and no detector:
     zero heartbeats, zero suspicions, zero chaos *)
  let b = Soak.baseline soak_chaos in
  Alcotest.(check int) "no crashes" 0 b.Soak.s_crashes;
  Alcotest.(check int) "no heartbeats" 0 b.Soak.s_heartbeats;
  Alcotest.(check int) "no suspicions" 0 b.Soak.s_suspicions;
  Alcotest.(check int) "no aborts" 0 b.Soak.s_aborts;
  Alcotest.(check int) "every session committed" b.Soak.s_sessions
    b.Soak.s_committed

(* The soak refuses the generator's bad rates too, and a horizon that
   would offer no sessions (a vacuous 100% completion) or never end. *)
let test_soak_rejects_rate_horizon () =
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Soak: rate must be positive and finite") (fun () ->
      ignore (Soak.run { soak_chaos with Soak.rate = 0.0; horizon = 10.0 }));
  List.iter
    (fun horizon ->
      Alcotest.check_raises
        (Printf.sprintf "horizon %g" horizon)
        (Invalid_argument "Soak: horizon must be positive and finite")
        (fun () -> ignore (Soak.run { soak_chaos with Soak.horizon })))
    [ 0.0; -3.0; Float.infinity ]

(* {1 Single-session byte identity} *)

(* The traces of five unfaulted legacy-mode checker runs, one line per
   seed: the strategy the generator drew, the trace's event count and
   the digest of its pp'd text. Seeds 0, 3, 4 and 6 are the bytes the
   tree produced before concurrent admission existed; sessions that
   never opt into [Session.set_concurrent] must keep producing them.
   Seed 2 draws delta coherency (strategy 9), so it moves with the
   delta encoding. *)
let single_session_pins =
  [
    "seed 0: strategy 7, 223 events, 112c8c51f135fb43c8889ea6a2b15969";
    "seed 2: strategy 9, 2313 events, ad49dff17ae180716645c38a7f140066";
    "seed 3: strategy 1, 2212 events, b37af6e0f2d055db570744eb0879b82b";
    "seed 4: strategy 2, 232 events, 72b064e7a4dbc65d5554adc921b9dd96";
    "seed 6: strategy 6, 2299 events, 6127a8e5f5d47f85b2c70febd0de47f4";
  ]

let test_single_session_fingerprint () =
  let got =
    List.map
      (fun seed ->
        let script = Gen.script ~seed ~depth:12 ~fault:None in
        let plan = Script.resolve script in
        let out = Interp.run plan in
        Printf.sprintf "seed %d: strategy %d, %d events, %s" seed
          plan.Script.p_strategy
          (List.length (Trace.events out.Interp.trace))
          (Digest.to_hex
             (Digest.string (Format.asprintf "%a" Trace.pp out.Interp.trace))))
      [ 0; 2; 3; 4; 6 ]
  in
  Alcotest.(check (list string)) "single-session traces, per seed"
    single_session_pins got

(* The four coherency paths — full or delta encoding, direct or staged
   (fault-plan) delivery — each pinned by the digest of 40 seeded
   depth-40 traces, plus one directed trace for the delta pins.
   Strategy 0 is full encoding, strategy 8 delta. *)
let coherency_pins =
  [
    (0, false, "1d5b49d3d59d648440ba2d8c5668248a");
    (0, true, "52c3380211403a83b6c0f877cbaff725");
    (8, false, "f4e51bd3eb760f26d240e003a8fdb1e8");
    (8, true, "a3065293c483e07a628a46905f6c08ef");
  ]

(* The delta pins add one directed trace to their 40 seeds: the ground
   appends two worker-homed cells, a call ships them home (so the
   ground's copy shares its shadow with the home), and a ground-local
   write to the first cell closes as a non-empty delta. Of the generated
   seeds only seed 36 stages a delta at the close, and only an empty
   one, so without this trace the delta x staged cell would rest on a
   delta that carries nothing. *)
let delta_close_script fault =
  {
    Script.workers = 1;
    arches = [ 0 ];
    strategy = 8;
    fault;
    ops =
      [
        Script.Build_list [ 1; 2 ];
        Script.Append { obj = 0; home = 1; values = [ 5; 6 ] };
        Script.Build_list [ 3 ];
        Script.Sum { worker = 0; obj = 1 };
        Script.Local_update { obj = 0; idx = 2; delta = 1 };
      ];
  }

(* frames the pins must have exercised, so they cannot pass vacuously *)
let pinned_frames =
  [
    "write-back"; "wb-stage"; "wb-commit"; "wb-delta+inv"; "wb-stage-delta";
    "call-d"; "return-d";
  ]

let test_coherency_fingerprints () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (strategy, faulty, want) ->
      let fault seed =
        if faulty then Some { Script.fseed = seed; drop = 0.01; dup = 0.005 }
        else None
      in
      let generated =
        List.init 40 (fun seed ->
            { (Gen.script ~seed ~depth:40 ~fault:(fault seed)) with Script.strategy })
      in
      let directed = if strategy = 8 then [ delta_close_script (fault 40) ] else [] in
      let buf = Buffer.create 65536 in
      List.iter
        (fun script ->
          let out = Interp.run (Script.resolve script) in
          List.iter
            (fun (e : Trace.event) -> Hashtbl.replace seen e.Trace.label ())
            (Trace.events out.Interp.trace);
          Buffer.add_string buf (Format.asprintf "%a" Trace.pp out.Interp.trace))
        (generated @ directed);
      let got = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      Alcotest.(check string)
        (Printf.sprintf "strategy %d, faults %b: traces byte-identical"
           strategy faulty)
        want got)
    coherency_pins;
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " frames exercised") true
        (Hashtbl.mem seen label))
    pinned_frames

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "traffic"
    [
      ( "admission",
        [
          tc "disjoint footprints admit" `Quick test_admission_disjoint;
          tc "conflicts queue FIFO, no barging" `Quick
            test_admission_queue_fifo;
          tc "abort-retry denies then admits" `Quick
            test_admission_abort_retry;
          tc "optimistic validation" `Quick test_admission_validation;
          tc "capped exponential backoff" `Quick test_backoff;
        ] );
      ( "overload",
        [
          tc "bounded queue sheds" `Quick test_admission_queue_cap;
          tc "retry budget sheds" `Quick test_admission_retry_budget;
          tc "health probe ladder" `Quick test_health_ladder;
          tc "health folds trace marks" `Quick test_health_observe;
          tc "circuit breaker holds until revival" `Quick
            test_admission_breaker;
        ] );
      ( "traffic",
        [
          tc "runs are deterministic" `Quick test_traffic_deterministic;
          tc "8 disjoint clients >= 2x serialized" `Quick
            test_traffic_disjoint_speedup;
          tc "hot contention queues" `Quick test_traffic_contended_queue;
          tc "hot contention abort-retries" `Quick
            test_traffic_contended_abort_retry;
          tc "open-loop results fingerprint" `Quick
            test_open_loop_fingerprint;
          tc "rejects a bad arrival rate" `Quick
            test_traffic_rejects_rate;
        ] );
      ( "counter",
        [
          tc "admission serializes the bumps" `Quick test_counter_serializes;
          tc "chaos overlap caught, no lost update" `Quick
            test_counter_chaos_detected;
        ] );
      ( "soak",
        [
          tc "runs are deterministic" `Quick test_soak_deterministic;
          tc "crash recovery replays to commit" `Quick test_soak_recovery;
          tc "overload sheds, never corrupts" `Quick
            test_soak_overload_sheds;
          tc "fault-free baseline is chaos-free" `Quick
            test_soak_baseline_fault_free;
          tc "rejects a bad rate or horizon" `Quick
            test_soak_rejects_rate_horizon;
        ] );
      ( "identity",
        [
          tc "single-session trace fingerprint" `Quick
            test_single_session_fingerprint;
          tc "coherency paths fingerprint" `Quick test_coherency_fingerprints;
        ] );
    ]

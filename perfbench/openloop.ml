(* The two open-loop workloads, driven through the traffic layer's
   public entry points.

   traffic-disjoint  [Traffic.run]: 8 clients x 4 mixed-arch servers,
                     Poisson arrivals at 400/s per client in virtual
                     time, disjoint footprints, 1 000 sessions a run.
   soak-chaos        [Soak.run] at its default chaos (1% drop, 0.5% dup,
                     a rotating server crash every 20 virtual s), over
                     40 virtual s horizons.

   Neither entry point exposes its cluster, so the wire bytes, message
   counts, transport counters and captured frames of these workloads
   come from a serial replay: the same session scripts the harness
   generates ([Gen.session_script], seeded as the harness seeds them)
   run one at a time on a cluster of the same shape built here. *)

open Srpc_core
open Srpc_simnet
open Srpc_check
open Srpc_traffic

(* Sub-seeds are multiples of 7, so the harness picks strategy table
   entry 0 — the proposed method — for every run (it indexes its
   concurrent strategies by [seed mod 7]). *)
let subseed seed i = 7 * ((seed * 1024) + i)

let traffic_cfg ?(per_client = 125) ~seed i =
  {
    Traffic.default with
    Traffic.sessions_per_client = per_client;
    mix = [ Script.KList; Script.KTree; Script.KGraph; Script.KWide ];
    seed = subseed seed i;
  }

let soak_horizon = 40.0
let soak_cfg ~seed i = { Soak.default with Soak.seed = subseed seed i; horizon = soak_horizon }

(* What one run of either harness reports. *)
type run = {
  sessions : int;
  committed : int;
  ok : bool;  (** committed + failed = sessions, no lint or validation errors *)
  p50 : float;  (** virtual seconds *)
  p95 : float;
  p99 : float;
  throughput : float;  (** committed per virtual second *)
  counters : (string * int) list;  (** per-layer counts *)
}

let of_traffic (r : Traffic.result) =
  {
    sessions = r.r_sessions;
    committed = r.r_committed;
    ok =
      r.r_committed + r.r_aborted = r.r_sessions
      && r.r_race_errors = 0 && r.r_proto_errors = 0 && r.r_validation_failed = 0;
    p50 = r.r_p50;
    p95 = r.r_p95;
    p99 = r.r_p99;
    throughput = r.r_throughput;
    counters =
      [
        ("admission.admitted", r.r_admitted);
        ("admission.queued", r.r_queued);
        ("admission.denied", r.r_denied);
        ("admission.retried", r.r_retried);
        ("admission.validations_failed", r.r_validation_failed);
      ];
  }

let of_soak (r : Soak.result) =
  {
    sessions = r.s_sessions;
    committed = r.s_committed;
    ok =
      r.s_committed + r.s_failed = r.s_sessions
      && r.s_race_errors = 0 && r.s_proto_errors = 0 && r.s_validation_failed = 0;
    p50 = r.s_p50;
    p95 = r.s_p95;
    p99 = r.s_p99;
    throughput = r.s_throughput;
    counters =
      [
        ("admission.queued", r.s_queued);
        ("admission.retried", r.s_retried);
        ("admission.validations_failed", r.s_validation_failed);
        ("health.heartbeats", r.s_heartbeats);
        ("health.suspicions", r.s_suspicions);
        ("recovery.recoveries", r.s_recoveries);
        ("recovery.sheds", r.s_sheds);
        ("recovery.breaker_trips", r.s_breaker_trips);
      ];
  }

(* How a serial replay observes its cluster. *)
type mode =
  | Plain
  | Capture of Replay.capture  (** keep every frame for the wire replay *)
  | Oracles
      (** keep an always-on trace, as the harness does, and time the two
          oracles the harness runs over it *)

type replayed = {
  stats : Stats.snapshot;
  replayed : int;  (** sessions *)
  oracle_share : float;
      (** [Oracles] mode: share of replay plus oracle time spent in
          [Race_lint.check] and [Proto_lint.check] *)
}

type workload = {
  run : int -> run;  (** the [i]-th run of this seed *)
  wall_run : (int -> run) option;
      (** a shorter run for wall-clock timing, when a [run] lasts too
          long to calibrate (see [Calib]) *)
  replay : mode -> replayed;
}

(* ---- serial replay ---- *)

(* The harness's cluster shape: client grounds at sites 1..C, servers
   after them on the interpreter's architecture pool, one strategy. *)
let replay_cluster ~clients ~servers ~fault =
  let cluster = Cluster.create () in
  let strategy = Interp.strategy_table.(Gen.concurrent_strategies.(0)) in
  let grounds =
    Array.init clients (fun c -> Cluster.add_node cluster ~site:(c + 1) ~strategy ())
  in
  let servers =
    List.init servers (fun s ->
        Cluster.add_node cluster ~site:(clients + 1 + s)
          ~arch:Interp.arch_table.(s mod Array.length Interp.arch_table)
          ~strategy ())
  in
  Srpc_workloads.Linked_list.register_types cluster;
  Srpc_workloads.Tree.register_types cluster;
  Srpc_workloads.Graph.register_types cluster;
  Srpc_workloads.Matrix.register_types cluster;
  Array.iter (fun g -> Interp.register_procs ~ground:g servers) grounds;
  (match fault with
  | None -> ()
  | Some (seed, drop, dup) ->
    let fp = Fault_plan.create ~seed () in
    Fault_plan.set_global fp (Fault_plan.profile ~drop ~duplicate:dup ());
    Cluster.install_faults cluster fp);
  (cluster, grounds, servers)

(* Replays the first [per_client] sessions of every client of each
   harness configuration in [cfgs], as the harness seeds them, on one
   cluster per configuration. *)
let replay_sessions mode cfgs ~clients ~servers ~mix ~depth ~fault ~per_client =
  let stats = ref Stats.zero and n = ref 0 and run_ns = ref 0 and oracle_ns = ref 0 in
  List.iter
    (fun seed ->
      let cluster, grounds, server_list = replay_cluster ~clients ~servers ~fault:(fault seed) in
      let trace = Trace.create () in
      (match mode with
      | Plain -> ()
      | Capture cap -> Replay.attach cap cluster
      | Oracles -> Transport.set_trace (Cluster.transport cluster) (Some trace));
      let t0 = Span.now () in
      let nserv = List.length server_list in
      let s0 = Cluster.snapshot cluster in
      for c = 0 to clients - 1 do
        let rotated = List.init nserv (fun i -> List.nth server_list ((i + c) mod nserv)) in
        for s = 0 to per_client - 1 do
          let kind = List.nth mix ((c + s) mod List.length mix) in
          let plan =
            Script.resolve
              (Gen.session_script
                 ~seed:((seed * 7919) + (c * 104729) + s)
                 ~depth ~workers:(min 3 servers) ~kind ~fault:None)
          in
          let workers = List.filteri (fun i _ -> i < plan.Script.p_workers) rotated in
          let env = Interp.make_env ~cluster ~ground:grounds.(c) ~workers in
          (try
             Node.with_session grounds.(c) (fun () ->
                 List.iter (fun rop -> ignore (Interp.exec_rop env rop)) plan.Script.p_rops)
           with Session.Session_aborted _ -> ());
          incr n
        done
      done;
      let t1 = Span.now () in
      (match mode with
      | Oracles ->
        ignore (Srpc_analysis.Race_lint.check trace);
        ignore (Srpc_analysis.Proto_lint.check trace);
        oracle_ns := !oracle_ns + (Span.now () - t1)
      | Plain | Capture _ -> ());
      run_ns := !run_ns + (t1 - t0);
      Transport.set_trace (Cluster.transport cluster) None;
      stats := Stat.add_stats !stats (Stats.diff (Cluster.snapshot cluster) s0))
    cfgs;
  {
    stats = !stats;
    replayed = !n;
    oracle_share = float_of_int !oracle_ns /. float_of_int (max 1 (!run_ns + !oracle_ns));
  }

let traffic ~seed =
  let cfg = traffic_cfg ~seed 0 in
  {
    run = (fun i -> of_traffic (Traffic.run (traffic_cfg ~seed i)));
    wall_run = Some (fun i -> of_traffic (Traffic.run (traffic_cfg ~per_client:8 ~seed i)));
    replay =
      (fun mode ->
        replay_sessions mode
          (List.init 8 (fun i -> (traffic_cfg ~seed i).seed))
          ~clients:cfg.clients ~servers:cfg.servers ~mix:cfg.mix ~depth:cfg.depth
          ~fault:(fun _ -> None) ~per_client:64);
  }

let soak ~seed =
  let cfg = soak_cfg ~seed 0 in
  {
    run = (fun i -> of_soak (Soak.run (soak_cfg ~seed i)));
    wall_run = None;
    replay =
      (fun mode ->
        replay_sessions mode
          (List.init 16 (fun i -> (soak_cfg ~seed i).seed))
          ~clients:cfg.clients ~servers:cfg.servers ~mix:cfg.mix ~depth:cfg.depth
          ~fault:(fun s -> Some (s, cfg.drop, cfg.dup))
          ~per_client:64);
  }

(* The set-up an open-loop run pays before its first session: a cluster
   of the harness's shape with types and procedures registered. *)
let setup ~clients ~servers = ignore (replay_cluster ~clients ~servers ~fault:None)

(* srpc-traffic: the open-loop concurrent-session traffic generator.

   A thin caller of the open-loop scheduler in [Driver]: a fixed number
   of sessions per client, admission with no caps, no health detector,
   no timed events and no give-up bound. The serialized baseline
   replays the same sessions on one accumulated timeline, so

     speedup = concurrent throughput / serialized throughput

   approaches the client count for admission-disjoint workloads (the
   bench gate demands >= 2x at 8 clients) and ~1 when every session
   contends the same datum root. *)

open Srpc_core
open Srpc_simnet
open Srpc_analysis
open Srpc_check

type contention = Disjoint | Hot

type config = {
  clients : int;  (** client (per-session ground) nodes, >= 1 *)
  servers : int;  (** server (worker) nodes, 2..8 *)
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;  (** workload kinds cycled across sessions *)
  sessions_per_client : int;
  depth : int;  (** ops per session script *)
  seed : int;
  policy : Strategy.admission_policy;
  contention : contention;
}

let default =
  {
    clients = 8;
    servers = 4;
    rate = 400.0;
    mix = [ Script.KList; Script.KTree ];
    sessions_per_client = 4;
    depth = 6;
    seed = 0;
    policy = Strategy.Queue_conflicts;
    contention = Disjoint;
  }

type result = {
  r_sessions : int;
  r_committed : int;
  r_aborted : int;
  r_makespan : float;  (** virtual seconds, max over client timelines *)
  r_throughput : float;  (** committed sessions per virtual second *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_admitted : int;
  r_queued : int;
  r_denied : int;
  r_retried : int;
  r_validation_failed : int;
  r_race_errors : int;
  r_proto_errors : int;
}

let contention_name = function Disjoint -> "disjoint" | Hot -> "hot"

(* the installation, its arrivals (a fixed count per client) and an
   admission controller with no caps *)
let build cfg =
  let spec =
    {
      Driver.name = "Traffic";
      clients = cfg.clients;
      servers = cfg.servers;
      seed = cfg.seed;
      rate = cfg.rate;
      mix = cfg.mix;
      depth = cfg.depth;
      hot = cfg.contention = Hot;
      count = cfg.sessions_per_client;
      horizon = infinity;
    }
  in
  let setup = Driver.setup spec in
  let stats = Cluster.stats setup.Driver.cluster in
  (spec, setup, Admission.create ~policy:cfg.policy stats)

let finish_result setup (t : Driver.tally) =
  let snap = Cluster.snapshot setup.Driver.cluster in
  let r_p50, r_p95, r_p99 = Driver.percentiles t.latencies in
  let r_race_errors, r_proto_errors = Driver.lint_errors setup in
  {
    r_sessions = t.sessions;
    r_committed = t.committed;
    r_aborted = t.aborts;
    r_makespan = t.makespan;
    r_throughput = Driver.throughput t;
    r_p50;
    r_p95;
    r_p99;
    r_admitted = snap.Stats.sessions_admitted;
    r_queued = snap.Stats.sessions_queued;
    r_denied = snap.Stats.sessions_aborted;
    r_retried = snap.Stats.sessions_retried;
    r_validation_failed = snap.Stats.validations_failed;
    r_race_errors;
    r_proto_errors;
  }

exception Stuck = Driver.Stuck

let run cfg =
  let spec, setup, adm = build cfg in
  finish_result setup
    (Driver.run spec setup adm ~fuel:(fun sessions ->
         (sessions * (cfg.depth + 16) * 8) + 256))

(* The serialized baseline: the same jobs, replayed one session at a
   time on ONE accumulated timeline — what the paper's one-session
   cluster would do with this offered load. *)
let run_serialized cfg =
  let spec, setup, adm = build cfg in
  let cluster = setup.Driver.cluster in
  let jobs =
    List.concat
      (List.init cfg.clients (fun c ->
           List.map (fun j -> (c, j)) (Driver.jobs spec ~client:c)))
    |> List.stable_sort (fun (_, a) (_, b) ->
           compare a.Driver.j_arrival b.Driver.j_arrival)
  in
  let tl = ref 0.0 in
  let committed = ref 0 and aborted = ref 0 and latencies = ref [] in
  List.iter
    (fun (c, { Driver.j_arrival; j_plan }) ->
      tl := Float.max !tl j_arrival;
      let arrival = !tl in
      let ground = setup.Driver.grounds.(c) in
      let env =
        Interp.make_env ~cluster ~ground
          ~workers:
            (Driver.rotated_servers setup ~client:c
               ~count:j_plan.Script.p_workers)
      in
      let id = Node.reserve_session ground in
      match
        Node.request_admission ground adm ~id
          ~footprint:(Driver.footprint spec ~client:c)
      with
      | Admission.Queued | Admission.Denied | Admission.Overloaded _ ->
        (* nothing else is open on the serial timeline *)
        assert false
      | Admission.Admitted -> (
        let t0 = Cluster.now cluster in
        match
          List.iter (fun rop -> ignore (Interp.exec_rop env rop))
            j_plan.Script.p_rops;
          Node.end_session_validated ground adm
        with
        | `Committed, _ ->
          tl := !tl +. (Cluster.now cluster -. t0);
          incr committed;
          latencies := (!tl -. arrival) :: !latencies
        | `Validation_failed, _ -> incr aborted
        | exception Session.Session_aborted _ ->
          tl := !tl +. (Cluster.now cluster -. t0);
          incr aborted;
          ignore (Admission.close ~committed:false adm ~session:id)))
    jobs;
  finish_result setup
    {
      Driver.sessions = List.length jobs;
      committed = !committed;
      failed = 0;
      aborts = !aborted;
      recovered = 0;
      makespan = !tl;
      latencies = !latencies;
    }

type comparison = {
  concurrent : result;
  serialized : result;
  speedup : float;
}

let compare_runs cfg =
  let concurrent = run cfg in
  let serialized = run_serialized cfg in
  let speedup =
    if serialized.r_throughput > 0.0 then
      concurrent.r_throughput /. serialized.r_throughput
    else 0.0
  in
  { concurrent; serialized; speedup }

(* {1 The shared-counter workload}

   The no-lost-update oracle in its purest form: one integer cell homed
   on a server, every client session reads it, bumps it and writes it
   back at close. Correct admission serializes the sessions, so the
   final value equals the committed-session count; with
   [Node.chaos_admit_conflicting] the sessions overlap and the close
   validation must fail every loser (who retries under a fresh id)
   while Race_lint (CC101) and the protocol linter (SP008) flag the
   overlap. *)

type counter_outcome = {
  k_clients : int;
  k_committed : int;
  k_final : int;
  k_validation_failures : int;
  k_race_errors : int;
  k_proto_errors : int;
}

let run_counter ?(chaos = false) ~clients ~seed ~policy () =
  if clients < 1 then invalid_arg "Traffic.run_counter: clients >= 1";
  ignore seed;
  let cluster = Cluster.create () in
  Session.set_concurrent (Cluster.session cluster) true;
  let strategy = Interp.strategy_table.(0) in
  let grounds =
    Array.init clients (fun c ->
        Cluster.add_node cluster ~site:(c + 1) ~strategy ())
  in
  let server = Cluster.add_node cluster ~site:(clients + 1) ~strategy () in
  Srpc_workloads.Linked_list.register_types cluster;
  let head = Srpc_workloads.Linked_list.build server [ 0 ] in
  Node.register server "tf_head" (fun _node _args ->
      [ Access.to_value head ]);
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let adm = Admission.create ~policy (Cluster.stats cluster) in
  let fp c =
    Footprint.session
      ~label:(Printf.sprintf "counter[c%d]" c)
      [ { Footprint.root = "ctr"; path = "*"; mode = Footprint.Write } ]
  in
  let committed = ref 0 in
  let saved_chaos = !Node.chaos_admit_conflicting in
  Node.chaos_admit_conflicting := chaos;
  Fun.protect
    ~finally:(fun () -> Node.chaos_admit_conflicting := saved_chaos)
    (fun () ->
      (* per-client state machine: Request -> Fetch -> Bump -> Close *)
      let stage = Array.make clients `Request in
      let sid = Array.make clients (-1) in
      let ptr = Array.make clients None in
      let start c id =
        sid.(c) <- id;
        stage.(c) <- `Fetch
      in
      let drain waiters =
        List.iter
          (fun (id, _) ->
            let c =
              match
                Array.to_list (Array.mapi (fun i s -> (i, s)) sid)
                |> List.find_opt (fun (_, s) -> s = id)
              with
              | Some (i, _) -> i
              | None -> invalid_arg "counter: unknown drained session"
            in
            Node.start_admitted grounds.(c) ~id;
            start c id)
          waiters
      in
      let step c =
        let g = grounds.(c) in
        match stage.(c) with
        | `Done -> ()
        | `Request -> (
          let id = Node.reserve_session g in
          sid.(c) <- id;
          match Node.request_admission g adm ~id ~footprint:(fp c) with
          | Admission.Admitted -> start c id
          | Admission.Queued -> stage.(c) <- `Parked
          | Admission.Denied | Admission.Overloaded _ ->
            stage.(c) <- `Rerequest)
        | `Rerequest -> (
          (* denied-policy retries keep their reserved id, so the
             controller's deferred table credits sessions_retried *)
          match
            Node.request_admission g adm ~id:sid.(c) ~footprint:(fp c)
          with
          | Admission.Admitted -> start c sid.(c)
          | Admission.Queued -> stage.(c) <- `Parked
          | Admission.Denied | Admission.Overloaded _ ->
            stage.(c) <- `Rerequest)
        | `Parked -> ()
        | `Fetch ->
          let v = Node.call g ~dst:(Node.id server) "tf_head" [] in
          ptr.(c) <- Some (Access.of_value (List.hd v));
          stage.(c) <- `Bump
        | `Bump ->
          let p = Option.get ptr.(c) in
          let cell = Srpc_workloads.Linked_list.nth g p 0 in
          let v = Access.get_int g cell ~field:"value" in
          Access.set_int g cell ~field:"value" (v + 1);
          stage.(c) <- `Close
        | `Close -> (
          match Node.end_session_validated g adm with
          | `Committed, waiters ->
            incr committed;
            stage.(c) <- `Done;
            drain waiters
          | `Validation_failed, waiters ->
            drain waiters;
            stage.(c) <- `Request (* retry under a fresh id *))
      in
      let fuel = ref ((clients * clients * 8) + 64) in
      let all_done () = Array.for_all (fun s -> s = `Done) stage in
      while not (all_done ()) do
        decr fuel;
        if !fuel < 0 then raise Stuck;
        for c = 0 to clients - 1 do
          step c
        done
      done);
  let cell = Srpc_workloads.Linked_list.nth server head 0 in
  let final = Access.get_int server cell ~field:"value" in
  let snap = Cluster.snapshot cluster in
  let errors ds = List.length (List.filter Diagnostic.is_error ds) in
  {
    k_clients = clients;
    k_committed = !committed;
    k_final = final;
    k_validation_failures = snap.Stats.validations_failed;
    k_race_errors = errors (Race_lint.check trace);
    k_proto_errors = errors (Proto_lint.check trace);
  }

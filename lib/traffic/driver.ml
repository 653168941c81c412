(* The open-loop scheduler behind both [Traffic.run] and [Soak.run].

   N client nodes (each the ground of its own sessions) drive a pool of
   server nodes through the admission controller. Arrivals are Poisson
   in VIRTUAL time: all randomness flows through the seeded splitmix in
   [Rng], and time is the simulation's cost-model clock, so one spec
   names one exact execution on every machine.

   The cluster has ONE virtual clock (the simulation is single
   threaded). The scheduler always steps the live client with the
   earliest private timeline, runs one resolved op and charges its
   clock delta to that client alone; concurrent clients therefore
   overlap in logical time exactly as N independent machines would,
   while the execution interleaves op-atomically — the same soundness
   argument as the weave checker.

   Sessions come from [Gen.session_script] and execute through
   [Interp.exec_rop], the model checker's own interpreter, so traffic
   can never drift from checked op semantics; Race_lint and the
   protocol linter run over the full trace as standing oracles.

   Each client journals its session's resolved op stream. A session
   aborted mid-flight (a crash) or failed by close-time validation
   re-admits under a fresh id and replays the journal from the top:
   the abort committed nothing, so replay-once is exactly-once.

   What a harness adds on top — a health detector, timed events (the
   soak's crash/revive schedule), a give-up bound and its fuel budget —
   is passed in; the table in docs/TRAFFIC.md lists what each sets. *)

open Srpc_core
open Srpc_memory
open Srpc_simnet
open Srpc_analysis
open Srpc_check

exception Stuck

(* What both harnesses configure alike: the installation's shape, the
   arrival stream and the footprint contention. *)
type spec = {
  name : string;  (** "Traffic" or "Soak": error prefix, footprint label *)
  clients : int;
  servers : int;
  seed : int;
  rate : float;
  mix : Script.kind list;
  depth : int;
  hot : bool;  (** every session writes one shared root *)
  count : int;  (** each client's arrivals stop after [count] sessions... *)
  horizon : float;  (** ...or at this virtual instant, whichever is first *)
}

(* The simulated installation: one cluster, client grounds at sites
   1..C, servers at sites C+1.., heterogeneous server architectures,
   one concurrent-mode strategy for everyone, the full trace recorded
   for the linters. *)
type setup = {
  cluster : Cluster.t;
  grounds : Node.t array;
  servers : Node.t list;
  trace : Trace.t;
}

let setup spec =
  if spec.clients < 1 then invalid_arg (spec.name ^ ": clients must be >= 1");
  if spec.servers < 2 || spec.servers > 8 then
    invalid_arg (spec.name ^ ": servers must be in 2..8");
  let cluster = Cluster.create () in
  Session.set_concurrent (Cluster.session cluster) true;
  let strategies = Gen.concurrent_strategies in
  let strategy =
    Interp.strategy_table.(strategies.(abs spec.seed
                                       mod Array.length strategies))
  in
  let grounds =
    Array.init spec.clients (fun c ->
        Cluster.add_node cluster ~site:(c + 1) ~strategy ())
  in
  let servers =
    List.init spec.servers (fun s ->
        Cluster.add_node cluster
          ~site:(spec.clients + 1 + s)
          ~arch:Interp.arch_table.(s mod Array.length Interp.arch_table)
          ~strategy ())
  in
  Srpc_workloads.Linked_list.register_types cluster;
  Srpc_workloads.Tree.register_types cluster;
  Srpc_workloads.Graph.register_types cluster;
  Srpc_workloads.Matrix.register_types cluster;
  Array.iter (fun g -> Interp.register_procs ~ground:g servers) grounds;
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  { cluster; grounds; servers; trace }

let endpoint node = Space_id.to_string (Node.id node)

(* Each client sees the server pool rotated by its own index, so load
   spreads without any client-to-server affinity logic. *)
let rotated_servers setup ~client ~count =
  let n = List.length setup.servers in
  List.init (min count n) (fun i ->
      List.nth setup.servers ((i + client) mod n))

(* One pre-generated session: arrival instant on its client's timeline
   plus the resolved plan. The offered load is open loop: it never
   reacts to queueing or outages. *)
type job = { j_arrival : float; j_plan : Script.plan }

let jobs spec ~client =
  if not (spec.rate > 0.0 && Float.is_finite spec.rate) then
    invalid_arg (spec.name ^ ": rate must be positive and finite");
  let arr_rng = Rng.create (spec.seed lxor ((client + 1) * 0x9e3779b9)) in
  let mixn = max 1 (List.length spec.mix) in
  let rec go s t acc =
    if s >= spec.count then List.rev acc
    else
      let u = min 0.999_999 (Rng.float arr_rng) in
      let t = t +. (-.log (1.0 -. u) /. spec.rate) in
      if t >= spec.horizon then List.rev acc
      else
        let kind =
          if spec.mix = [] then Script.KList
          else List.nth spec.mix ((client + s) mod mixn)
        in
        let script =
          Gen.session_script
            ~seed:((spec.seed * 7919) + (client * 104729) + s)
            ~depth:spec.depth
            ~workers:(min 3 spec.servers)
            ~kind ~fault:None
        in
        go (s + 1) t ({ j_arrival = t; j_plan = Script.resolve script } :: acc)
  in
  go 0 0.0 []

let footprint spec ~client =
  let root = if spec.hot then "hot" else Printf.sprintf "client%d" client in
  Footprint.session
    ~label:
      (Printf.sprintf "%s[c%d]" (String.lowercase_ascii spec.name) client)
    [ { Footprint.root; path = "*"; mode = Footprint.Write } ]

(* p50, p95 and p99 of a latency sample *)
let percentiles latencies =
  let lat = Array.of_list latencies in
  Array.sort compare lat;
  let n = Array.length lat in
  let at p =
    if n = 0 then 0.0
    else lat.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  in
  (at 0.50, at 0.95, at 0.99)

(* [Race_lint] and [Proto_lint] error counts over the full trace *)
let lint_errors setup =
  let errors ds = List.length (List.filter Diagnostic.is_error ds) in
  (errors (Race_lint.check setup.trace), errors (Proto_lint.check setup.trace))

type cstate = Idle | Backoff | Running | Parked | Done

(* [cur_total] counts admission requests across recovery cycles (the
   give-up bound); [cur_attempt] drives the backoff ladder. *)
type current = {
  mutable cur_id : int;
  cur_env : Interp.env;
  cur_arrival : float;  (** original arrival: recovery time counts *)
  cur_journal : Script.rop list;
  mutable cur_rops : Script.rop list;
  mutable cur_attempt : int;
  mutable cur_total : int;
  mutable cur_recovering : bool;  (** aborted at least once *)
}

type client = {
  cl_idx : int;
  cl_ground : Node.t;
  cl_fp : Footprint.t;
  mutable cl_peers : string list;  (** this session's server endpoints *)
  mutable cl_time : float;
  mutable cl_state : cstate;
  mutable cl_jobs : job list;
  mutable cl_current : current option;
}

type tally = {
  sessions : int;
  committed : int;
  failed : int;  (** abandoned after [give_up] admission requests *)
  aborts : int;  (** mid-session aborts, each replayed *)
  recovered : int;  (** sessions committed after at least one abort *)
  makespan : float;  (** virtual seconds, max over client timelines *)
  latencies : float list;  (** per committed session, virtual seconds *)
}

(* committed sessions per virtual second *)
let throughput t =
  if t.makespan > 0.0 then float_of_int t.committed /. t.makespan else 0.0

(* [run spec setup adm] drives every client's sessions to commit (or
   abandonment) and tallies them. [health] is consulted before each
   request and probes the session's unavailable peers; [events] are
   (virtual instant, action) pairs in time order, fired as the earliest
   live timeline crosses them; [give_up] bounds a session's admission
   requests; [fuel] maps the session count to the step budget. *)
let run ?health ?give_up ?(events = []) ~fuel spec setup adm =
  let cluster = setup.cluster in
  let committed = ref 0
  and failed = ref 0
  and aborts = ref 0
  and recovered = ref 0
  and latencies = ref [] in
  let clients =
    Array.mapi
      (fun c ground ->
        {
          cl_idx = c;
          cl_ground = ground;
          cl_fp = footprint spec ~client:c;
          cl_peers = [];
          cl_time = 0.0;
          cl_state = Idle;
          cl_jobs = jobs spec ~client:c;
          cl_current = None;
        })
      setup.grounds
  in
  let cursor = ref 0 in
  let observe_health () =
    Option.iter
      (fun h -> cursor := Health.observe h setup.trace ~from:!cursor)
      health
  in
  let find_by_sid sid =
    let running cl =
      match cl.cl_current with Some cur -> cur.cur_id = sid | None -> false
    in
    match Array.find_opt running clients with
    | Some cl -> cl
    | None -> invalid_arg (spec.name ^ ": drain admitted an unknown session")
  in
  (* A drained waiter resumes no earlier than the close that unblocked
     it: its logical clock jumps to the closer's. *)
  let start_waiters ~closer waiters =
    List.iter
      (fun (sid, _fp) ->
        let cl = find_by_sid sid in
        Node.start_admitted cl.cl_ground ~id:sid;
        cl.cl_time <- Float.max cl.cl_time closer.cl_time;
        cl.cl_state <- Running)
      waiters
  in
  let finish_session cl =
    cl.cl_current <- None;
    cl.cl_jobs <- List.tl cl.cl_jobs;
    cl.cl_state <- Idle
  in
  (* Re-probe this session's unavailable peers before asking again:
     heartbeats keep flowing while the breaker holds, and the first
     answered probe after the revival releases it. *)
  let probe_dead cl =
    Option.iter
      (fun h ->
        List.iter
          (fun e ->
            if not (Health.available h e) then ignore (Health.probe h e))
          cl.cl_peers)
      health
  in
  let backoff cl cur ~base =
    cur.cur_attempt <- cur.cur_attempt + 1;
    cl.cl_time <-
      cl.cl_time
      +. Admission.backoff_delay ~session:cur.cur_id ~attempt:cur.cur_attempt
           ~base;
    cl.cl_state <- Backoff
  in
  let request cl cur =
    observe_health ();
    cur.cur_total <- cur.cur_total + 1;
    match give_up with
    | Some g when cur.cur_total > g ->
      incr failed;
      finish_session cl
    | _ -> (
      probe_dead cl;
      match
        Node.request_admission ~peers:cl.cl_peers cl.cl_ground adm
          ~id:cur.cur_id ~footprint:cl.cl_fp
      with
      | Admission.Admitted -> cl.cl_state <- Running
      | Admission.Queued -> cl.cl_state <- Parked
      | Admission.Denied -> backoff cl cur ~base:1e-4
      | Admission.Overloaded _ ->
        (* typed shed: terminal for this request. The retry keeps the
           reserved id (a later success emits its own fresh admit mark,
           per SP009) but backs off harder than a plain denial. *)
        backoff cl cur ~base:2e-3)
  in
  (* Replay from the top under a fresh reserved id: the failed
     attempt's id stays burnt, keeping the trace's id space
     unambiguous. *)
  let replay cl cur =
    cur.cur_id <- Node.reserve_session cl.cl_ground;
    cur.cur_rops <- cur.cur_journal;
    Hashtbl.reset cur.cur_env.Interp.e_objs;
    request cl cur
  in
  (* An abort surrenders the admission slot, then replays the journal. *)
  let abort_and_recover cl cur =
    incr aborts;
    start_waiters ~closer:cl
      (Admission.close ~committed:false adm ~session:cur.cur_id);
    cur.cur_recovering <- true;
    replay cl cur
  in
  let timed cl f =
    let t0 = Cluster.now cluster in
    let r = f () in
    cl.cl_time <- cl.cl_time +. (Cluster.now cluster -. t0);
    r
  in
  let step cl =
    match cl.cl_state with
    | Done | Parked -> ()
    | Idle -> (
      match cl.cl_jobs with
      | [] -> cl.cl_state <- Done
      | { j_arrival; j_plan } :: _ ->
        cl.cl_time <- Float.max cl.cl_time j_arrival;
        let ws =
          rotated_servers setup ~client:cl.cl_idx ~count:j_plan.Script.p_workers
        in
        cl.cl_peers <- List.map endpoint ws;
        let cur =
          {
            cur_id = Node.reserve_session cl.cl_ground;
            cur_env = Interp.make_env ~cluster ~ground:cl.cl_ground ~workers:ws;
            cur_arrival = cl.cl_time;
            cur_journal = j_plan.Script.p_rops;
            cur_rops = j_plan.Script.p_rops;
            cur_attempt = 0;
            cur_total = 0;
            cur_recovering = false;
          }
        in
        cl.cl_current <- Some cur;
        request cl cur)
    | Backoff -> request cl (Option.get cl.cl_current)
    | Running -> (
      let cur = Option.get cl.cl_current in
      match cur.cur_rops with
      | rop :: rest -> (
        cur.cur_rops <- rest;
        try timed cl (fun () -> ignore (Interp.exec_rop cur.cur_env rop))
        with Session.Session_aborted _ -> abort_and_recover cl cur)
      | [] -> (
        match
          timed cl (fun () -> Node.end_session_validated cl.cl_ground adm)
        with
        | `Committed, waiters ->
          incr committed;
          if cur.cur_recovering then begin
            incr recovered;
            Stats.incr_recoveries (Cluster.stats cluster)
          end;
          latencies := (cl.cl_time -. cur.cur_arrival) :: !latencies;
          start_waiters ~closer:cl waiters;
          finish_session cl
        | `Validation_failed, waiters ->
          start_waiters ~closer:cl waiters;
          replay cl cur
        | exception Session.Session_aborted _ -> abort_and_recover cl cur))
  in
  let events = ref events in
  let rec fire upto =
    match !events with
    | (t, action) :: rest when t <= upto ->
      events := rest;
      action ();
      fire upto
    | _ -> ()
  in
  let sessions =
    Array.fold_left (fun acc cl -> acc + List.length cl.cl_jobs) 0 clients
  in
  let fuel = ref (fuel sessions) in
  let runnable () =
    let best = ref None in
    Array.iter
      (fun cl ->
        match cl.cl_state with
        | Done | Parked -> ()
        | _ -> (
          match !best with
          | Some b when b.cl_time <= cl.cl_time -> ()
          | _ -> best := Some cl))
      clients;
    !best
  in
  let all_done () = Array.for_all (fun cl -> cl.cl_state = Done) clients in
  while not (all_done ()) do
    decr fuel;
    if !fuel < 0 then raise Stuck;
    match runnable () with
    | Some cl ->
      fire cl.cl_time;
      step cl
    | None -> raise Stuck (* every live client parked: admission deadlock *)
  done;
  observe_health ();
  {
    sessions;
    committed = !committed;
    failed = !failed;
    aborts = !aborts;
    recovered = !recovered;
    makespan =
      Array.fold_left (fun acc cl -> Float.max acc cl.cl_time) 0.0 clients;
    latencies = !latencies;
  }

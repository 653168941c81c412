(* srpc-soak: sustained chaos traffic with liveness detection, session
   recovery and overload protection.

   The open-loop scheduler in [Driver], shared with [Traffic], run over
   a long VIRTUAL-time horizon while a deterministic chaos schedule
   crashes and revives servers and the fault plan drops frames. Three
   robustness layers are under test:

   - a [Health] failure detector probes with heartbeat frames and folds
     the simulator's crash/revive marks in, so suspicion is immediate
     for planned outages and probe-driven for message loss;
   - the [Admission] controller runs with bounded queues, per-session
     retry budgets and the per-peer circuit breaker, so sessions that
     would touch a dead server are shed with a typed [Overloaded]
     instead of timing out one by one;
   - the scheduler's journal replay: a session aborted by a crash is
     not lost; once health confirms the revival the client re-admits
     under a fresh id and replays its resolved op stream from scratch.
     Aborts are all-or-nothing, so replay-once is exactly-once — the
     per-root version validation at close would catch any doubled
     commit.

   Everything is metered on the simulated clock through seeded
   randomness, so one (config) names one exact execution: the same
   crashes at the same virtual instants, the same sheds, the same
   recoveries. With [drop = dup = 0] and [crash_period = 0] no fault
   plan and no detector are installed and the run is byte-identical to
   a health-free cluster ([baseline] — the fault-free yardstick the
   p99 gate divides by). *)

open Srpc_core
open Srpc_simnet
open Srpc_check

type config = {
  clients : int;
  servers : int;
  rate : float;  (** session arrivals per virtual second, per client *)
  mix : Script.kind list;
  depth : int;
  seed : int;
  policy : Strategy.admission_policy;
  contention : Traffic.contention;
  horizon : float;  (** virtual seconds of offered arrivals *)
  drop : float;
  dup : float;
  crash_period : float;  (** virtual s between server crashes; 0 = none *)
  outage : float;  (** virtual s a crashed server stays down *)
  queue_cap : int;
  retry_budget : int;
  give_up : int;  (** admission attempts before the client abandons *)
}

let default =
  {
    clients = 6;
    servers = 4;
    rate = 0.5;
    mix = [ Script.KList; Script.KTree ];
    depth = 6;
    seed = 0;
    policy = Strategy.Queue_conflicts;
    contention = Traffic.Disjoint;
    horizon = 320.0;
    drop = 0.01;
    dup = 0.005;
    crash_period = 20.0;
    outage = 0.3;
    queue_cap = 64;
    retry_budget = 32;
    give_up = 40;
  }

type result = {
  s_sessions : int;
  s_committed : int;
  s_failed : int;  (** gave up after [give_up] admission attempts *)
  s_aborts : int;  (** mid-session aborts (crashes, retry exhaustion) *)
  s_recovered : int;  (** sessions committed after at least one abort *)
  s_completion : float;  (** committed / sessions *)
  s_makespan : float;
  s_throughput : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_crashes : int;  (** chaos crash events applied *)
  s_revives : int;
  s_heartbeats : int;
  s_suspicions : int;
  s_sheds : int;
  s_breaker_trips : int;
  s_recoveries : int;  (** the [Stats] counter; equals [s_recovered] *)
  s_queued : int;
  s_retried : int;
  s_validation_failed : int;
  s_race_errors : int;
  s_proto_errors : int;
}

let chaotic cfg = cfg.drop > 0.0 || cfg.dup > 0.0 || cfg.crash_period > 0.0

exception Stuck = Traffic.Stuck

(* The deterministic chaos schedule: at every multiple of
   [crash_period] inside the horizon one server (rotating) crashes,
   reviving [outage] later. Handed to the scheduler as timed events it
   fires as client timelines pass each instant. *)
let chaos_events cfg ~crash ~revive =
  if cfg.crash_period <= 0.0 then []
  else begin
    if cfg.outage <= 0.0 || cfg.outage >= cfg.crash_period then
      invalid_arg "Soak: outage must be in (0, crash_period)";
    let rec go k acc =
      let t = cfg.crash_period *. float_of_int (k + 1) in
      if t >= cfg.horizon then List.rev acc
      else
        let s = k mod cfg.servers in
        go (k + 1) ((t +. cfg.outage, revive s) :: (t, crash s) :: acc)
    in
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (go 0 [])
  end

let run cfg =
  if not (cfg.horizon > 0.0 && Float.is_finite cfg.horizon) then
    invalid_arg "Soak: horizon must be positive and finite";
  let spec =
    {
      Driver.name = "Soak";
      clients = cfg.clients;
      servers = cfg.servers;
      seed = cfg.seed;
      rate = cfg.rate;
      mix = cfg.mix;
      depth = cfg.depth;
      hot = cfg.contention = Traffic.Hot;
      count = max_int;
      horizon = cfg.horizon;
    }
  in
  let setup = Driver.setup spec in
  let cluster = setup.Driver.cluster in
  let servers = setup.Driver.servers in
  let health =
    if not (chaotic cfg) then None
    else begin
      let fp = Fault_plan.create ~seed:cfg.seed () in
      if cfg.drop > 0.0 || cfg.dup > 0.0 then
        Fault_plan.set_global fp
          (Fault_plan.profile ~drop:cfg.drop ~duplicate:cfg.dup ());
      Cluster.install_faults cluster fp;
      (* the detector probes from its own (unregistered) endpoint: a
         monitor, not a node — Transport.rpc needs no src dispatcher *)
      let h =
        Health.create ~src:"monitor" ~registry:(Cluster.registry cluster)
          ~stats:(Cluster.stats cluster)
          (Cluster.transport cluster)
      in
      List.iter (fun s -> Health.watch h (Driver.endpoint s)) servers;
      Some h
    end
  in
  let adm =
    Admission.create ~policy:cfg.policy ~queue_cap:cfg.queue_cap
      ~retry_budget:cfg.retry_budget ?health (Cluster.stats cluster)
  in
  let crashes = ref 0 and revives = ref 0 in
  let apply action count s () =
    incr count;
    action (Cluster.transport cluster) (Driver.endpoint (List.nth servers s))
  in
  let events =
    chaos_events cfg
      ~crash:(apply Transport.crash crashes)
      ~revive:(apply Transport.revive revives)
  in
  let (t : Driver.tally) =
    Driver.run ?health ~give_up:cfg.give_up ~events
      ~fuel:(fun sessions ->
        (sessions * (cfg.depth + 16) * (cfg.give_up + 8)) + 1024)
      spec setup adm
  in
  let snap = Cluster.snapshot cluster in
  let s_p50, s_p95, s_p99 = Driver.percentiles t.latencies in
  let s_race_errors, s_proto_errors = Driver.lint_errors setup in
  {
    s_sessions = t.sessions;
    s_committed = t.committed;
    s_failed = t.failed;
    s_aborts = t.aborts;
    s_recovered = t.recovered;
    s_completion =
      (if t.sessions > 0 then
         float_of_int t.committed /. float_of_int t.sessions
       else 1.0);
    s_makespan = t.makespan;
    s_throughput = Driver.throughput t;
    s_p50;
    s_p95;
    s_p99;
    s_crashes = !crashes;
    s_revives = !revives;
    s_heartbeats = snap.Stats.heartbeats_sent;
    s_suspicions = snap.Stats.suspicions;
    s_sheds = snap.Stats.sheds;
    s_breaker_trips = snap.Stats.breaker_trips;
    s_recoveries = snap.Stats.recoveries;
    s_queued = snap.Stats.sessions_queued;
    s_retried = snap.Stats.sessions_retried;
    s_validation_failed = snap.Stats.validations_failed;
    s_race_errors;
    s_proto_errors;
  }

(* The fault-free yardstick: the same offered load with no fault plan,
   no chaos schedule and no detector constructed — the wire path is
   byte-identical to a health-free cluster. *)
let baseline cfg = run { cfg with drop = 0.0; dup = 0.0; crash_period = 0.0 }

type comparison = { chaos : result; fault_free : result; p99_ratio : float }

let compare_runs cfg =
  let fault_free = baseline cfg in
  let chaos = run cfg in
  let p99_ratio =
    if fault_free.s_p99 > 0.0 then chaos.s_p99 /. fault_free.s_p99 else 0.0
  in
  { chaos; fault_free; p99_ratio }

(** srpc-traffic: the open-loop concurrent-session traffic generator.

    N client nodes (each the ground of its own sessions) drive a small
    pool of shared server nodes through the concurrent-session
    admission controller. Arrivals are Poisson in {e virtual} time:
    every random choice flows through the seeded [Rng] and time is the
    simulation's cost-model clock, so a (seed, config) pair names one
    exact execution on every machine.

    {b Time model.} The cluster has one virtual clock metering every
    operation (the simulation is single-threaded). The scheduler runs
    one resolved op at a time and charges its clock delta to the
    issuing client's private logical timeline, so concurrent clients
    overlap in logical time exactly as N independent machines would —
    the same op-atomic-interleaving soundness argument as the weave
    checker. {!run_serialized} replays the same sessions on one
    accumulated timeline; the throughput ratio ({!compare_runs})
    approaches the client count for admission-disjoint workloads and
    ~1 under full contention.

    Session bodies come from [Gen.session_script] and execute through
    [Interp.exec_rop] — the model checker's interpreter — so traffic
    can never drift from checked op semantics. [Race_lint] and
    [Proto_lint] run over the full trace as standing oracles.

    {!run} and {!Soak.run} drive one shared client state machine; the
    table in docs/TRAFFIC.md ("One scheduler, two harnesses") lists
    what each harness adds to it. *)

open Srpc_core
open Srpc_check

(** Footprint shape: [Disjoint] gives every client its own datum-root
    universe (sessions admit concurrently); [Hot] points every session
    at one shared root (admission serializes: queueing or
    abort-retry, per policy). *)
type contention = Disjoint | Hot

(** ["disjoint"] or ["hot"]: the name every report and CLI uses. *)
val contention_name : contention -> string

type config = {
  clients : int;  (** client (per-session ground) nodes, >= 1 *)
  servers : int;  (** server (worker) nodes, 2..8 *)
  rate : float;
      (** session arrivals per virtual second, per client; positive and
          finite *)
  mix : Script.kind list;  (** workload kinds cycled across sessions *)
  sessions_per_client : int;
  depth : int;  (** ops per session script *)
  seed : int;
  policy : Strategy.admission_policy;
  contention : contention;
}

(** 8 clients, 4 servers, 400 arrivals/s, list+tree mix, 4 sessions per
    client, queueing admission, disjoint footprints. *)
val default : config

type result = {
  r_sessions : int;
  r_committed : int;
  r_aborted : int;
  r_makespan : float;  (** virtual seconds, max over client timelines *)
  r_throughput : float;  (** committed sessions per virtual second *)
  r_p50 : float;  (** session latency percentiles, virtual seconds *)
  r_p95 : float;
  r_p99 : float;
  r_admitted : int;  (** admission counters, from {!Srpc_simnet.Stats} *)
  r_queued : int;
  r_denied : int;
  r_retried : int;
  r_validation_failed : int;
  r_race_errors : int;  (** [Race_lint] errors over the full trace *)
  r_proto_errors : int;  (** [Proto_lint] errors over the full trace *)
}

(** [run cfg] drives the full open-loop traffic run and returns its
    aggregate result. Deterministic in [cfg].
    @raise Stuck if the scheduler stops making progress.
    @raise Invalid_argument on a config outside the ranges above. *)
val run : config -> result

(** [run_serialized cfg] replays the same session population strictly
    one at a time on a single accumulated timeline — the baseline the
    speedup gate divides by. *)
val run_serialized : config -> result

type comparison = {
  concurrent : result;
  serialized : result;
  speedup : float;  (** concurrent throughput / serialized throughput *)
}

val compare_runs : config -> comparison

(** {1 The shared-counter workload}

    The no-lost-update oracle in its purest form: one integer cell
    homed on a server; every client session reads it, bumps it and
    writes it back at close. Correct admission serializes the bumps so
    the final value equals the committed-session count. With
    [chaos:true] ([Node.chaos_admit_conflicting]) the sessions overlap:
    close-time validation must fail every loser (who retries under a
    fresh id) while Race_lint (CC101) and the protocol linter (SP008)
    flag the overlap — and the counter still ends exactly at the
    committed count. *)

type counter_outcome = {
  k_clients : int;
  k_committed : int;
  k_final : int;  (** the counter cell's closing value *)
  k_validation_failures : int;
  k_race_errors : int;
  k_proto_errors : int;
}

val run_counter :
  ?chaos:bool ->
  clients:int ->
  seed:int ->
  policy:Strategy.admission_policy ->
  unit ->
  counter_outcome

(** The open-loop scheduler ran out of fuel or every live client is
    parked (admission deadlock). {!Soak.Stuck} is the same exception. *)
exception Stuck

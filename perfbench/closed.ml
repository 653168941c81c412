(* The two closed-loop workloads: one caller (the ground, home of a
   complete binary tree) and one callee, each session started only
   after the previous one closed.

   fig4-sweep   the paper's Fig. 4: one [search] call per session that
                walks ratio x nodes in preorder, cycling through four
                transfer arms x ten access ratios.
   update-chatty  writes: one [update] call incrementing 64 seeded
                nodes, then 8 [noop] calls, then close, with delta
                coherency on.

   The untraced callee bodies call the library traversal or the
   accessors directly; the traced bodies make the same [Access] calls
   inside spans. *)

open Srpc_core
open Srpc_simnet
module Rng = Srpc_check.Rng

(* A closed-loop workload. [session ~traced i] runs the [i]-th session
   of a cycle (the workload keeps its own session counter) and returns
   its output check, to be run after the session is timed. *)
type t = {
  cells : int;  (** sessions per cycle *)
  clusters : Cluster.t list;
  cluster_of : int -> Cluster.t;
  session : traced:bool -> int -> unit -> bool;
  layer_end : unit -> unit;
      (** record the state-derived per-layer figures after a traced run *)
}

(* Classifies the [Access] span that just ended: did it service a
   fault? One per cluster, allocated once so the traced accessors
   allocate nothing of their own. *)
type probe = { cluster : Cluster.t; mutable mark : int; classify : unit -> Span.layer }

let faults c = (Cluster.snapshot c).Stats.faults

let probe cluster =
  let rec p =
    {
      cluster;
      mark = 0;
      classify =
        (fun () -> if faults cluster <> p.mark then Span.Access_fault else Span.Access_hit);
    }
  in
  p

let access pr f =
  pr.mark <- faults pr.cluster;
  Span.enter ();
  let v = f () in
  Span.leave_by pr.classify;
  v

let traced_get_int pr node p ~field = access pr (fun () -> Access.get_int node p ~field)
let traced_get_ptr pr node p ~field = access pr (fun () -> Access.get_ptr node p ~field)

let traced_set_int pr node p ~field v =
  access pr (fun () -> Access.set_int node p ~field v)

(* [Tree.visit]'s access pattern, one span per accessor call. *)
let traced_visit pr node root ~limit =
  let visited = ref 0 and sum = ref 0 in
  let rec go p =
    if (not (Access.is_null p)) && !visited < limit then begin
      incr visited;
      sum := !sum + traced_get_int pr node p ~field:"data";
      go (traced_get_ptr pr node p ~field:"left");
      go (traced_get_ptr pr node p ~field:"right")
    end
  in
  go root;
  (!visited, !sum)

(* Session close, with the close-only counters in traced runs. *)
let close ~traced cluster caller =
  if not traced then Node.end_session caller
  else begin
    let s0 = Cluster.snapshot cluster in
    Span.wrap Span.Close (fun () -> Node.end_session caller);
    let d = Stats.diff (Cluster.snapshot cluster) s0 in
    Stat.Sums.add "close.writeback_items" (float_of_int d.Stats.writebacks);
    Stat.Sums.add "close.writeback_bytes" (float_of_int d.Stats.writeback_bytes);
    Stat.Sums.add "close.invalidations_skipped"
      (float_of_int d.Stats.invalidations_skipped)
  end

(* A timed call whose simulated time and callee cache footprint feed
   the per-layer figures in traced runs. *)
let measured_call ~traced cluster caller callee proc args =
  if not traced then Node.call caller ~dst:(Node.id callee) proc args
  else begin
    let t0 = Cluster.now cluster in
    let r = Span.wrap Span.Call (fun () -> Node.call caller ~dst:(Node.id callee) proc args) in
    Stat.Sums.add "call.sim_ms" ((Cluster.now cluster -. t0) *. 1e3);
    Stat.Sums.add "call.count" 1.0;
    Stat.Sums.add "cache.used_pages" (float_of_int (Cache.used_pages (Node.cache callee)));
    r
  end

let body ~traced f = if traced then Span.wrap Span.Body f else f ()

(* ---- fig4-sweep ---- *)

let fig4_depth = 12
let ratios = Array.init 10 (fun i -> float_of_int (i + 1) /. 10.0)

type arm = {
  a_cluster : Cluster.t;
  a_caller : Node.t;
  a_callee : Node.t;
  a_root : Access.ptr;
  a_policy : Srpc_policy.Engine.t option;
}

let arm_strategies =
  [|
    ("fully-eager", Strategy.fully_eager, false);
    ("fully-lazy", Strategy.fully_lazy, false);
    ("proposed(8192)", Strategy.smart ~closure_size:8192 (), false);
    ("adaptive", Strategy.smart (), true);
  |]

let make_arm (_, strategy, adaptive) =
  let policy = if adaptive then Some (Srpc_policy.Engine.create ()) else None in
  let cluster = Cluster.create ?policy () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Srpc_workloads.Tree.register_types cluster;
  let root = Srpc_workloads.Tree.build caller ~depth:fig4_depth in
  let pr = probe cluster in
  Node.register callee "search" (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let root = Access.of_value rootv and limit = Value.to_int limitv in
        let visited, sum =
          if !Span.on then
            Span.wrap Span.Body (fun () -> traced_visit pr node root ~limit)
          else Srpc_workloads.Tree.visit node root ~limit
        in
        [ Value.int visited; Value.int sum ]
      | _ -> invalid_arg "search: expected (root, limit)");
  { a_cluster = cluster; a_caller = caller; a_callee = callee; a_root = root;
    a_policy = policy }

(* The seed permutes the cell order and shortens each ratio's walk by
   0-15 nodes (the same for every arm), so runs with different seeds
   differ in their inputs. *)
let fig4 ~seed =
  let rng = Rng.create seed in
  let nodes = Srpc_workloads.Tree.nodes_of_depth fig4_depth in
  let limits =
    Array.map
      (fun r -> int_of_float (Float.round (r *. float_of_int nodes)) - Rng.int rng 16)
      ratios
  in
  let arms = Array.map make_arm arm_strategies in
  let narms = Array.length arms in
  (* the home's own preorder walk is the oracle *)
  let home = arms.(0) in
  let expected =
    Array.map (fun limit -> Srpc_workloads.Tree.visit home.a_caller home.a_root ~limit) limits
  in
  let cells = narms * Array.length ratios in
  let order = Array.init cells Fun.id in
  for i = cells - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (* per ratio, the first arm's answer in this cycle: all arms agree *)
  let agreed = Array.make (Array.length ratios) None in
  let session ~traced i =
    let cell = order.(i) in
    if i = 0 then Array.fill agreed 0 (Array.length agreed) None;
    let a = arms.(cell mod narms) and r = cell / narms in
    Node.begin_session a.a_caller;
    let res =
      measured_call ~traced a.a_cluster a.a_caller a.a_callee "search"
        [ Access.to_value a.a_root; Value.int limits.(r) ]
    in
    close ~traced a.a_cluster a.a_caller;
    fun () ->
      match res with
      | [ v; s ] ->
        let got = (Value.to_int v, Value.to_int s) in
        let agrees =
          match agreed.(r) with
          | None ->
            agreed.(r) <- Some got;
            true
          | Some first -> first = got
        in
        agrees && got = expected.(r) && fst got = limits.(r)
      | _ -> false
  in
  let layer_end () =
    Array.iter
      (fun a ->
        match a.a_policy with
        | None -> ()
        | Some p ->
          List.iter
            (fun (ty, b) -> Stat.Sums.add ("policy.budget." ^ ty) (float_of_int b))
            (Srpc_policy.Engine.budgets p))
      arms
  in
  {
    cells;
    clusters = Array.to_list (Array.map (fun a -> a.a_cluster) arms);
    cluster_of = (fun i -> arms.(order.(i) mod narms).a_cluster);
    session;
    layer_end;
  }

(* ---- update-chatty ---- *)

let chatty_depth = 10
let chatty_updates = 64
let chatty_noops = 8

(* Every node of the tree, in preorder, read at the home. *)
let preorder_ptrs node root =
  let acc = ref [] in
  let rec go p =
    if not (Access.is_null p) then begin
      acc := p :: !acc;
      go (Access.get_ptr node p ~field:"left");
      go (Access.get_ptr node p ~field:"right")
    end
  in
  go root;
  Array.of_list (List.rev !acc)

let chatty ~seed =
  let strategy = Strategy.smart ~delta:true () in
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Srpc_workloads.Tree.register_types cluster;
  let root = Srpc_workloads.Tree.build caller ~depth:chatty_depth in
  let ptrs = preorder_ptrs caller root in
  let n = Array.length ptrs in
  let expected = Array.init n (fun k -> Access.get_int caller ptrs.(k) ~field:"data") in
  let pr = probe cluster in
  Node.register callee "update" (fun node args ->
      let bump p =
        let p = Access.of_value p in
        if !Span.on then
          traced_set_int pr node p ~field:"data" (traced_get_int pr node p ~field:"data" + 1)
        else Access.set_int node p ~field:"data" (Access.get_int node p ~field:"data" + 1)
      in
      body ~traced:!Span.on (fun () -> List.iter bump args);
      [ Value.int (List.length args) ]);
  Node.register callee "noop" (fun _ _ -> body ~traced:!Span.on (fun () -> []));
  let rng = Rng.create seed in
  let session ~traced _ =
    (* 64 distinct seeded offsets *)
    let picked = Array.make n false in
    let offs = Array.make chatty_updates 0 in
    for k = 0 to chatty_updates - 1 do
      let o = ref (Rng.int rng n) in
      while picked.(!o) do
        o := (!o + 1) mod n
      done;
      picked.(!o) <- true;
      offs.(k) <- !o
    done;
    let args = Array.to_list (Array.map (fun o -> Access.to_value ptrs.(o)) offs) in
    Node.begin_session caller;
    let res = measured_call ~traced cluster caller callee "update" args in
    for _ = 1 to chatty_noops do
      ignore (measured_call ~traced cluster caller callee "noop" [])
    done;
    close ~traced cluster caller;
    fun () ->
      Array.iter (fun o -> expected.(o) <- expected.(o) + 1) offs;
      let home_ok = ref true in
      Array.iteri
        (fun k p ->
          if Access.get_int caller p ~field:"data" <> expected.(k) then home_ok := false)
        ptrs;
      !home_ok && res = [ Value.int chatty_updates ]
  in
  {
    cells = 1;
    clusters = [ cluster ];
    cluster_of = (fun _ -> cluster);
    session;
    layer_end = ignore;
  }

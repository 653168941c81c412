(* The paper's headline experiment at example scale: a complete binary
   tree lives on the caller; the callee searches part of it remotely
   under the three transfer methods (fully eager / fully lazy /
   proposed), showing who wins at which access ratio.

   Run with:  dune exec examples/tree_search.exe *)

open Srpc_workloads

let () =
  let depth = 12 (* 4095 nodes of 16 bytes, as in the paper but smaller *) in
  let methods =
    [ Experiments.Fully_eager; Experiments.Fully_lazy; Experiments.Proposed 8192 ]
  in
  Printf.printf "tree: %d nodes; per-call simulated seconds\n"
    (Tree.nodes_of_depth depth);
  Printf.printf "%8s" "ratio";
  List.iter (fun m -> Printf.printf " %14s" (Experiments.method_name m)) methods;
  print_newline ();
  List.iter
    (fun ratio ->
      Printf.printf "%8.2f" ratio;
      List.iter
        (fun m ->
          let r =
            Experiments.run_tree_search
              ~strategy:(Experiments.strategy_of_method m)
              ~depth ~ratio ()
          in
          Printf.printf " %14.4f" r.Experiments.seconds)
        methods;
      print_newline ())
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  print_newline ();
  (* The adaptive policy (docs/ADAPTIVE.md): same search, but the cluster
     is created with ~policy, so the profiler watches every session and
     the controller re-tunes the closure budget in between instead of
     trusting the hand-picked 8192. *)
  let open Srpc_core in
  let policy = Srpc_policy.Engine.create () in
  let cluster = Cluster.create ~policy () in
  let strategy = Strategy.smart () in
  let caller = Cluster.add_node cluster ~site:1 ~strategy () in
  let callee = Cluster.add_node cluster ~site:2 ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  Node.register callee "search" (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let visited, _ =
          Tree.visit node (Access.of_value rootv) ~limit:(Value.to_int limitv)
        in
        [ Value.int visited ]
      | _ -> invalid_arg "search: expected (root, limit)");
  let limit = Tree.nodes_of_depth depth / 2 in
  Printf.printf "adaptive policy, ratio 0.50, per-session seconds:\n ";
  for _ = 1 to 8 do
    let clock = Srpc_simnet.Transport.clock (Node.transport caller) in
    let t0 = Srpc_simnet.Clock.now clock in
    Node.with_session caller (fun () ->
        ignore
          (Node.call caller ~dst:(Node.id callee) "search"
             [ Access.to_value root; Value.int limit ]));
    Printf.printf " %8.4f" (Srpc_simnet.Clock.now clock -. t0)
  done;
  print_newline ();
  List.iter
    (fun (ty, b) -> Printf.printf "  learned budget for %s: %d bytes\n" ty b)
    (Srpc_policy.Engine.budgets policy);
  print_newline ();
  Printf.printf "callbacks at full traversal:\n";
  List.iter
    (fun m ->
      let r =
        Experiments.run_tree_search
          ~strategy:(Experiments.strategy_of_method m)
          ~depth ~ratio:1.0 ()
      in
      Printf.printf "  %-16s %6d callbacks, %8d wire bytes\n"
        (Experiments.method_name m) r.Experiments.stats.callbacks
        r.Experiments.stats.bytes)
    methods

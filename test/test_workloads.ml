(* Tests for the workload builders (tree, list, hash table, graph) both
   locally and through remote procedures, plus the experiment harness at
   small scale. *)

open Srpc_memory
open Srpc_core
open Srpc_simnet
open Srpc_workloads

let mk2 ?(strategy = Strategy.smart ()) () =
  let cluster = Cluster.create ~cost:Cost_model.zero () in
  let a = Cluster.add_node cluster ~site:1 ~strategy () in
  let b = Cluster.add_node cluster ~site:2 ~strategy () in
  (cluster, a, b)

(* --- tree --- *)

let test_tree_build_shape () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:5 in
  Alcotest.(check int) "31 nodes" 31 (Tree.count a root);
  Alcotest.(check int) "depth 5" 5 (Tree.depth_of a root);
  Alcotest.(check int) "nodes_of_depth" 31 (Tree.nodes_of_depth 5)

let test_tree_empty () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:0 in
  Alcotest.(check bool) "null root" true (Access.is_null root);
  Alcotest.(check int) "count 0" 0 (Tree.count a root)

let test_tree_visit_preorder_sum () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:4 in
  (* data fields are preorder indices 0..14: full sum = 105 *)
  let visited, sum = Tree.visit a root ~limit:max_int in
  Alcotest.(check int) "visited" 15 visited;
  Alcotest.(check int) "sum" 105 sum;
  (* preorder prefix 0,1,2: sum 3 *)
  let visited, sum = Tree.visit a root ~limit:3 in
  Alcotest.(check int) "limited visit" 3 visited;
  Alcotest.(check int) "prefix sum" 3 sum

let test_tree_visit_update_increments () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:3 in
  let _, s1 = Tree.visit a root ~limit:max_int in
  ignore (Tree.visit_update a root ~limit:max_int);
  let _, s2 = Tree.visit a root ~limit:max_int in
  Alcotest.(check int) "each node +1" (s1 + 7) s2

let test_tree_descend_paths () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:4 in
  (* all-left path: preorder indices 0,1,2,3 *)
  let count, sum = Tree.descend a root ~path:0 in
  Alcotest.(check int) "path length" 4 count;
  Alcotest.(check int) "left spine sum" 6 sum;
  (* all-right path: 0, then right children *)
  let count_r, sum_r = Tree.descend a root ~path:(-1) in
  Alcotest.(check int) "right path length" 4 count_r;
  Alcotest.(check bool) "different path" true (sum_r <> sum);
  let empty_count, _ = Tree.descend a (Access.null ~ty:Tree.type_name) ~path:5 in
  Alcotest.(check int) "empty" 0 empty_count

let test_tree_free_releases_all () =
  let cluster, a, _ = mk2 () in
  Tree.register_types cluster;
  let root = Tree.build a ~depth:4 in
  Alcotest.(check int) "live" 15 (Allocator.live_blocks (Node.heap a));
  Tree.free a root;
  Alcotest.(check int) "all freed" 0 (Allocator.live_blocks (Node.heap a))

let test_tree_remote_search_all_methods () =
  List.iter
    (fun m ->
      let r =
        Experiments.run_tree_search ~strategy:(Experiments.strategy_of_method m)
          ~depth:6 ~ratio:1.0 ()
      in
      Alcotest.(check int) (Experiments.method_name m) 63 r.Experiments.visited)
    [ Experiments.Fully_eager; Experiments.Fully_lazy; Experiments.Proposed 128 ]

(* --- linked list --- *)

let test_list_roundtrip () =
  let cluster, a, _ = mk2 () in
  Linked_list.register_types cluster;
  let xs = [ 5; 4; 3; 2; 1 ] in
  let head = Linked_list.build a xs in
  Alcotest.(check (list int)) "to_list" xs (Linked_list.to_list a head);
  Alcotest.(check int) "sum" 15 (Linked_list.sum a head);
  Alcotest.(check int) "length" 5 (Linked_list.length a head)

let test_list_empty () =
  let cluster, a, _ = mk2 () in
  Linked_list.register_types cluster;
  let head = Linked_list.build a [] in
  Alcotest.(check bool) "null" true (Access.is_null head);
  Alcotest.(check (list int)) "empty" [] (Linked_list.to_list a head)

let test_list_nth () =
  let cluster, a, _ = mk2 () in
  Linked_list.register_types cluster;
  let head = Linked_list.build a [ 10; 20; 30 ] in
  let p = Linked_list.nth a head 2 in
  Alcotest.(check int) "third" 30 (Access.get_int a p ~field:"value");
  Alcotest.check_raises "past end" Not_found (fun () ->
      ignore (Linked_list.nth a head 3))

let test_list_map_in_place () =
  let cluster, a, _ = mk2 () in
  Linked_list.register_types cluster;
  let head = Linked_list.build a [ 1; 2; 3 ] in
  Linked_list.map_in_place a head (fun x -> x * x);
  Alcotest.(check (list int)) "squared" [ 1; 4; 9 ] (Linked_list.to_list a head)

let test_list_remote_map () =
  let cluster, a, b = mk2 () in
  Linked_list.register_types cluster;
  let head = Linked_list.build a [ 1; 2; 3; 4 ] in
  Node.register b "double_all" (fun node args ->
      Linked_list.map_in_place node (Access.of_value (List.hd args)) (fun x -> 2 * x);
      []);
  Node.begin_session a;
  ignore (Node.call a ~dst:(Node.id b) "double_all" [ Access.to_value head ]);
  Node.end_session a;
  Alcotest.(check (list int)) "doubled at origin" [ 2; 4; 6; 8 ]
    (Linked_list.to_list a head)

let test_list_append_remote_home () =
  let cluster, a, b = mk2 () in
  Linked_list.register_types cluster;
  let head = Linked_list.build a [ 1; 2 ] in
  Node.register b "extend" (fun node args ->
      let h = Access.of_value (List.hd args) in
      let h' = Linked_list.append node h ~home:(Space_id.make ~site:1 ~proc:0) [ 3; 4 ] in
      [ Access.to_value h' ]);
  Node.begin_session a;
  ignore (Node.call a ~dst:(Node.id b) "extend" [ Access.to_value head ]);
  Node.end_session a;
  Alcotest.(check (list int)) "extended, homed at A" [ 1; 2; 3; 4 ]
    (Linked_list.to_list a head)

(* --- hash table --- *)

let test_hash_insert_lookup () =
  let cluster, a, _ = mk2 () in
  Hash_table.register_types cluster;
  let t = Hash_table.create a in
  Hash_table.insert a t ~key:1 ~value:100;
  Hash_table.insert a t ~key:65 ~value:200 (* same bucket as 1 (mod 64) *);
  Hash_table.insert a t ~key:2 ~value:300;
  Alcotest.(check (option int)) "k1" (Some 100) (Hash_table.lookup a t ~key:1);
  Alcotest.(check (option int)) "k65 chained" (Some 200)
    (Hash_table.lookup a t ~key:65);
  Alcotest.(check (option int)) "k2" (Some 300) (Hash_table.lookup a t ~key:2);
  Alcotest.(check (option int)) "missing" None (Hash_table.lookup a t ~key:9);
  Alcotest.(check int) "population" 3 (Hash_table.population a t)

let test_hash_shadowing_and_remove () =
  let cluster, a, _ = mk2 () in
  Hash_table.register_types cluster;
  let t = Hash_table.create a in
  Hash_table.insert a t ~key:7 ~value:1;
  Hash_table.insert a t ~key:7 ~value:2;
  Alcotest.(check (option int)) "newest wins" (Some 2) (Hash_table.lookup a t ~key:7);
  Alcotest.(check bool) "remove newest" true (Hash_table.remove a t ~key:7);
  Alcotest.(check (option int)) "older visible" (Some 1)
    (Hash_table.lookup a t ~key:7);
  Alcotest.(check bool) "remove older" true (Hash_table.remove a t ~key:7);
  Alcotest.(check (option int)) "gone" None (Hash_table.lookup a t ~key:7);
  Alcotest.(check bool) "nothing left" false (Hash_table.remove a t ~key:7)

let test_hash_negative_keys () =
  let cluster, a, _ = mk2 () in
  Hash_table.register_types cluster;
  let t = Hash_table.create a in
  Hash_table.insert a t ~key:(-5) ~value:55;
  Alcotest.(check (option int)) "negative key" (Some 55)
    (Hash_table.lookup a t ~key:(-5))

let test_hash_remote_lookup_is_cheap () =
  (* the paper's motivating case for laziness: a remote lookup must not
     pull the whole table *)
  let cluster, a, b = mk2 ~strategy:(Strategy.smart ~closure_size:64 ()) () in
  Hash_table.register_types cluster;
  let t = Hash_table.create a in
  for k = 0 to 199 do
    Hash_table.insert a t ~key:k ~value:(k * 10)
  done;
  Node.register b "lookup" (fun node args ->
      match args with
      | [ tv; kv ] -> (
        match Hash_table.lookup node (Access.of_value tv) ~key:(Value.to_int kv) with
        | Some v -> [ Value.int v ]
        | None -> [ Value.int (-1) ])
      | _ -> assert false);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match
         Node.call a ~dst:(Node.id b) "lookup" [ Access.to_value t; Value.int 42 ]
       with
      | [ v ] -> Alcotest.(check int) "found" 420 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      (* table header + one chain: a handful of fetches, not 200 *)
      Alcotest.(check bool) "few callbacks" true (d.Stats.callbacks <= 8))

(* --- graph --- *)

let test_graph_deterministic () =
  let cluster, a, _ = mk2 () in
  Graph.register_types cluster;
  let r1 = Graph.build a ~nodes:50 ~seed:7 in
  let n1, s1 = Graph.reachable_sum a r1 in
  let cluster2 = Cluster.create ~cost:Cost_model.zero () in
  let a2 = Cluster.add_node cluster2 ~site:1 () in
  Graph.register_types cluster2;
  let r2 = Graph.build a2 ~nodes:50 ~seed:7 in
  let n2, s2 = Graph.reachable_sum a2 r2 in
  Alcotest.(check int) "same reach" n1 n2;
  Alcotest.(check int) "same sum" s1 s2

let test_graph_all_reachable_via_chain () =
  let cluster, a, _ = mk2 () in
  Graph.register_types cluster;
  let root = Graph.build a ~nodes:30 ~seed:3 in
  let n, sum = Graph.reachable_sum a root in
  Alcotest.(check int) "all vertices" 30 n;
  Alcotest.(check int) "payload sum" (30 * 29 / 2) sum

let test_graph_remote_walk_with_cycles () =
  (* cyclic pointer graphs must not wedge the closure engine *)
  List.iter
    (fun strategy ->
      let cluster, a, b = mk2 ~strategy () in
      Graph.register_types cluster;
      let root = Graph.build a ~nodes:40 ~seed:11 in
      let expect = Graph.reachable_sum a root in
      Node.register b "walk" (fun node args ->
          let n, s = Graph.reachable_sum node (Access.of_value (List.hd args)) in
          [ Value.int n; Value.int s ]);
      Node.with_session a (fun () ->
          match Node.call a ~dst:(Node.id b) "walk" [ Access.to_value root ] with
          | [ n; s ] ->
            Alcotest.(check int) "reach" (fst expect) (Value.to_int n);
            Alcotest.(check int) "sum" (snd expect) (Value.to_int s)
          | _ -> Alcotest.fail "arity"))
    [ Strategy.fully_eager; Strategy.fully_lazy; Strategy.smart ~closure_size:256 () ]

(* --- matrix --- *)

let test_matrix_local_roundtrip () =
  let cluster, a, _ = mk2 () in
  Matrix.register_types cluster;
  let g = Matrix.create a ~tile_rows:2 ~tile_cols:2 in
  Alcotest.(check (pair int int)) "dims" (64, 64) (Matrix.dims a g);
  Matrix.set a g ~row:0 ~col:0 1.5;
  Matrix.set a g ~row:33 ~col:40 2.5 (* a different tile *);
  Matrix.set a g ~row:63 ~col:63 3.0;
  Alcotest.(check (float 0.0)) "corner" 1.5 (Matrix.get a g ~row:0 ~col:0);
  Alcotest.(check (float 0.0)) "middle" 2.5 (Matrix.get a g ~row:33 ~col:40);
  Alcotest.(check (float 0.0)) "far corner" 3.0 (Matrix.get a g ~row:63 ~col:63);
  Alcotest.(check (float 0.0)) "untouched is zero" 0.0 (Matrix.get a g ~row:5 ~col:5)

let test_matrix_bounds () =
  let cluster, a, _ = mk2 () in
  Matrix.register_types cluster;
  let g = Matrix.create a ~tile_rows:1 ~tile_cols:1 in
  Alcotest.(check bool) "oob" true
    (match Matrix.get a g ~row:32 ~col:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "too many tiles" true
    (match Matrix.create a ~tile_rows:9 ~tile_cols:9 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_matrix_row_sum_touches_one_tile_row () =
  (* a remote row sum must not pull the whole matrix: tiles are 8 KiB,
     one tile row of a 4x4-tile grid is a quarter of the data *)
  let cluster, a, b = mk2 ~strategy:(Strategy.smart ~closure_size:1024 ()) () in
  Matrix.register_types cluster;
  let g = Matrix.create a ~tile_rows:4 ~tile_cols:4 in
  let rows, cols = Matrix.dims a g in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if (r + c) mod 17 = 0 then Matrix.set a g ~row:r ~col:c 1.0
    done
  done;
  let expect = Matrix.row_sum a g ~row:3 in
  Node.register b "row_sum" (fun node args ->
      match args with
      | [ gv; rv ] ->
        [ Value.float (Matrix.row_sum node (Access.of_value gv) ~row:(Value.to_int rv)) ]
      | _ -> assert false);
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "row_sum" [ Access.to_value g; Value.int 3 ]
       with
      | [ v ] -> Alcotest.(check (float 1e-9)) "sum" expect (Value.to_float v)
      | _ -> Alcotest.fail "arity");
      let d = Stats.diff (Cluster.snapshot cluster) s0 in
      (* whole matrix ~128KB in memory, much more on the wire; one tile
         row is 4 tiles = 32KB -> wire ~64KB *)
      Alcotest.(check bool) "partial transfer" true (d.Stats.bytes < 100_000))

let test_matrix_remote_scale_writes_back () =
  let cluster, a, b = mk2 () in
  Matrix.register_types cluster;
  let g = Matrix.create a ~tile_rows:2 ~tile_cols:1 in
  Matrix.set a g ~row:1 ~col:1 3.0;
  Matrix.set a g ~row:40 ~col:7 5.0;
  Node.register b "scale" (fun node args ->
      match args with
      | [ gv; kv ] ->
        Matrix.scale node (Access.of_value gv) (Value.to_float kv);
        []
      | _ -> assert false);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "scale" [ Access.to_value g; Value.float 2.0 ]));
  Alcotest.(check (float 0.0)) "scaled" 6.0 (Matrix.get a g ~row:1 ~col:1);
  Alcotest.(check (float 0.0)) "scaled2" 10.0 (Matrix.get a g ~row:40 ~col:7);
  Alcotest.(check (float 0.0)) "others zero" 0.0 (Matrix.get a g ~row:0 ~col:0)

let test_matrix_frobenius_remote_equals_local () =
  let cluster, a, b = mk2 ~strategy:Strategy.fully_eager () in
  Matrix.register_types cluster;
  let g = Matrix.create a ~tile_rows:2 ~tile_cols:2 in
  for i = 0 to 63 do
    Matrix.set a g ~row:i ~col:(63 - i) (float_of_int i)
  done;
  let expect = Matrix.frobenius a g in
  Node.register b "frob" (fun node args ->
      [ Value.float (Matrix.frobenius node (Access.of_value (List.hd args))) ]);
  Node.with_session a (fun () ->
      match Node.call a ~dst:(Node.id b) "frob" [ Access.to_value g ] with
      | [ v ] -> Alcotest.(check (float 1e-6)) "frobenius" expect (Value.to_float v)
      | _ -> Alcotest.fail "arity")

(* --- B-tree --- *)

let test_btree_empty () =
  let cluster, a, _ = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  Alcotest.(check (option int)) "missing" None (Btree.search a t ~key:5);
  Alcotest.(check (list (pair int int))) "empty" [] (Btree.to_list a t);
  Alcotest.(check int) "cardinal" 0 (Btree.cardinal a t);
  Alcotest.(check bool) "invariants" true (Btree.check_invariants a t = Ok ())

let test_btree_insert_search () =
  let cluster, a, _ = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  let keys = [ 50; 20; 80; 10; 30; 70; 90; 25; 35; 5; 95; 60; 40 ] in
  List.iter (fun k -> Btree.insert a t ~key:k ~value:(k * 2)) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option int)) (string_of_int k) (Some (k * 2))
        (Btree.search a t ~key:k))
    keys;
  Alcotest.(check (option int)) "absent" None (Btree.search a t ~key:55);
  Alcotest.(check int) "cardinal" (List.length keys) (Btree.cardinal a t);
  Alcotest.(check (list int)) "sorted" (List.sort compare keys)
    (List.map fst (Btree.to_list a t));
  Alcotest.(check bool) "invariants" true (Btree.check_invariants a t = Ok ())

let test_btree_overwrite () =
  let cluster, a, _ = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  for k = 1 to 20 do
    Btree.insert a t ~key:k ~value:k
  done;
  Btree.insert a t ~key:7 ~value:700;
  Alcotest.(check (option int)) "overwritten" (Some 700) (Btree.search a t ~key:7);
  Alcotest.(check int) "no duplicate" 20 (Btree.cardinal a t)

let test_btree_sequential_and_reverse () =
  let cluster, a, _ = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  for k = 1 to 100 do
    Btree.insert a t ~key:k ~value:k
  done;
  let t2 = Btree.create a in
  for k = 100 downto 1 do
    Btree.insert a t2 ~key:k ~value:k
  done;
  Alcotest.(check bool) "asc invariants" true (Btree.check_invariants a t = Ok ());
  Alcotest.(check bool) "desc invariants" true (Btree.check_invariants a t2 = Ok ());
  Alcotest.(check int) "asc card" 100 (Btree.cardinal a t);
  Alcotest.(check (list (pair int int))) "same contents" (Btree.to_list a t)
    (Btree.to_list a t2)

let test_btree_range_count () =
  let cluster, a, _ = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  for k = 0 to 99 do
    Btree.insert a t ~key:(k * 2) ~value:k (* even keys 0..198 *)
  done;
  Alcotest.(check int) "full" 100 (Btree.range_count a t ~lo:0 ~hi:198);
  Alcotest.(check int) "window" 11 (Btree.range_count a t ~lo:40 ~hi:60);
  Alcotest.(check int) "odd window" 10 (Btree.range_count a t ~lo:41 ~hi:60);
  Alcotest.(check int) "empty" 0 (Btree.range_count a t ~lo:199 ~hi:500)

let test_btree_remote_insert_homed_at_owner () =
  let cluster, a, b = mk2 () in
  Btree.register_types cluster;
  let t = Btree.create a in
  Btree.insert a t ~key:1 ~value:10;
  let blocks_before = Allocator.live_blocks (Node.heap b) in
  Node.register b "grow" (fun node args ->
      let t = Access.of_value (List.hd args) in
      for k = 2 to 40 do
        Btree.insert node t ~key:k ~value:(k * 10)
      done;
      []);
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "grow" [ Access.to_value t ]));
  (* all new nodes live in A's heap; B allocated nothing *)
  Alcotest.(check int) "worker heap untouched" blocks_before
    (Allocator.live_blocks (Node.heap b));
  Alcotest.(check int) "all present at owner" 40 (Btree.cardinal a t);
  Alcotest.(check bool) "owner invariants" true (Btree.check_invariants a t = Ok ());
  List.iter
    (fun k ->
      Alcotest.(check (option int)) (string_of_int k) (Some (k * 10))
        (Btree.search a t ~key:k))
    [ 2; 17; 40 ]

let test_btree_remote_point_lookup_is_partial () =
  let cluster, a, b = mk2 ~strategy:(Strategy.smart ~closure_size:256 ()) () in
  Btree.register_types cluster;
  let t = Btree.create a in
  for k = 0 to 1999 do
    Btree.insert a t ~key:k ~value:(k + 1000)
  done;
  Node.register b "lookup" (fun node args ->
      match args with
      | [ tv; kv ] -> (
        match Btree.search node (Access.of_value tv) ~key:(Value.to_int kv) with
        | Some v -> [ Value.int v ]
        | None -> [ Value.int (-1) ])
      | _ -> assert false);
  Node.register b "scan" (fun node args ->
      [ Value.int (Btree.cardinal node (Access.of_value (List.hd args))) ]);
  let lookup_bytes = ref 0 in
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "lookup" [ Access.to_value t; Value.int 777 ]
       with
      | [ v ] -> Alcotest.(check int) "found" 1777 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      lookup_bytes := (Stats.diff (Cluster.snapshot cluster) s0).Stats.bytes);
  (* fresh session so the scan cannot reuse the lookup's cache *)
  Node.with_session a (fun () ->
      let s0 = Cluster.snapshot cluster in
      (match Node.call a ~dst:(Node.id b) "scan" [ Access.to_value t ] with
      | [ v ] -> Alcotest.(check int) "cardinal" 2000 (Value.to_int v)
      | _ -> Alcotest.fail "arity");
      let scan_bytes = (Stats.diff (Cluster.snapshot cluster) s0).Stats.bytes in
      Alcotest.(check bool) "point lookup moves far less than a scan" true
        (!lookup_bytes * 3 < scan_bytes))

(* --- ascii plots --- *)

let test_plot_renders_axes_and_legend () =
  let s =
    Ascii_plot.render ~width:30 ~height:8 ~x_label:"ratio" ~y_label:"seconds"
      [
        { Ascii_plot.label = "alpha"; points = [ (0.0, 0.0); (0.5, 2.0); (1.0, 4.0) ] };
        { Ascii_plot.label = "beta"; points = [ (0.0, 4.0); (1.0, 0.0) ] };
      ]
  in
  let has needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "y label" true (has "seconds");
  Alcotest.(check bool) "x label" true (has "ratio");
  Alcotest.(check bool) "legend alpha" true (has "* = alpha");
  Alcotest.(check bool) "legend beta" true (has "+ = beta");
  Alcotest.(check bool) "max y annotated" true (has "4.000");
  Alcotest.(check bool) "markers present" true (has "*" && has "+")

let test_plot_handles_degenerate_inputs () =
  Alcotest.(check string) "no data" "(no data)
" (Ascii_plot.render []);
  (* a single constant series must not divide by zero *)
  let s =
    Ascii_plot.render ~width:10 ~height:4
      [ { Ascii_plot.label = "flat"; points = [ (1.0, 2.0); (1.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.length s > 10)

let test_plot_marker_within_grid () =
  (* extremes map inside the plot area *)
  let s =
    Ascii_plot.render ~width:12 ~height:5
      [ { Ascii_plot.label = "s"; points = [ (0.0, 0.0); (10.0, 100.0) ] } ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) "line width bounded" true (String.length line < 12 + 30))
    (String.split_on_char '
' s)

(* --- experiment harness at small scale --- *)

let test_run_tree_search_visits_expected () =
  let r =
    Experiments.run_tree_search
      ~strategy:(Experiments.strategy_of_method Experiments.Fully_lazy)
      ~depth:7 ~ratio:0.5 ()
  in
  Alcotest.(check int) "half of 127" 64 r.Experiments.visited;
  Alcotest.(check int) "lazy: callback per node" 64 r.Experiments.stats.callbacks

let test_fig4_ordering_small () =
  (* scale-robust qualitative checks (the full crossover needs the
     paper's 32k-node scale, exercised by the bench harness): the lazy
     method is callback-bound and worst at full ratio; the proposed
     method needs orders of magnitude fewer callbacks; eager never
     faults *)
  let rows = Experiments.fig4 ~depth:11 ~ratios:[ 0.3; 1.0 ] ~closure:1024 () in
  match rows with
  | [ r03; r10 ] ->
    Alcotest.(check bool) "proposed needs far fewer callbacks" true
      (10 * r03.Experiments.proposed.Experiments.stats.callbacks
      < r03.Experiments.lazy_.Experiments.stats.callbacks);
    Alcotest.(check int) "eager never faults" 0
      r03.Experiments.eager.Experiments.stats.faults;
    Alcotest.(check bool) "lazy worst at 1.0 vs eager" true
      (r10.Experiments.lazy_.Experiments.seconds
      > r10.Experiments.eager.Experiments.seconds);
    Alcotest.(check bool) "lazy worst at 1.0 vs proposed" true
      (r10.Experiments.lazy_.Experiments.seconds
      > r10.Experiments.proposed.Experiments.seconds)
  | _ -> Alcotest.fail "rows"

let test_fig7_update_costs_more () =
  let rows = Experiments.fig7 ~depth:9 ~ratios:[ 0.5 ] ~closure:1024 () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "update slower" true
      (r.Experiments.updated.Experiments.seconds
      > r.Experiments.not_updated.Experiments.seconds);
    Alcotest.(check bool) "but bounded (< 3x)" true
      (r.Experiments.updated.Experiments.seconds
      < 3.0 *. r.Experiments.not_updated.Experiments.seconds)
  | _ -> Alcotest.fail "rows"

let test_ablation_batching_fewer_messages () =
  match Experiments.ablation_alloc_batching ~cells:60 () with
  | [ (true, b); (false, i) ] | [ (false, i); (true, b) ] ->
    Alcotest.(check bool) "batching cuts messages" true
      (b.Experiments.stats.messages < i.Experiments.stats.messages);
    Alcotest.(check int) "same survivors" b.Experiments.visited i.Experiments.visited
  | _ -> Alcotest.fail "rows"

let test_ablation_grain_twin_ships_less () =
  match Experiments.ablation_writeback_grain ~depth:9 ~stride:16 () with
  | [ (Strategy.Page_grain, pg); (Strategy.Twin_diff, td) ] ->
    Alcotest.(check bool) "twin-diff ships fewer bytes" true
      (td.Experiments.stats.bytes < pg.Experiments.stats.bytes);
    Alcotest.(check int) "same updates applied" pg.Experiments.visited
      td.Experiments.visited
  | _ -> Alcotest.fail "rows"

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_ablation_page_size_tradeoff () =
  match Experiments.ablation_page_size ~depth:10 ~page_sizes:[ 512; 4096 ] () with
  | [ (_, small); (_, large) ] ->
    Alcotest.(check bool) "small pages fetch less" true
      (small.Experiments.stats.bytes < large.Experiments.stats.bytes);
    Alcotest.(check bool) "small pages need more round trips" true
      (small.Experiments.stats.callbacks > large.Experiments.stats.callbacks)
  | _ -> Alcotest.fail "rows"

let test_table1_renders () =
  let s = Format.asprintf "%a" (fun ppf () -> Experiments.table1 ppf ()) () in
  Alcotest.(check bool) "has header" true (contains_substring s "long pointer")

(* The offload header reports the sessions each adaptive point ran, not
   how many points there are; the scaling header is one clean line. *)
let test_printed_headers () =
  let points =
    Experiments.offload_adaptive_sweep ~depth:6 ~sessions:6
      ~repeat_points:[ 1; 2 ] ()
  in
  let s = Format.asprintf "%a" Experiments.pp_offload ([], points) in
  Alcotest.(check bool) "6 sessions each" true
    (contains_substring s "6 sessions each");
  let s = Format.asprintf "%a" Experiments.pp_scaling [] in
  Alcotest.(check bool) "scaling header" true
    (contains_substring s "(30% read, 10% update)")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "tree",
        [
          tc "build shape" `Quick test_tree_build_shape;
          tc "empty tree" `Quick test_tree_empty;
          tc "preorder visit and sum" `Quick test_tree_visit_preorder_sum;
          tc "visit_update increments" `Quick test_tree_visit_update_increments;
          tc "descend paths" `Quick test_tree_descend_paths;
          tc "free releases all" `Quick test_tree_free_releases_all;
          tc "remote search, all methods agree" `Quick
            test_tree_remote_search_all_methods;
        ] );
      ( "linked-list",
        [
          tc "roundtrip" `Quick test_list_roundtrip;
          tc "empty" `Quick test_list_empty;
          tc "nth" `Quick test_list_nth;
          tc "map in place" `Quick test_list_map_in_place;
          tc "remote map writes back" `Quick test_list_remote_map;
          tc "append with remote home" `Quick test_list_append_remote_home;
        ] );
      ( "hash-table",
        [
          tc "insert/lookup with chains" `Quick test_hash_insert_lookup;
          tc "shadowing and remove" `Quick test_hash_shadowing_and_remove;
          tc "negative keys" `Quick test_hash_negative_keys;
          tc "remote lookup is cheap (lazy case)" `Quick
            test_hash_remote_lookup_is_cheap;
        ] );
      ( "graph",
        [
          tc "deterministic build" `Quick test_graph_deterministic;
          tc "chain keeps all reachable" `Quick test_graph_all_reachable_via_chain;
          tc "remote walk with cycles, all methods" `Quick
            test_graph_remote_walk_with_cycles;
        ] );
      ( "matrix",
        [
          tc "local roundtrip across tiles" `Quick test_matrix_local_roundtrip;
          tc "bounds checks" `Quick test_matrix_bounds;
          tc "remote row sum is partial" `Quick test_matrix_row_sum_touches_one_tile_row;
          tc "remote scale writes back" `Quick test_matrix_remote_scale_writes_back;
          tc "frobenius remote = local (eager)" `Quick
            test_matrix_frobenius_remote_equals_local;
        ] );
      ( "btree",
        [
          tc "empty tree" `Quick test_btree_empty;
          tc "insert and search" `Quick test_btree_insert_search;
          tc "overwrite" `Quick test_btree_overwrite;
          tc "sequential asc/desc" `Quick test_btree_sequential_and_reverse;
          tc "range count" `Quick test_btree_range_count;
          tc "remote insert homed at owner" `Quick test_btree_remote_insert_homed_at_owner;
          tc "remote point lookup is partial" `Quick
            test_btree_remote_point_lookup_is_partial;
        ] );
      ( "ascii-plot",
        [
          tc "axes and legend" `Quick test_plot_renders_axes_and_legend;
          tc "degenerate inputs" `Quick test_plot_handles_degenerate_inputs;
          tc "bounded grid" `Quick test_plot_marker_within_grid;
        ] );
      ( "experiments",
        [
          tc "run_tree_search counts" `Quick test_run_tree_search_visits_expected;
          tc "fig4 ordering (small)" `Quick test_fig4_ordering_small;
          tc "fig7 update costs more" `Quick test_fig7_update_costs_more;
          tc "A3 batching cuts messages" `Quick test_ablation_batching_fewer_messages;
          tc "A4 twin-diff ships less" `Quick test_ablation_grain_twin_ships_less;
          tc "A6 page-size trade-off" `Quick test_ablation_page_size_tradeoff;
          tc "table1 renders" `Quick test_table1_renders;
          tc "printed headers" `Quick test_printed_headers;
        ] );
    ]

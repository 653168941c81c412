open Srpc_core
open Srpc_memory
open Srpc_simnet

type run = {
  seconds : float;
  stats : Stats.snapshot;
  visited : int;
  cache_pages : int;
}

type method_kind = Fully_eager | Fully_lazy | Proposed of int

let method_name = function
  | Fully_eager -> "fully-eager"
  | Fully_lazy -> "fully-lazy"
  | Proposed c -> Printf.sprintf "proposed(%dB)" c

let strategy_of_method = function
  | Fully_eager -> Strategy.fully_eager
  | Fully_lazy -> Strategy.fully_lazy
  | Proposed closure_size -> Strategy.smart ~closure_size ()

(* --- the measured region and the measured session --- *)

(* [f]'s result, the change of every counter across it and the simulated
   seconds it took. Every harness measures through this one region. *)
let region cluster f =
  let mark () =
    let s = Cluster.snapshot cluster in
    (s, Cluster.now cluster)
  in
  let s0, t0 = mark () in
  let x = f () in
  let s1, t1 = mark () in
  (x, Stats.diff s1 s0, t1 -. t0)

(* Open a session on [ground], measure [f] and close the session. [f]'s
   result, mapped by [count], is the run's [visited]; [cacher]'s cache is
   the working set reported (none: 0 pages). Both are read after [f] and
   before the close. [setup] runs inside the session, before the region.
   The region ends before the close, unless [through_close] puts the
   close's write-back and invalidation traffic inside it. *)
let measure_session ?(through_close = false) ?(setup = ignore) ?cacher
    ?(count = Fun.id) cluster ~ground f =
  let inspect v =
    ( count v,
      match cacher with Some n -> Cache.used_pages (Node.cache n) | None -> 0 )
  in
  Node.begin_session ground;
  setup ();
  let (visited, cache_pages), stats, seconds =
    if through_close then
      region cluster (fun () ->
          let r = inspect (f ()) in
          Node.end_session ground;
          r)
    else begin
      let v, stats, seconds = region cluster f in
      let r = inspect v in
      Node.end_session ground;
      (r, stats, seconds)
    end
  in
  { seconds; stats; visited; cache_pages }

(* A fresh cluster with sites 1 and 2 under one strategy. *)
let two_sites ?policy ~strategy () =
  let cluster = Cluster.create ?policy () in
  let a = Cluster.add_node cluster ~site:1 ~strategy () in
  let b = Cluster.add_node cluster ~site:2 ~strategy () in
  (cluster, a, b)

(* The one result of calling [proc] on [dst]. *)
let call1 node ~dst proc args =
  match Node.call node ~dst proc args with
  | [ v ] -> v
  | _ -> failwith (proc ^ ": bad result arity")

let set_link cluster a b cost =
  let tr = Cluster.transport cluster in
  let a = Space_id.to_string (Node.id a) and b = Space_id.to_string (Node.id b) in
  Transport.set_link_cost tr ~src:a ~dst:b cost;
  Transport.set_link_cost tr ~src:b ~dst:a cost

(* --- the tree search of Figs. 4-7 --- *)

let search_proc = "search_tree"

(* The paper's two-site setup: caller site 1 owns a depth-[depth] tree
   and callee site 2 serves [search_tree (root, limit, update)], visiting
   [limit] = [ratio] of the nodes depth-first. [search ~update] makes one
   such call and returns the visit count. With [always_update] the
   procedure takes (root, limit) and always updates, so no bool travels
   in the call frame. *)
let tree_pair ?policy ?fault_plan ?(arches = (Arch.sparc32, Arch.sparc32))
    ?page_size ?link_cost ?(always_update = false) ~strategy ~depth ~ratio () =
  let cluster = Cluster.create ?policy () in
  Option.iter (Cluster.install_faults cluster) fault_plan;
  let caller_arch, callee_arch = arches in
  let caller =
    Cluster.add_node cluster ~site:1 ~arch:caller_arch ~strategy ?page_size ()
  in
  let callee =
    Cluster.add_node cluster ~site:2 ~arch:callee_arch ~strategy ?page_size ()
  in
  Option.iter (set_link cluster caller callee) link_cost;
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  Node.register callee search_proc (fun node args ->
      let rootv, limitv, update =
        match args with
        | [ rootv; limitv ] when always_update -> (rootv, limitv, true)
        | [ rootv; limitv; updatev ] when not always_update ->
          (rootv, limitv, Value.to_bool updatev)
        | _ -> invalid_arg (search_proc ^ ": bad arguments")
      in
      let visit = if update then Tree.visit_update else Tree.visit in
      let visited, _sum =
        visit node (Access.of_value rootv) ~limit:(Value.to_int limitv)
      in
      [ Value.int visited ]);
  let total = Tree.nodes_of_depth depth in
  let limit = int_of_float (Float.round (ratio *. float_of_int total)) in
  let search ~update =
    let args = [ Access.to_value root; Value.int limit ] in
    Value.to_int
      (call1 caller ~dst:(Node.id callee) search_proc
         (if always_update then args else args @ [ Value.bool update ]))
  in
  (cluster, caller, callee, search)

let run_tree_search ?(update = false) ?(repeats = 1) ?arches ?link_cost
    ?page_size ?fault_plan ~strategy ~depth ~ratio () =
  let cluster, caller, callee, search =
    tree_pair ?fault_plan ?arches ?page_size ?link_cost ~strategy ~depth ~ratio ()
  in
  let r =
    measure_session cluster ~ground:caller ~cacher:callee (fun () ->
        let visited = ref 0 in
        for _ = 1 to repeats do
          visited := search ~update
        done;
        !visited)
  in
  (* the figures' unit is one RPC *)
  { r with seconds = r.seconds /. float_of_int repeats }

(* --- Fig. 4 / Fig. 5 --- *)

type fig4_row = { ratio : float; eager : run; lazy_ : run; proposed : run }

let default_ratios = List.init 11 (fun i -> float_of_int i /. 10.0)

let fig4_point ?link_cost ~depth ~closure ratio =
  let go m =
    run_tree_search ?link_cost ~strategy:(strategy_of_method m) ~depth ~ratio ()
  in
  {
    ratio;
    eager = go Fully_eager;
    lazy_ = go Fully_lazy;
    proposed = go (Proposed closure);
  }

let fig4 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192) () =
  List.map (fig4_point ~depth ~closure) ratios

(* --- Fig. 6 --- *)

type fig6_row = { closure_bytes : int; by_depth : (int * run) list }

let default_closures = [ 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]

let closure_sweep ~depths ~closures run =
  List.map
    (fun closure_bytes ->
      let strategy = strategy_of_method (Proposed closure_bytes) in
      {
        closure_bytes;
        by_depth = List.map (fun depth -> (depth, run ~strategy ~depth)) depths;
      })
    closures

let fig6 ?(depths = [ 14; 15; 16 ]) ?(closures = default_closures)
    ?(repeats = 10) () =
  closure_sweep ~depths ~closures (fun ~strategy ~depth ->
      run_tree_search ~strategy ~repeats ~depth ~ratio:1.0 ())

(* Fig. 6, descent reading: 10 pseudo-random root-to-leaf paths per
   call. *)
let descend_proc = "descend_paths"

let run_tree_descents ~strategy ~depth ~paths =
  let cluster, caller, callee = two_sites ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  Node.register callee descend_proc (fun node args ->
      match args with
      | [ rootv; nv ] ->
        let root = Access.of_value rootv in
        let n = Value.to_int nv in
        let seen = ref 0 in
        for k = 1 to n do
          (* deterministic scrambled paths *)
          let path = k * 2654435761 in
          let count, _ = Tree.descend node root ~path in
          seen := !seen + count
        done;
        [ Value.int !seen ]
      | _ -> invalid_arg (descend_proc ^ ": expected (root, paths)"));
  measure_session cluster ~ground:caller ~cacher:callee (fun () ->
      Value.to_int
        (call1 caller ~dst:(Node.id callee) descend_proc
           [ Access.to_value root; Value.int paths ]))

let fig6_descents ?(depths = [ 14; 15; 16 ]) ?(closures = default_closures)
    ?(paths = 10) () =
  closure_sweep ~depths ~closures (fun ~strategy ~depth ->
      run_tree_descents ~strategy ~depth ~paths)

(* --- Fig. 7 --- *)

type fig7_row = { ratio7 : float; updated : run; not_updated : run }

let fig7 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192) () =
  let strategy = strategy_of_method (Proposed closure) in
  let point ratio7 =
    {
      ratio7;
      updated = run_tree_search ~update:true ~strategy ~depth ~ratio:ratio7 ();
      not_updated = run_tree_search ~update:false ~strategy ~depth ~ratio:ratio7 ();
    }
  in
  List.map point ratios

(* --- A1: allocation strategy under a two-origin interleaved walk --- *)

let merge_proc = "merge_walk"
let give_root_proc = "give_root"

(* [owner] serves [give_root], handing [root] to whoever asks;
   [fetch_root node ~owner] asks. *)
let serve_root owner root =
  Node.register owner give_root_proc (fun _node _args -> [ Access.to_value root ])

let fetch_root node ~owner = call1 node ~dst:(Node.id owner) give_root_proc []

(* Partial lockstep walk over two trees owned by different spaces, with a
   small closure: placement policy then decides whether a faulting page
   holds one origin's data (one fetch) or a mixture (a fetch per origin),
   and how many pages the working set occupies. *)
let run_merge_walk ~grouping ~depth =
  let strategy =
    { (Strategy.smart ~closure_size:1024 ()) with Strategy.grouping }
  in
  let cluster, owner_a, owner_b = two_sites ~strategy () in
  let walker = Cluster.add_node cluster ~site:3 ~strategy () in
  Tree.register_types cluster;
  let root_a = Tree.build owner_a ~depth in
  let root_b = Tree.build owner_b ~depth in
  Node.register walker merge_proc (fun node args ->
      match args with
      | [ a; b; limitv ] ->
        (* Lockstep DFS over both trees: the access stream interleaves
           the two origins, which is what distinguishes the placement
           heuristics. The limit keeps the access partial so placement
           waste is visible. *)
        let pa = Access.of_value a and pb = Access.of_value b in
        let limit = Value.to_int limitv in
        let sum = ref 0 in
        let steps = ref 0 in
        let rec go p q =
          let live r = not (Access.is_null r) in
          if !steps < limit && (live p || live q) then begin
            incr steps;
            if live p then sum := !sum + Access.get_int node p ~field:"data";
            if live q then sum := !sum + Access.get_int node q ~field:"data";
            let child r f =
              if live r then Access.get_ptr node r ~field:f
              else Access.null ~ty:Tree.type_name
            in
            go (child p "left") (child q "left");
            go (child p "right") (child q "right")
          end
        in
        go pa pb;
        [ Value.int !sum ]
      | _ -> invalid_arg (merge_proc ^ ": expected two roots"));
  serve_root owner_b root_b;
  (* Ground thread is owner A (it also owns data), calling the walker.
     B's root is handed to A first, unmeasured, so A can pass both
     pointers on. *)
  let root_b_at_a = ref Value.unit in
  measure_session cluster ~ground:owner_a ~cacher:walker
    ~setup:(fun () ->
      root_b_at_a := fetch_root owner_a ~owner:owner_b)
    (fun () ->
      Value.to_int
        (call1 owner_a ~dst:(Node.id walker) merge_proc
           [
             Access.to_value root_a;
             !root_b_at_a;
             Value.int (Tree.nodes_of_depth depth * 2 / 5);
           ]))

let ablation_alloc_strategy ?(depth = 11) () =
  List.map
    (fun grouping -> (grouping, run_merge_walk ~grouping ~depth))
    [ Strategy.By_origin; Strategy.Sequential; Strategy.By_type ]

(* --- A2: closure traversal order under a partial DFS consumer --- *)

let ablation_closure_shape ?(depth = 13) ?(ratio = 0.3) ?(closure = 2048) () =
  (* Entry-per-page placement isolates the closure traversal order from
     page-grain fetch amplification: each fault requests exactly one
     datum plus a closure in the configured order, so a depth-first
     closure tracks the depth-first consumer and a breadth-first one
     wastes breadth on unvisited subtrees. *)
  let go order =
    let strategy =
      {
        (Strategy.smart ~closure_size:closure ()) with
        Strategy.order;
        grouping = Strategy.Entry_per_page;
      }
    in
    (order, run_tree_search ~strategy ~depth ~ratio ())
  in
  [ go Strategy.Breadth_first; go Strategy.Depth_first ]

(* --- A3: remote allocation batching --- *)

let grow_proc = "grow_list"

let run_remote_growth ~batched ~cells =
  let strategy = { (Strategy.smart ()) with Strategy.batch_remote_ops = batched } in
  let cluster, owner, worker = two_sites ~strategy () in
  Linked_list.register_types cluster;
  Node.register worker grow_proc (fun node args ->
      match args with
      | [ n ] ->
        (* Allocate a list whose home is the caller's space, then release
           every other cell: exercises both batched primitives. *)
        let n = Value.to_int n in
        let home = Space_id.make ~site:1 ~proc:0 in
        let head =
          Linked_list.append node (Access.null ~ty:Linked_list.type_name) ~home
            (List.init n (fun i -> i))
        in
        let rec thin i p =
          if not (Access.is_null p) then begin
            let next = Access.get_ptr node p ~field:"next" in
            if i mod 2 = 1 then begin
              let after =
                if Access.is_null next then next
                else Access.get_ptr node next ~field:"next"
              in
              Access.set_ptr node p ~field:"next" after;
              if not (Access.is_null next) then
                Node.extended_free node next.Access.addr;
              thin (i + 2) after
            end
            else thin (i + 1) next
          end
        in
        thin 1 head;
        [ Access.to_value head ]
      | _ -> invalid_arg (grow_proc ^ ": expected cell count"));
  (* the call returns the list head's address; the survivors are counted
     at the home after the region, so that walk is not measured *)
  measure_session cluster ~ground:owner ~cacher:worker
    ~count:(fun head ->
      Linked_list.length owner (Access.ptr ~ty:Linked_list.type_name head))
    (fun () ->
      let head = call1 owner ~dst:(Node.id worker) grow_proc [ Value.int cells ] in
      (Access.of_value head).Access.addr)

let ablation_alloc_batching ?(cells = 400) () =
  List.map
    (fun batched -> (batched, run_remote_growth ~batched ~cells))
    [ true; false ]

(* --- A4: write-back granularity under sparse updates --- *)

let sparse_proc = "sparse_update"

let run_sparse_update ~grain ~depth ~stride =
  let strategy = { (Strategy.smart ()) with Strategy.grain } in
  let cluster, owner, worker = two_sites ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build owner ~depth in
  Node.register worker sparse_proc (fun node args ->
      match args with
      | [ rootv; stridev ] ->
        let stride = Value.to_int stridev in
        let count = ref 0 in
        let touched = ref 0 in
        let rec go p =
          if not (Access.is_null p) then begin
            let d = Access.get_int node p ~field:"data" in
            if !count mod stride = 0 then begin
              Access.set_int node p ~field:"data" (d + 1000);
              incr touched
            end;
            incr count;
            go (Access.get_ptr node p ~field:"left");
            go (Access.get_ptr node p ~field:"right")
          end
        in
        go (Access.of_value rootv);
        [ Value.int !touched ]
      | _ -> invalid_arg (sparse_proc ^ ": expected (root, stride)"));
  measure_session cluster ~ground:owner ~cacher:worker (fun () ->
      Value.to_int
        (call1 owner ~dst:(Node.id worker) sparse_proc
           [ Access.to_value root; Value.int stride ]))

let ablation_writeback_grain ?(depth = 12) ?(stride = 16) () =
  List.map
    (fun grain -> (grain, run_sparse_update ~grain ~depth ~stride))
    [ Strategy.Page_grain; Strategy.Twin_diff ]

(* --- A5: programmer closure hints (paper section 6) --- *)

let rcell_ty = "rcell"
let blob_ty = "blob"
let chain_proc = "walk_chain"

(* A5's two-site chain: owner site 1 builds [cells] rcells, each pointing
   at a 512-byte blob, and walker site 2 serves [walk_chain], summing the
   tags without touching a blob. Returns the cluster and one measured
   session of the walk. *)
let chain_pair ?policy ~strategy ~hinted ~cells () =
  let cluster, owner, walker = two_sites ?policy ~strategy () in
  Cluster.register_type cluster blob_ty
    (Srpc_types.Type_desc.Struct
       [ ("payload", Srpc_types.Type_desc.Array (Srpc_types.Type_desc.f64, 64)) ]);
  Cluster.register_type cluster rcell_ty
    (Srpc_types.Type_desc.Struct
       [
         ("next", Srpc_types.Type_desc.ptr rcell_ty);
         ("blob", Srpc_types.Type_desc.ptr blob_ty);
         ("tag", Srpc_types.Type_desc.i64);
       ]);
  if hinted then
    Cluster.set_closure_hint cluster ~ty:rcell_ty
      { Hints.follow = [ "next" ]; prune_others = true };
  let head = ref (Access.null ~ty:rcell_ty) in
  for i = cells - 1 downto 0 do
    let cell = Access.ptr ~ty:rcell_ty (Node.malloc owner ~ty:rcell_ty) in
    let blob = Access.ptr ~ty:blob_ty (Node.malloc owner ~ty:blob_ty) in
    Access.set_ptr owner cell ~field:"next" !head;
    Access.set_ptr owner cell ~field:"blob" blob;
    Access.set_int owner cell ~field:"tag" i;
    head := cell
  done;
  Node.register walker chain_proc (fun node args ->
      let rec go p acc =
        if Access.is_null p then acc
        else
          go (Access.get_ptr node p ~field:"next")
            (acc + Access.get_int node p ~field:"tag")
      in
      [ Value.int (go (Access.of_value (List.hd args)) 0) ]);
  let session () =
    measure_session cluster ~ground:owner ~cacher:walker (fun () ->
        let sum =
          Value.to_int
            (call1 owner ~dst:(Node.id walker) chain_proc [ Access.to_value !head ])
        in
        assert (sum = cells * (cells - 1) / 2);
        cells)
  in
  (cluster, session)

let run_chain_walk ~hinted ~cells ~closure =
  (* By-type placement keeps payload blobs on their own cache pages;
     otherwise page-grain fetching would drag them over regardless of
     what the closure engine skips. *)
  let strategy =
    { (Strategy.smart ~closure_size:closure ()) with Strategy.grouping = Strategy.By_type }
  in
  let _, session = chain_pair ~strategy ~hinted ~cells () in
  session ()

let ablation_closure_hints ?(cells = 400) ?(closure = 4096) () =
  List.map
    (fun hinted -> (hinted, run_chain_walk ~hinted ~cells ~closure))
    [ false; true ]

(* --- derived: Fig. 4 behind a WAN link --- *)

let fig4_wan ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192)
    ?(latency_factor = 50.0) () =
  let lan = Cost_model.sparc_10mbps in
  let wan =
    { lan with Cost_model.message_latency = lan.Cost_model.message_latency *. latency_factor }
  in
  List.map (fig4_point ~link_cost:wan ~depth ~closure) ratios

(* --- rendering --- *)

let pp_fig4 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 4 — processing time (s) vs access ratio@,";
  Format.fprintf ppf "%8s %12s %12s %12s@," "ratio" "fully-eager" "fully-lazy"
    "proposed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12.3f %12.3f %12.3f@," r.ratio r.eager.seconds
        r.lazy_.seconds r.proposed.seconds)
    rows;
  Format.fprintf ppf "@]"

let pp_fig5 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 5 — callbacks vs access ratio@,";
  Format.fprintf ppf "%8s %12s %12s@," "ratio" "fully-lazy" "proposed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12d %12d@," r.ratio r.lazy_.stats.callbacks
        r.proposed.stats.callbacks)
    rows;
  Format.fprintf ppf "@]"

let pp_fig6 ppf rows =
  Format.fprintf ppf
    "@[<v>Fig. 6 — processing time (s) vs closure size (10 repeated searches)@,";
  let header () =
    match rows with
    | [] -> ()
    | r :: _ ->
      Format.fprintf ppf "%12s" "closure";
      List.iter
        (fun (d, _) -> Format.fprintf ppf " %11d" (Tree.nodes_of_depth d))
        r.by_depth;
      Format.fprintf ppf "@,"
  in
  header ();
  List.iter
    (fun r ->
      Format.fprintf ppf "%11dB" r.closure_bytes;
      List.iter (fun (_, run) -> Format.fprintf ppf " %11.3f" run.seconds) r.by_depth;
      Format.fprintf ppf "@,")
    rows;
  (* the working-set side of the same sweep (paper section 6 discusses
     the allocation/working-set trade-off) *)
  Format.fprintf ppf "@,callee cache working set (pages):@,";
  header ();
  List.iter
    (fun r ->
      Format.fprintf ppf "%11dB" r.closure_bytes;
      List.iter
        (fun (_, run) -> Format.fprintf ppf " %11d" run.cache_pages)
        r.by_depth;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let pp_fig7 ppf rows =
  Format.fprintf ppf "@[<v>Fig. 7 — update performance (s) vs update ratio@,";
  Format.fprintf ppf "%8s %12s %12s@," "ratio" "updated" "not-updated";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.2f %12.3f %12.3f@," r.ratio7 r.updated.seconds
        r.not_updated.seconds)
    rows;
  Format.fprintf ppf "@]"

let grouping_name = function
  | Strategy.By_origin -> "by-origin"
  | Strategy.Sequential -> "sequential"
  | Strategy.By_type -> "by-type"
  | Strategy.Entry_per_page -> "entry-per-page"

let pp_ablations ppf (a1, a2, a3, a4) =
  Format.fprintf ppf "@[<v>A1 — cache allocation strategy (two-origin walk)@,";
  Format.fprintf ppf "%16s %10s %10s %10s %12s@," "grouping" "time(s)" "msgs"
    "callbacks" "cache-pages";
  List.iter
    (fun (grouping, r) ->
      Format.fprintf ppf "%16s %10.3f %10d %10d %12d@," (grouping_name grouping)
        r.seconds r.stats.messages r.stats.callbacks r.cache_pages)
    a1;
  Format.fprintf ppf "@,A2 — closure shape (DFS consumer, 30%% of the tree)@,";
  Format.fprintf ppf "%16s %10s %12s %10s@," "order" "time(s)" "bytes" "callbacks";
  List.iter
    (fun (order, r) ->
      let name =
        match order with
        | Strategy.Breadth_first -> "breadth-first"
        | Strategy.Depth_first -> "depth-first"
      in
      Format.fprintf ppf "%16s %10.3f %12d %10d@," name r.seconds r.stats.bytes
        r.stats.callbacks)
    a2;
  Format.fprintf ppf "@,A3 — remote allocation batching (section 3.5)@,";
  Format.fprintf ppf "%16s %10s %10s %12s@," "mode" "time(s)" "msgs" "bytes";
  List.iter
    (fun (batched, r) ->
      Format.fprintf ppf "%16s %10.3f %10d %12d@,"
        (if batched then "batched" else "immediate")
        r.seconds r.stats.messages r.stats.bytes)
    a3;
  Format.fprintf ppf "@,A4 — write-back granularity (sparse updates)@,";
  Format.fprintf ppf "%16s %10s %12s %12s@," "grain" "time(s)" "bytes" "writebacks";
  List.iter
    (fun (grain, r) ->
      let name =
        match grain with
        | Strategy.Page_grain -> "page-grain"
        | Strategy.Twin_diff -> "twin-diff"
      in
      Format.fprintf ppf "%16s %10.3f %12d %12d@," name r.seconds r.stats.bytes
        r.stats.messages)
    a4;
  Format.fprintf ppf "@]"

(* --- derived: B-tree key-value store --- *)

type kv_row = { kv_method : method_kind; point : run; range : run; scan : run }

let kv_run ~strategy ~keys ~points ~phase =
  let cluster, owner, client = two_sites ~strategy () in
  Btree.register_types cluster;
  let t = Btree.create owner in
  for k = 0 to keys - 1 do
    Btree.insert owner t ~key:k ~value:(k * 3)
  done;
  Node.register client "points" (fun node args ->
      match args with
      | [ tv; nv ] ->
        let t = Access.of_value tv in
        let n = Value.to_int nv in
        let hits = ref 0 in
        for i = 1 to n do
          (* spread deterministic probes across the key space *)
          let k = i * 7919 mod keys in
          if Btree.search node t ~key:k = Some (k * 3) then incr hits
        done;
        [ Value.int !hits ]
      | _ -> assert false);
  Node.register client "range" (fun node args ->
      match args with
      | [ tv; lov; hiv ] ->
        [
          Value.int
            (Btree.range_count node (Access.of_value tv) ~lo:(Value.to_int lov)
               ~hi:(Value.to_int hiv));
        ]
      | _ -> assert false);
  Node.register client "scan" (fun node args ->
      [ Value.int (Btree.cardinal node (Access.of_value (List.hd args))) ]);
  let query proc args =
    Value.to_int (call1 owner ~dst:(Node.id client) proc (Access.to_value t :: args))
  in
  measure_session cluster ~ground:owner ~cacher:client (fun () ->
      match phase with
      | `Point ->
        let hits = query "points" [ Value.int points ] in
        assert (hits = points);
        hits
      | `Range -> query "range" [ Value.int (keys / 4); Value.int (keys / 2) ]
      | `Scan -> query "scan" [])

let kv_store ?(keys = 4000) ?(points = 20) ?(closure = 1024) () =
  let row m =
    let strategy = strategy_of_method m in
    {
      kv_method = m;
      point = kv_run ~strategy ~keys ~points ~phase:`Point;
      range = kv_run ~strategy ~keys ~points ~phase:`Range;
      scan = kv_run ~strategy ~keys ~points ~phase:`Scan;
    }
  in
  List.map row [ Fully_eager; Fully_lazy; Proposed closure ]

let pp_kv ppf rows =
  Format.fprintf ppf
    "@[<v>KV — remote B-tree store: 20 point lookups / range count / full scan@,";
  Format.fprintf ppf "%16s %12s %12s %12s@," "method" "points(s)" "range(s)"
    "scan(s)";
  List.iter
    (fun { kv_method; point; range; scan } ->
      Format.fprintf ppf "%16s %12.4f %12.4f %12.4f@," (method_name kv_method)
        point.seconds range.seconds scan.seconds)
    rows;
  Format.fprintf ppf "@]"

(* --- derived: session width scaling --- *)

let scaling_run ~depth ~sites =
  let strategy = Strategy.smart () in
  let cluster = Cluster.create () in
  let nodes =
    List.init sites (fun i -> Cluster.add_node cluster ~site:(i + 1) ~strategy ())
  in
  Tree.register_types cluster;
  let ground = List.hd nodes in
  let root = Tree.build ground ~depth in
  let total = Tree.nodes_of_depth depth in
  (* every intermediate site relays to the next; the last site does the
     work: visit 30%, update the first 10% *)
  let rec wire = function
    | [] | [ _ ] -> ()
    | this :: (next :: _ as rest) ->
      Node.register this "relay" (fun node args ->
          Node.call node ~dst:(Node.id next) "relay" args);
      wire rest
  in
  wire (List.tl nodes @ [ List.hd (List.rev nodes) ]);
  let last = List.hd (List.rev nodes) in
  Node.register last "relay" (fun node args ->
      let root = Access.of_value (List.hd args) in
      let _, _ = Tree.visit_update node root ~limit:(total / 10) in
      let visited, _ = Tree.visit node root ~limit:(3 * total / 10) in
      [ Value.int visited ]);
  measure_session cluster ~ground ~cacher:last (fun () ->
      if sites = 1 then 0
      else
        Value.to_int
          (call1 ground ~dst:(Node.id (List.nth nodes 1)) "relay"
             [ Access.to_value root ]))

let scaling ?(depth = 12) ?(max_sites = 8) () =
  List.init (max_sites - 1) (fun i ->
      let sites = i + 2 in
      (sites, scaling_run ~depth ~sites))

let pp_scaling ppf rows =
  Format.fprintf ppf
    "@[<v>SCALE — nested relay chain, work at the far end (30%% read, 10%% update)@,";
  Format.fprintf ppf "%8s %10s %10s %12s %10s@," "sites" "time(s)" "msgs" "bytes"
    "callbacks";
  List.iter
    (fun (sites, r) ->
      Format.fprintf ppf "%8d %10.3f %10d %12d %10d@," sites r.seconds
        r.stats.messages r.stats.bytes r.stats.callbacks)
    rows;
  Format.fprintf ppf "@]"

(* --- A6: page size = transfer granularity --- *)

let ablation_page_size ?(depth = 14) ?(ratio = 0.3) ?(closure = 2048)
    ?(page_sizes = [ 512; 1024; 2048; 4096; 8192; 16384 ]) () =
  List.map
    (fun page_bytes ->
      ( page_bytes,
        run_tree_search ~page_size:page_bytes
          ~strategy:(strategy_of_method (Proposed closure))
          ~depth ~ratio () ))
    page_sizes

let pp_page_rows ppf rows =
  Format.fprintf ppf
    "@[<v>A6 — page size as transfer granularity (30%% DFS, closure 2 KB)@,";
  Format.fprintf ppf "%10s %10s %12s %10s %12s@," "page" "time(s)" "bytes"
    "callbacks" "cache-pages";
  List.iter
    (fun (page_bytes, r) ->
      Format.fprintf ppf "%9dB %10.3f %12d %10d %12d@," page_bytes r.seconds
        r.stats.bytes r.stats.callbacks r.cache_pages)
    rows;
  Format.fprintf ppf "@]"

(* --- derived: hand-written protocols vs transparent pointers --- *)

type manual_row = {
  m_ratio : float;
  smart_rpc : run;
  manual_naive : run;
  manual_subtree : run;
}

(* The manual protocols pass raw addresses as plain integers and encode
   node contents as scalar results — no pointer machinery at all, which
   is exactly what a conventional RPC system forces on the programmer. *)
let run_manual ~variant ~depth ~ratio ~batch =
  let strategy = Strategy.smart () (* irrelevant: no pointers cross *) in
  let cluster, caller, callee = two_sites ~strategy () in
  Tree.register_types cluster;
  let root = Tree.build caller ~depth in
  let total = Tree.nodes_of_depth depth in
  let limit = int_of_float (Float.round (ratio *. float_of_int total)) in
  (* caller-side accessors working on its own raw memory *)
  let read_node node addr =
    let p = Access.ptr ~ty:Tree.type_name addr in
    ( Access.get_int node p ~field:"data",
      (Access.get_ptr node p ~field:"left").Access.addr,
      (Access.get_ptr node p ~field:"right").Access.addr )
  in
  Node.register caller "get_node" (fun node args ->
      let d, l, r = read_node node (Value.to_int (List.hd args)) in
      [ Value.int d; Value.int l; Value.int r ]);
  Node.register caller "get_subtree" (fun node args ->
      match args with
      | [ addrv; maxv ] ->
        (* preorder batch of up to max nodes: 4 ints per node *)
        let out = ref [] in
        let count = ref 0 in
        let max_nodes = Value.to_int maxv in
        let rec go addr =
          if addr <> 0 && !count < max_nodes then begin
            incr count;
            let d, l, r = read_node node addr in
            out := Value.int r :: Value.int l :: Value.int d :: Value.int addr :: !out;
            go l;
            go r
          end
        in
        go (Value.to_int addrv);
        List.rev !out
      | _ -> assert false);
  (* callee-side searches *)
  Node.register callee "search_naive" (fun node args ->
      match args with
      | [ rootv; limitv ] ->
        let limit = Value.to_int limitv in
        let visited = ref 0 in
        let rec go addr =
          if addr <> 0 && !visited < limit then begin
            incr visited;
            match Node.call node ~dst:(Node.id caller) "get_node" [ Value.int addr ]
            with
            | [ _d; l; r ] ->
              go (Value.to_int l);
              go (Value.to_int r)
            | _ -> assert false
          end
        in
        go (Value.to_int rootv);
        [ Value.int !visited ]
      | _ -> assert false);
  Node.register callee "search_subtree" (fun node args ->
      match args with
      | [ rootv; limitv; batchv ] ->
        let limit = Value.to_int limitv in
        let batch = Value.to_int batchv in
        (* local cache of fetched nodes, hand-rolled *)
        let known : (int, int * int * int) Hashtbl.t = Hashtbl.create 256 in
        let fetch addr =
          match
            Node.call node ~dst:(Node.id caller) "get_subtree"
              [ Value.int addr; Value.int batch ]
          with
          | vs ->
            let rec install = function
              | a :: d :: l :: r :: rest ->
                Hashtbl.replace known (Value.to_int a)
                  (Value.to_int d, Value.to_int l, Value.to_int r);
                install rest
              | [] -> ()
              | _ -> assert false
            in
            install vs
        in
        let visited = ref 0 in
        let rec go addr =
          if addr <> 0 && !visited < limit then begin
            if not (Hashtbl.mem known addr) then fetch addr;
            incr visited;
            Node.charge_touch node;
            let _, l, r = Hashtbl.find known addr in
            go l;
            go r
          end
        in
        go (Value.to_int rootv);
        [ Value.int !visited ]
      | _ -> assert false);
  let proc, args =
    match variant with
    | `Naive -> ("search_naive", [ Value.int root.Access.addr; Value.int limit ])
    | `Subtree ->
      ( "search_subtree",
        [ Value.int root.Access.addr; Value.int limit; Value.int batch ] )
  in
  (* no pointer crosses, so no cache is reported: 0 pages *)
  measure_session cluster ~ground:caller (fun () ->
      Value.to_int (call1 caller ~dst:(Node.id callee) proc args))

let manual_comparison ?(depth = 15) ?(ratios = [ 0.1; 0.3; 0.6; 1.0 ])
    ?(closure = 8192) () =
  let batch = closure / 16 (* same data budget per round trip *) in
  List.map
    (fun m_ratio ->
      {
        m_ratio;
        smart_rpc =
          run_tree_search
            ~strategy:(strategy_of_method (Proposed closure))
            ~depth ~ratio:m_ratio ();
        manual_naive = run_manual ~variant:`Naive ~depth ~ratio:m_ratio ~batch;
        manual_subtree = run_manual ~variant:`Subtree ~depth ~ratio:m_ratio ~batch;
      })
    ratios

let pp_manual ppf rows =
  Format.fprintf ppf
    "@[<v>MANUAL — transparent pointers vs hand-written protocols (section 2)@,";
  Format.fprintf ppf "%8s %14s %14s %16s@," "ratio" "smart RPC" "manual-naive"
    "manual-subtree";
  List.iter
    (fun { m_ratio; smart_rpc; manual_naive; manual_subtree } ->
      Format.fprintf ppf "%8.2f %13.3fs %13.3fs %15.3fs@," m_ratio
        smart_rpc.seconds manual_naive.seconds manual_subtree.seconds)
    rows;
  Format.fprintf ppf "@]"

let pp_hint_rows ppf rows =
  Format.fprintf ppf
    "@[<v>A5 — closure hints (chain walk past bulky payloads, section 6)@,";
  Format.fprintf ppf "%16s %10s %12s %10s %12s@," "hints" "time(s)" "bytes"
    "callbacks" "cache-pages";
  List.iter
    (fun (hinted, r) ->
      Format.fprintf ppf "%16s %10.3f %12d %10d %12d@,"
        (if hinted then "follow-next" else "none")
        r.seconds r.stats.bytes r.stats.callbacks r.cache_pages)
    rows;
  Format.fprintf ppf "@]"

(* --- Table 1 --- *)

let table1 ppf () =
  let cluster = Cluster.create () in
  let caller = Cluster.add_node cluster ~site:1 () in
  let callee = Cluster.add_node cluster ~site:2 () in
  Linked_list.register_types cluster;
  let a = Linked_list.build caller [ 1; 2; 3 ] in
  let b = Linked_list.build caller [ 10; 20 ] in
  Node.register callee "take_two" (fun _node args ->
      match args with
      | [ _; _ ] -> [ Value.unit ]
      | _ -> invalid_arg "take_two");
  Node.with_session caller (fun () ->
      ignore
        (Node.call caller ~dst:(Node.id callee) "take_two"
           [ Access.to_value a; Access.to_value b ]);
      Format.fprintf ppf
        "@[<v>Table 1 — callee data allocation table after swizzling two \
         pointers A and B@,%a@]"
        Node.pp_alloc_table callee)

(* --- srpc-faults: the protocol under injected faults --- *)

type faults_overhead = {
  fo_plain : run;  (** no fault plan: today's exact wire behavior *)
  fo_envelope : run;  (** zero-fault plan: retry envelope active, no faults *)
  fo_ratio : float;  (** envelope seconds / plain seconds *)
}

(* Retry-envelope overhead at zero fault rate: the same Fig. 4 point with
   and without a (fault-free) plan installed. The only difference is the
   sequence-number framing and the staged close, so the ratio is the
   price of crash safety on the fault-free path. *)
let measure_faults_overhead ?(depth = 13) ?(ratio = 0.5) ?(closure = 8192) () =
  let strategy = strategy_of_method (Proposed closure) in
  let fo_plain = run_tree_search ~strategy ~depth ~ratio () in
  let plan = Fault_plan.create ~seed:1 () in
  let fo_envelope = run_tree_search ~fault_plan:plan ~strategy ~depth ~ratio () in
  {
    fo_plain;
    fo_envelope;
    fo_ratio =
      (if fo_plain.seconds > 0.0 then fo_envelope.seconds /. fo_plain.seconds
       else 1.0);
  }

type faults_summary = {
  f_drop : float;
  f_strategy : string;
  f_sessions : int;
  f_completed : int;
  f_aborted : int;
  f_wrong : int;  (** completed sessions whose result differed *)
  f_retries : int;
  f_timeouts : int;
  f_duplicates : int;
  f_seconds : float;  (** mean simulated seconds per completed session *)
}

(* Seeded chaos sweep: one cluster per (drop, strategy) cell, [sessions]
   tree searches under the injected drop rate. Every session must either
   complete with the fault-free result or abort cleanly with the nodes
   still usable — a wrong result or a stuck cluster is the bug this
   harness exists to catch. *)
let faults_cell ?(depth = 9) ?(ratio = 0.6) ?(sessions = 6) ~seed ~drop
    ~strategy ~strategy_name () =
  let cluster, caller, _, search = tree_pair ~strategy ~depth ~ratio () in
  let run_one () =
    match
      region cluster (fun () ->
          Node.with_session caller (fun () -> search ~update:false))
    with
    | r, _, dt -> `Done (r, dt)
    | exception Session.Session_aborted _ -> `Aborted
  in
  (* the fault-free reference result, before any plan is installed *)
  let expected =
    match run_one () with
    | `Done (r, _) -> r
    | `Aborted -> assert false
  in
  let plan = Fault_plan.create ~seed () in
  Fault_plan.set_global plan (Fault_plan.profile ~drop ~duplicate:(drop /. 2.0) ());
  Cluster.install_faults cluster plan;
  let completed = ref 0 and aborted = ref 0 and wrong = ref 0 in
  let secs = ref 0.0 in
  let (), d, _ =
    region cluster (fun () ->
        for _ = 1 to sessions do
          match run_one () with
          | `Done (r, dt) ->
            incr completed;
            secs := !secs +. dt;
            if r <> expected then incr wrong
          | `Aborted -> incr aborted
        done)
  in
  {
    f_drop = drop;
    f_strategy = strategy_name;
    f_sessions = sessions;
    f_completed = !completed;
    f_aborted = !aborted;
    f_wrong = !wrong;
    f_retries = d.Stats.retries;
    f_timeouts = d.Stats.timeouts;
    f_duplicates = d.Stats.duplicates;
    f_seconds =
      (if !completed > 0 then !secs /. float_of_int !completed else 0.0);
  }

let default_fault_drops = [ 0.0; 0.01; 0.1 ]

let faults_sweep ?depth ?ratio ?sessions ?(seed = 42)
    ?(drops = default_fault_drops) () =
  let strategies =
    [
      ("smart", strategy_of_method (Proposed 8192));
      ("lazy", strategy_of_method Fully_lazy);
      ("eager", strategy_of_method Fully_eager);
    ]
  in
  List.concat_map
    (fun drop ->
      List.map
        (fun (strategy_name, strategy) ->
          faults_cell ?depth ?ratio ?sessions ~seed ~drop ~strategy
            ~strategy_name ())
        strategies)
    drops

let pp_faults ppf (overhead, rows) =
  Format.fprintf ppf
    "@[<v>FAULTS — retry envelope and chaos sweep (tree workload)@,";
  Format.fprintf ppf
    "envelope overhead at zero faults: plain %.4fs, enveloped %.4fs (x%.3f)@,@,"
    overhead.fo_plain.seconds overhead.fo_envelope.seconds overhead.fo_ratio;
  Format.fprintf ppf "%8s %8s %10s %8s %8s %8s %8s %8s@," "drop" "strategy"
    "sessions" "done" "aborted" "wrong" "retries" "dups";
  List.iter
    (fun f ->
      Format.fprintf ppf "%8.2f %8s %10d %8d %8d %8d %8d %8d@," f.f_drop
        f.f_strategy f.f_sessions f.f_completed f.f_aborted f.f_wrong
        f.f_retries f.f_duplicates)
    rows;
  Format.fprintf ppf "@]"

(* --- srpc-adapt: the adaptive policy, run session after session ---

   Same two-site setups as Fig. 4 and ablation A5, but the cluster keeps
   one {!Srpc_policy.Engine} across repeated sessions: each session the
   receiver's access pattern is profiled, and between sessions the
   controller revises the per-type closure budgets and machine-derived
   hints. The per-session run list is the convergence curve. *)

type adaptive_curve = {
  a_ratio : float;
  a_sessions : run list;  (** one entry per session, in order *)
  a_budgets : (string * int) list;  (** per-type budgets after the last session *)
}

let run_adaptive_tree_search ?(depth = 15) ?(sessions = 12) ?config ~ratio () =
  let policy = Srpc_policy.Engine.create ?config () in
  let cluster, caller, callee, search =
    tree_pair ~policy ~strategy:(Strategy.smart ()) ~depth ~ratio ()
  in
  let runs =
    List.init sessions (fun _ ->
        measure_session cluster ~ground:caller ~cacher:callee (fun () ->
            search ~update:false))
  in
  { a_ratio = ratio; a_sessions = runs; a_budgets = Srpc_policy.Engine.budgets policy }

type adaptive_fig4_row = { af_static : fig4_row; af_adaptive : adaptive_curve }

let adaptive_fig4 ?(depth = 15) ?(ratios = default_ratios) ?(closure = 8192)
    ?(sessions = 12) () =
  List.map
    (fun ratio ->
      {
        af_static = fig4_point ~depth ~closure ratio;
        af_adaptive = run_adaptive_tree_search ~depth ~sessions ~ratio ();
      })
    ratios

type adaptive_chain = {
  ac_sessions : run list;
  ac_hint : Hints.rule option;
  ac_budgets : (string * int) list;
}

let run_adaptive_chain_walk ?(cells = 400) ?(sessions = 10) ?config () =
  let policy = Srpc_policy.Engine.create ?config () in
  let strategy =
    { (Strategy.smart ()) with Strategy.grouping = Strategy.By_type }
  in
  let cluster, session = chain_pair ~policy ~strategy ~hinted:false ~cells () in
  let runs = List.init sessions (fun _ -> session ()) in
  {
    ac_sessions = runs;
    ac_hint = Hints.find (Cluster.hints cluster) ~ty:rcell_ty;
    ac_budgets = Srpc_policy.Engine.budgets policy;
  }

let pp_adaptive_fig4 ppf rows =
  Format.fprintf ppf
    "@[<v>Adaptive vs Fig. 4 statics (final session; simulated seconds)@,\
     %6s %12s %12s %12s %12s %10s@," "ratio" "eager" "lazy" "smart" "adaptive"
    "ad/best";
  List.iter
    (fun { af_static = s; af_adaptive } ->
      let final = List.nth af_adaptive.a_sessions
          (List.length af_adaptive.a_sessions - 1) in
      let best =
        List.fold_left min s.eager.seconds [ s.lazy_.seconds; s.proposed.seconds ]
      in
      Format.fprintf ppf "%6.2f %12.4f %12.4f %12.4f %12.4f %10.3f@," s.ratio
        s.eager.seconds s.lazy_.seconds s.proposed.seconds final.seconds
        (final.seconds /. best))
    rows;
  Format.fprintf ppf "@]"

(* --- delta coherency: dirty-range write-backs vs full items --- *)

type delta_run = {
  dl_run : run;
  dl_copies : int;
  dl_cachers : int;
  dl_inval_sent : int;
  dl_check : bool;
}

let poke_proc = "poke_field"

(* Update-heavy single-field workload: the ground owns one large flat
   struct (a 32x32 matrix tile, 8 KiB); a worker overwrites one element
   per call, so each reply's modified data set is the whole tile when
   shipped full versus a few dozen bytes as a dirty-range delta. Two
   further spaces join the session without ever caching ground data,
   separating the close's invalidation multicast (every participant)
   from the targeted unicast (the one caching space). *)
let run_field_update ?(delta = false) ?(pokes = 24) ?(idle_peers = 2) () =
  let strategy = Strategy.smart ~closure_size:16384 ~delta () in
  let cluster = Cluster.create () in
  let trace = Trace.create () in
  Transport.set_trace (Cluster.transport cluster) (Some trace);
  let ground = Cluster.add_node cluster ~site:1 ~strategy () in
  let worker = Cluster.add_node cluster ~site:2 ~strategy () in
  let idlers =
    List.init idle_peers (fun i ->
        Cluster.add_node cluster ~site:(3 + i) ~strategy ())
  in
  Matrix.register_types cluster;
  Node.register worker poke_proc (fun node args ->
      match args with
      | [ gridv; rowv; colv; v ] ->
        Matrix.set node (Access.of_value gridv) ~row:(Value.to_int rowv)
          ~col:(Value.to_int colv) (Value.to_float v);
        []
      | _ -> invalid_arg (poke_proc ^ ": expected (grid, row, col, v)"));
  List.iter (fun n -> Node.register n "ping" (fun _ _ -> [])) idlers;
  let grid = Matrix.create ground ~tile_rows:1 ~tile_cols:1 in
  let edge = Matrix.tile_edge in
  let cell i = (i mod edge, i * 7 mod edge) in
  (* measured through the close, so the write-back and invalidation
     phase is attributed to the run *)
  let dl_run =
    measure_session ~through_close:true cluster ~ground ~cacher:worker
      (fun () ->
        List.iter
          (fun n -> ignore (Node.call ground ~dst:(Node.id n) "ping" []))
          idlers;
        for i = 1 to pokes do
          let row, col = cell i in
          ignore
            (Node.call ground ~dst:(Node.id worker) poke_proc
               [
                 Access.to_value grid; Value.int row; Value.int col;
                 Value.float (float_of_int i);
               ])
        done;
        pokes)
  in
  (* the home must observe exactly the last poke landing on each cell *)
  let expected = Hashtbl.create 64 in
  for i = 1 to pokes do
    Hashtbl.replace expected (cell i) (float_of_int i)
  done;
  let check =
    Hashtbl.fold
      (fun (row, col) v ok -> ok && Matrix.get ground grid ~row ~col = v)
      expected true
  in
  let home = Space_id.to_string (Node.id ground) in
  let copy_dsts = Hashtbl.create 4 in
  let copies = ref 0 and inval_sent = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Copy _ ->
        incr copies;
        if e.Trace.dst <> home then Hashtbl.replace copy_dsts e.Trace.dst ()
      | Trace.Inval_sent _ -> incr inval_sent
      | _ -> ())
    (Trace.events trace);
  {
    dl_run;
    dl_copies = !copies;
    dl_cachers = Hashtbl.length copy_dsts;
    dl_inval_sent = !inval_sent;
    dl_check = check;
  }

(* --- delta on/off across the Fig. 4 strategies --- *)

type delta_fig4_row = { dm_method : method_kind; dm_off : run; dm_on : run }

(* The Fig. 4 tree search in its updating variant (every visited node's
   data field is overwritten), measured through the session close so the
   coherency traffic counts. Tree nodes are small, so this bounds the
   delta win from below; [run_field_update] bounds it from above. *)
let run_update_search ~strategy ~depth ~ratio =
  let cluster, caller, callee, search =
    tree_pair ~always_update:true ~strategy ~depth ~ratio ()
  in
  measure_session ~through_close:true cluster ~ground:caller ~cacher:callee
    (fun () -> search ~update:true)

let delta_fig4 ?(depth = 12) ?(ratio = 0.5) ?(closure = 8192) () =
  List.map
    (fun m ->
      let base = strategy_of_method m in
      {
        dm_method = m;
        dm_off = run_update_search ~strategy:base ~depth ~ratio;
        dm_on =
          run_update_search
            ~strategy:{ base with Strategy.delta_coherency = true }
            ~depth ~ratio;
      })
    [ Fully_eager; Fully_lazy; Proposed closure ]

let pp_delta ppf (field : delta_run list) (rows : delta_fig4_row list) =
  Format.fprintf ppf
    "@[<v>DELTA — single-field updates on an 8 KiB struct (24 pokes)@,";
  Format.fprintf ppf "%8s %12s %10s %10s %8s %8s %8s %8s@," "mode" "wb-bytes"
    "saved" "fallback" "copies" "inval" "spared" "check";
  List.iteri
    (fun i r ->
      let s = r.dl_run.stats in
      Format.fprintf ppf "%8s %12d %10d %10d %8d %8d %8d %8s@,"
        (if i = 0 then "off" else "on")
        s.writeback_bytes s.delta_bytes_saved s.full_fallbacks r.dl_copies
        r.dl_inval_sent s.invalidations_skipped
        (if r.dl_check then "ok" else "FAIL"))
    field;
  Format.fprintf ppf
    "@,Fig. 4 strategies, updating search, delta off/on (write-back wire \
     bytes)@,";
  Format.fprintf ppf "%16s %12s %12s %10s %10s@," "method" "off-bytes"
    "on-bytes" "saved" "fallback";
  List.iter
    (fun { dm_method; dm_off; dm_on } ->
      Format.fprintf ppf "%16s %12d %12d %10d %10d@," (method_name dm_method)
        dm_off.stats.writeback_bytes dm_on.stats.writeback_bytes
        dm_on.stats.delta_bytes_saved dm_on.stats.full_fallbacks)
    rows;
  Format.fprintf ppf "@]"

(* --- traversal offloading (srpc-offload, docs/OFFLOAD.md) ---

   The dual of closure shipping: instead of moving the tree to the
   computation, ship the traversal plan to the tree's home. The reuse
   count is the axis that separates the transfer modes — a one-shot
   traversal pays a whole closure (or a fault storm) for data it reads
   once, while a session that walks the same structure K times amortizes
   the one-time fetch and should keep the data local. *)

type offload_row = {
  of_repeats : int;
  of_eager : run;  (** eager closure ships the tree, walks local *)
  of_lazy : run;  (** lazy faulting, walks local *)
  of_always : run;  (** every traversal shipped to the home *)
}

(* The offload sweeps' home: a depth-[depth] tree on [home], a
   [give_root] procedure handing out its root, and the tree-sum plan.
   [walk client ~repeats] asks for the root, then runs the plan [repeats]
   times and returns the last sum. *)
let offload_home cluster home ~depth =
  Tree.register_types cluster;
  let root = Tree.build home ~depth in
  serve_root home root;
  let plan =
    Tree.plan ~op:Srpc_core.Offload.Op_sum
      ~hop_bound:(Tree.nodes_of_depth depth) ()
  in
  fun client ~repeats ->
    let rootp = Access.of_value (fetch_root client ~owner:home) in
    let result = ref 0 in
    for _ = 1 to repeats do
      match Node.offload client ~root:rootp.Access.addr plan with
      | [ s ] -> result := s
      | _ -> failwith "offload: bad result arity"
    done;
    !result

let run_offload_point ~strategy ~depth ~repeats =
  let cluster, client, home = two_sites ~strategy () in
  let walk = offload_home cluster home ~depth in
  measure_session cluster ~ground:client ~cacher:client (fun () ->
      walk client ~repeats)

let default_offload_repeats = [ 1; 2; 4; 8; 16; 32 ]

let offload_sweep ?(depth = 10) ?(repeat_points = default_offload_repeats) () =
  let always =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  List.map
    (fun repeats ->
      {
        of_repeats = repeats;
        of_eager = run_offload_point ~strategy:Strategy.fully_eager ~depth ~repeats;
        of_lazy = run_offload_point ~strategy:Strategy.fully_lazy ~depth ~repeats;
        of_always = run_offload_point ~strategy:always ~depth ~repeats;
      })
    repeat_points

let offload_agrees r =
  r.of_lazy.visited = r.of_eager.visited && r.of_always.visited = r.of_eager.visited

type offload_adaptive_point = {
  oa_repeats : int;
  oa_sessions : int;
  oa_run : run;  (** whole sweep: all sessions, learner in charge *)
  oa_choice : string;  (** {!Srpc_policy.Engine.offload_choice} at the end *)
}

(* Long-haul link for the adaptive sweep: real per-frame latency, and a
   pipe where shipping the whole closure costs a handful of round trips.
   On the paper's thin 10 Mbps LAN the per-byte cost dominates so
   completely that offloading wins at every reuse count; on this link
   the reuse count K genuinely decides — a one-shot traversal should
   offload (one round trip beats shipping the tree), while a session
   that walks the same tree many times amortizes the one-time closure
   and should keep the walk local. *)
let offload_link =
  {
    Cost_model.message_latency = 1.0e-3;
    bandwidth = 6.0e6;
    per_byte_cpu = 1.0e-8;
    fault_overhead = 3.0e-5;
    local_touch = 1.0e-6;
  }

(* Session-granular learning: the two-arm learner picks the transfer
   mode for each session up front (the session is the natural decision
   grain — a local fetch only amortizes across the traversals of the
   session that paid for it, because the close's invalidation empties
   the client's cache). Per-traversal seconds, from the session's begin
   through its close, feed the chosen arm. *)
let offload_adaptive ?(depth = 10) ?(sessions = 24) ?(link_cost = offload_link)
    ~repeats () =
  let policy = Srpc_policy.Engine.create () in
  let local = Strategy.fully_eager in
  let remote =
    { Strategy.fully_lazy with Strategy.offload = Strategy.Offload_always }
  in
  let cluster = Cluster.create () in
  let walker_local = Cluster.add_node cluster ~site:1 ~strategy:local () in
  let home = Cluster.add_node cluster ~site:2 () in
  let walker_remote = Cluster.add_node cluster ~site:3 ~strategy:remote () in
  List.iter (fun w -> set_link cluster w home link_cost) [ walker_local; walker_remote ];
  let walk = offload_home cluster home ~depth in
  let result = ref 0 in
  let (), stats, seconds =
    region cluster (fun () ->
        for _ = 1 to sessions do
          let offloaded =
            Srpc_policy.Engine.choose_offload policy ~ty:Tree.type_name
          in
          let client = if offloaded then walker_remote else walker_local in
          let (), _, dt =
            region cluster (fun () ->
                Node.begin_session client;
                result := walk client ~repeats;
                Node.end_session client)
          in
          Srpc_policy.Engine.offload_feedback policy ~ty:Tree.type_name ~offloaded
            ~seconds:(dt /. float_of_int repeats)
        done)
  in
  {
    oa_repeats = repeats;
    oa_sessions = sessions;
    oa_run = { seconds; stats; visited = !result; cache_pages = 0 };
    oa_choice = Srpc_policy.Engine.offload_choice policy ~ty:Tree.type_name;
  }

let offload_adaptive_sweep ?(depth = 10) ?(sessions = 24)
    ?(repeat_points = [ 1; 32 ]) () =
  List.map
    (fun repeats -> offload_adaptive ~depth ~sessions ~repeats ())
    repeat_points

let pp_offload ppf (rows, adaptive) =
  Format.fprintf ppf
    "@[<v>OFFLOAD — traversal plans shipped to the data's home (tree sum, \
     one session, K repeats)@,";
  Format.fprintf ppf "%8s %12s %12s %12s %10s %10s@," "repeats" "eager-bytes"
    "lazy-bytes" "off-bytes" "off-calls" "off-time";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d %12d %12d %12d %10d %9.4fs@," r.of_repeats
        r.of_eager.stats.bytes r.of_lazy.stats.bytes r.of_always.stats.bytes
        r.of_always.stats.offload_calls r.of_always.seconds)
    rows;
  Format.fprintf ppf
    "@,adaptive (session-granular two-arm learner, %d sessions each):@,"
    (match adaptive with [] -> 0 | p :: _ -> p.oa_sessions);
  Format.fprintf ppf "%8s %12s %10s %12s@," "repeats" "bytes" "off-calls"
    "choice";
  List.iter
    (fun p ->
      Format.fprintf ppf "%8d %12d %10d %12s@," p.oa_repeats p.oa_run.stats.bytes
        p.oa_run.stats.offload_calls p.oa_choice)
    adaptive;
  Format.fprintf ppf "@]"

(* Hand-rolled JSON, so no consumer needs a parser dependency. *)
let offload_json ~depth (rows, points) =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\n  \"experiment\": \"offload\",\n  \"depth\": %d,\n  \"rows\": [\n" depth;
  let run r =
    Printf.sprintf
      "{\"seconds\": %.6f, \"messages\": %d, \"bytes\": %d, \
       \"offload_calls\": %d, \"result\": %d}"
      r.seconds r.stats.messages r.stats.bytes r.stats.offload_calls r.visited
  in
  let comma l i = if i = List.length l - 1 then "" else "," in
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"repeats\": %d,\n\
        \     \"eager\": %s,\n\
        \     \"lazy\": %s,\n\
        \     \"offload\": %s}%s\n"
        r.of_repeats (run r.of_eager) (run r.of_lazy) (run r.of_always)
        (comma rows i))
    rows;
  Buffer.add_string b "  ],\n  \"adaptive\": [\n";
  List.iteri
    (fun i p ->
      Printf.bprintf b "    {\"repeats\": %d, \"choice\": %S, \"run\": %s}%s\n"
        p.oa_repeats p.oa_choice (run p.oa_run) (comma points i))
    points;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

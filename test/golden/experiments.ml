(* Prints every [Experiments] entry point at reduced sizes as text. The
   [runtest] rule in this directory diffs the output against
   [experiments.txt]; after an intended change, [dune promote] accepts
   the new text and the diff shows exactly which figures moved. *)

open Srpc_core
open Srpc_simnet
open Srpc_workloads

(* Every [Experiments] entry point at reduced sizes, rendered as text:
   each printer's output plus every numeric field of every record, with
   simulated seconds as exact hex floats. The field order is fixed here,
   not taken from the records, so a rewrite of the harnesses must
   reproduce each number, not just each table. *)
let experiments_text () =
  let module E = Experiments in
  let b = Buffer.create 65536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let pp name f x = line "== %s\n%s" name (Format.asprintf "%a" f x) in
  let run tag (r : E.run) =
    let s = r.E.stats in
    line "%s %h cb=%d msg=%d bytes=%d faults=%d visited=%d pages=%d" tag
      r.E.seconds s.Stats.callbacks s.Stats.messages s.Stats.bytes s.Stats.faults
      r.E.visited r.E.cache_pages
  in
  let orun tag (r : E.run) =
    let s = r.E.stats in
    line "%s %h msg=%d bytes=%d offload_calls=%d result=%d" tag r.E.seconds
      s.Stats.messages s.Stats.bytes s.Stats.offload_calls r.E.visited
  in
  let dcell tag (r : E.run) =
    let s = r.E.stats in
    run tag r;
    line "%s wb=%d saved=%d fallbacks=%d" tag s.Stats.writeback_bytes
      s.Stats.delta_bytes_saved s.Stats.full_fallbacks
  in
  let drun tag (d : E.delta_run) =
    let s = d.E.dl_run.E.stats in
    run tag d.E.dl_run;
    line "%s wb=%d saved=%d fallbacks=%d copies=%d cachers=%d sent=%d \
          skipped=%d check=%b"
      tag s.Stats.writeback_bytes s.Stats.delta_bytes_saved s.Stats.full_fallbacks
      d.E.dl_copies d.E.dl_cachers d.E.dl_inval_sent s.Stats.invalidations_skipped
      d.E.dl_check
  in
  let labelled tag l = List.iteri (fun i (_, r) -> run (Printf.sprintf "%s %d" tag i) r) l in
  let budgets tag l =
    List.iter (fun (ty, n) -> line "%s budget %s=%d" tag ty n) l
  in
  let smart c = E.strategy_of_method (E.Proposed c) in
  (* run_tree_search, one knob at a time *)
  run "tree plain" (E.run_tree_search ~strategy:(smart 512) ~depth:6 ~ratio:0.5 ());
  run "tree update x3"
    (E.run_tree_search ~update:true ~repeats:3 ~strategy:(smart 512) ~depth:6
       ~ratio:0.7 ());
  run "tree arches"
    (E.run_tree_search ~arches:(Srpc_memory.Arch.sparc32, Srpc_memory.Arch.lp64_le)
       ~strategy:(smart 1024) ~depth:6 ~ratio:1.0 ());
  run "tree link"
    (E.run_tree_search ~link_cost:Experiments.offload_link
       ~strategy:(E.strategy_of_method E.Fully_lazy) ~depth:5 ~ratio:1.0 ());
  run "tree page"
    (E.run_tree_search ~page_size:1024 ~strategy:(smart 512) ~depth:6 ~ratio:0.4 ());
  run "tree faults"
    (E.run_tree_search ~fault_plan:(Fault_plan.create ~seed:3 ())
       ~strategy:(smart 512) ~depth:6 ~ratio:0.6 ());
  (* figures *)
  let f4 = E.fig4 ~depth:8 ~ratios:[ 0.0; 0.5; 1.0 ] ~closure:512 () in
  List.iter
    (fun (r : E.fig4_row) ->
      let tag = Printf.sprintf "fig4 %h" r.E.ratio in
      run (tag ^ " eager") r.E.eager;
      run (tag ^ " lazy") r.E.lazy_;
      run (tag ^ " proposed") r.E.proposed)
    f4;
  pp "fig4" E.pp_fig4 f4;
  pp "fig5" E.pp_fig5 f4;
  let fig6 tag rows =
    List.iter
      (fun (r : E.fig6_row) ->
        List.iter
          (fun (d, x) -> run (Printf.sprintf "%s %d d%d" tag r.E.closure_bytes d) x)
          r.E.by_depth)
      rows;
    pp tag E.pp_fig6 rows
  in
  fig6 "fig6" (E.fig6 ~depths:[ 5; 8 ] ~closures:[ 512; 2048 ] ~repeats:2 ());
  fig6 "fig6b" (E.fig6_descents ~depths:[ 5; 8 ] ~closures:[ 512; 2048 ] ~paths:3 ());
  let f7 = E.fig7 ~depth:8 ~ratios:[ 0.3; 1.0 ] ~closure:512 () in
  List.iter
    (fun (r : E.fig7_row) ->
      run (Printf.sprintf "fig7 %h updated" r.E.ratio7) r.E.updated;
      run (Printf.sprintf "fig7 %h not" r.E.ratio7) r.E.not_updated)
    f7;
  pp "fig7" E.pp_fig7 f7;
  (* ablations *)
  let a1 = E.ablation_alloc_strategy ~depth:6 () in
  let a2 = E.ablation_closure_shape ~depth:7 ~ratio:0.3 ~closure:512 () in
  let a3 = E.ablation_alloc_batching ~cells:40 () in
  let a4 = E.ablation_writeback_grain ~depth:6 ~stride:4 () in
  labelled "a1" a1;
  labelled "a2" a2;
  labelled "a3" a3;
  labelled "a4" a4;
  pp "ablations" E.pp_ablations (a1, a2, a3, a4);
  let a5 = E.ablation_closure_hints ~cells:30 ~closure:1024 () in
  labelled "a5" a5;
  pp "a5" E.pp_hint_rows a5;
  run "chain" (E.run_chain_walk ~hinted:true ~cells:20 ~closure:512);
  let a6 = E.ablation_page_size ~depth:7 ~ratio:0.3 ~closure:512 ~page_sizes:[ 512; 2048 ] () in
  labelled "a6" a6;
  pp "a6" E.pp_page_rows a6;
  (* derived *)
  let wan = E.fig4_wan ~depth:6 ~ratios:[ 0.5 ] ~closure:512 ~latency_factor:10.0 () in
  List.iter
    (fun (r : E.fig4_row) ->
      run "wan eager" r.E.eager;
      run "wan lazy" r.E.lazy_;
      run "wan proposed" r.E.proposed)
    wan;
  pp "wan" E.pp_fig4 wan;
  let kv = E.kv_store ~keys:300 ~points:5 ~closure:512 () in
  List.iter
    (fun (r : E.kv_row) ->
      let tag = "kv " ^ E.method_name r.E.kv_method in
      run (tag ^ " point") r.E.point;
      run (tag ^ " range") r.E.range;
      run (tag ^ " scan") r.E.scan)
    kv;
  pp "kv" E.pp_kv kv;
  let sc = E.scaling ~depth:6 ~max_sites:4 () in
  List.iter (fun (sites, r) -> run (Printf.sprintf "scale %d" sites) r) sc;
  pp "scale" E.pp_scaling sc;
  let man = E.manual_comparison ~depth:8 ~ratios:[ 0.3; 1.0 ] ~closure:512 () in
  List.iter
    (fun (r : E.manual_row) ->
      let tag = Printf.sprintf "manual %h" r.E.m_ratio in
      run (tag ^ " smart") r.E.smart_rpc;
      run (tag ^ " naive") r.E.manual_naive;
      run (tag ^ " subtree") r.E.manual_subtree)
    man;
  pp "manual" E.pp_manual man;
  pp "table1" E.table1 ();
  (* faults *)
  let ov = E.measure_faults_overhead ~depth:6 ~ratio:0.5 ~closure:1024 () in
  run "fo plain" ov.E.fo_plain;
  run "fo envelope" ov.E.fo_envelope;
  line "fo ratio %h" ov.E.fo_ratio;
  let fs = E.faults_sweep ~depth:5 ~sessions:3 ~drops:[ 0.0; 0.1 ] () in
  List.iter
    (fun (f : E.faults_summary) ->
      line "faults %h %s n=%d done=%d aborted=%d wrong=%d retries=%d \
            timeouts=%d dups=%d %h"
        f.E.f_drop f.E.f_strategy f.E.f_sessions f.E.f_completed f.E.f_aborted
        f.E.f_wrong f.E.f_retries f.E.f_timeouts f.E.f_duplicates f.E.f_seconds)
    fs;
  pp "faults" E.pp_faults (ov, fs);
  (* adaptive *)
  let curve tag (c : E.adaptive_curve) =
    line "%s ratio %h" tag c.E.a_ratio;
    List.iteri (fun i r -> run (Printf.sprintf "%s s%d" tag i) r) c.E.a_sessions;
    budgets tag c.E.a_budgets
  in
  curve "adaptive" (E.run_adaptive_tree_search ~depth:6 ~sessions:3 ~ratio:0.5 ());
  let af = E.adaptive_fig4 ~depth:6 ~ratios:[ 0.2; 1.0 ] ~closure:1024 ~sessions:2 () in
  List.iter
    (fun (r : E.adaptive_fig4_row) ->
      let s = r.E.af_static in
      let tag = Printf.sprintf "af %h" s.E.ratio in
      run (tag ^ " eager") s.E.eager;
      run (tag ^ " lazy") s.E.lazy_;
      run (tag ^ " smart") s.E.proposed;
      curve (tag ^ " adaptive") r.E.af_adaptive)
    af;
  pp "adaptive fig4" E.pp_adaptive_fig4 af;
  let ch = E.run_adaptive_chain_walk ~cells:30 ~sessions:3 () in
  List.iteri (fun i r -> run (Printf.sprintf "ac s%d" i) r) ch.E.ac_sessions;
  (match ch.E.ac_hint with
  | None -> line "ac hint none"
  | Some h ->
    line "ac hint follow=%s prune=%b"
      (String.concat "," h.Hints.follow)
      h.Hints.prune_others);
  budgets "ac" ch.E.ac_budgets;
  (* delta *)
  let off = E.run_field_update ~delta:false ~pokes:6 ~idle_peers:1 () in
  let on = E.run_field_update ~delta:true ~pokes:6 ~idle_peers:1 () in
  drun "field off" off;
  drun "field on" on;
  let dm = E.delta_fig4 ~depth:8 ~ratio:0.5 ~closure:1024 () in
  List.iter
    (fun (r : E.delta_fig4_row) ->
      let tag = "dm " ^ E.method_name r.E.dm_method in
      dcell (tag ^ " off") r.E.dm_off;
      dcell (tag ^ " on") r.E.dm_on)
    dm;
  Format.asprintf "%a" (fun ppf () -> E.pp_delta ppf [ off; on ] dm) ()
  |> line "== delta\n%s";
  (* offload *)
  let rows = E.offload_sweep ~depth:7 ~repeat_points:[ 1; 4 ] () in
  List.iter
    (fun (r : E.offload_row) ->
      let tag = Printf.sprintf "offload K=%d" r.E.of_repeats in
      orun (tag ^ " eager") r.E.of_eager;
      orun (tag ^ " lazy") r.E.of_lazy;
      orun (tag ^ " always") r.E.of_always)
    rows;
  let point (p : E.offload_adaptive_point) =
    line "oa K=%d sessions=%d choice=%s" p.E.oa_repeats p.E.oa_sessions
      p.E.oa_choice;
    orun "oa" p.E.oa_run
  in
  point (E.offload_adaptive ~depth:6 ~sessions:4 ~repeats:2 ());
  let pts = E.offload_adaptive_sweep ~depth:6 ~sessions:4 ~repeat_points:[ 1; 8 ] () in
  List.iter point pts;
  pp "offload" E.pp_offload (rows, pts);
  Buffer.contents b

let () = print_string (experiments_text ())

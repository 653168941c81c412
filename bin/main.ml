(* srpc — command-line driver for the Smart-RPC reproduction.

   Subcommands mirror the paper's evaluation: `table1`, `fig4`, `fig6`,
   `fig7`, `ablations` regenerate the corresponding table/figure with
   configurable parameters; `run` executes a single tree-search
   experiment with every knob exposed. *)

open Cmdliner
open Srpc_workloads
open Srpc_memory

(* --verbose turns on the runtime's debug logging (swizzles, faults,
   fetches, frames) on stderr. *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log runtime events.")

let ratios_conv =
  let parse s =
    try Ok (List.map float_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg "expected comma-separated floats")
  in
  let print ppf rs =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_float rs))
  in
  Arg.conv (parse, print)

let ints_conv =
  let parse s =
    try Ok (List.map int_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg "expected comma-separated ints")
  in
  let print ppf xs =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int xs))
  in
  Arg.conv (parse, print)

let arch_conv =
  let parse = function
    | "sparc32" -> Ok Arch.sparc32
    | "ilp32-le" -> Ok Arch.ilp32_le
    | "lp64-le" -> Ok Arch.lp64_le
    | "lp64-be" -> Ok Arch.lp64_be
    | s -> Error (`Msg ("unknown arch " ^ s ^ " (sparc32|ilp32-le|lp64-le|lp64-be)"))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf a.Arch.name)

let method_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "eager" ] -> Ok Experiments.Fully_eager
    | [ "lazy" ] -> Ok Experiments.Fully_lazy
    | [ "proposed" ] -> Ok (Experiments.Proposed 8192)
    | [ "proposed"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Experiments.Proposed n)
      | None -> Error (`Msg "proposed:<bytes>"))
    | _ -> Error (`Msg "expected eager | lazy | proposed[:<closure bytes>]")
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Experiments.method_name m))

let depth_arg =
  Arg.(value & opt int 15 & info [ "depth" ] ~docv:"D" ~doc:"Tree depth (2^D-1 nodes).")

let closure_arg =
  Arg.(value & opt int 8192 & info [ "closure" ] ~docv:"BYTES" ~doc:"Closure size.")

let default_ratios = List.init 11 (fun i -> float_of_int i /. 10.0)

let ratios_arg =
  Arg.(
    value
    & opt ratios_conv default_ratios
    & info [ "ratios" ] ~docv:"R,R,..." ~doc:"Access ratios to sweep.")

let pp_run tag (r : Experiments.run) =
  Printf.printf
    "%-20s %10.4f s | visited %7d | callbacks %6d | msgs %6d | bytes %9d | \
     faults %6d | cache pages %5d\n"
    tag r.Experiments.seconds r.visited r.stats.callbacks r.stats.messages
    r.stats.bytes r.stats.faults r.cache_pages

let table1_cmd =
  let run verbose =
    setup_logs verbose;
    Experiments.table1 Format.std_formatter ();
    Format.print_newline ()
  in
  Cmd.v (Cmd.info "table1" ~doc:"Render the paper's Table 1 example.")
    Term.(const run $ verbose_arg)

let fig4_cmd =
  let run depth ratios closure =
    Experiments.pp_fig4 Format.std_formatter
      (Experiments.fig4 ~depth ~ratios ~closure ());
    Format.print_newline ();
    Experiments.pp_fig5 Format.std_formatter
      (Experiments.fig4 ~depth ~ratios ~closure ());
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Fig. 4/5: three methods vs access ratio.")
    Term.(const run $ depth_arg $ ratios_arg $ closure_arg)

let fig6_cmd =
  let depths =
    Arg.(
      value
      & opt ints_conv [ 14; 15; 16 ]
      & info [ "depths" ] ~docv:"D,D,..." ~doc:"Tree depths.")
  in
  let closures =
    Arg.(
      value
      & opt ints_conv [ 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
      & info [ "closures" ] ~docv:"B,B,..." ~doc:"Closure sizes (bytes).")
  in
  let repeats =
    Arg.(value & opt int 10 & info [ "repeats" ] ~docv:"N" ~doc:"Searches per call.")
  in
  let descents =
    Arg.(value & flag & info [ "descents" ]
           ~doc:"Use the path-descent reading of the workload.")
  in
  let run depths closures repeats descents =
    let rows =
      if descents then Experiments.fig6_descents ~depths ~closures ~paths:repeats ()
      else Experiments.fig6 ~depths ~closures ~repeats ()
    in
    Experiments.pp_fig6 Format.std_formatter rows;
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Fig. 6: closure-size sweep with repeated searches.")
    Term.(const run $ depths $ closures $ repeats $ descents)

let fig7_cmd =
  let run depth ratios closure =
    Experiments.pp_fig7 Format.std_formatter
      (Experiments.fig7 ~depth ~ratios ~closure ());
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Fig. 7: update performance vs update ratio.")
    Term.(const run $ depth_arg $ ratios_arg $ closure_arg)

let kv_cmd =
  let keys = Arg.(value & opt int 4000 & info [ "keys" ] ~docv:"N") in
  let run keys =
    Experiments.pp_kv Format.std_formatter (Experiments.kv_store ~keys ());
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "kv" ~doc:"Remote B-tree key-value store under the three methods.")
    Term.(const run $ keys)

let wan_cmd =
  let factor =
    Arg.(value & opt float 50.0 & info [ "latency-factor" ] ~docv:"F")
  in
  let run depth ratios closure factor =
    Experiments.pp_fig4 Format.std_formatter
      (Experiments.fig4_wan ~depth ~ratios ~closure ~latency_factor:factor ());
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "wan" ~doc:"Fig. 4 with the caller-callee link behind a WAN.")
    Term.(const run $ depth_arg $ ratios_arg $ closure_arg $ factor)

let hints_cmd =
  let cells = Arg.(value & opt int 400 & info [ "cells" ] ~docv:"N") in
  let run cells closure =
    Experiments.pp_hint_rows Format.std_formatter
      (Experiments.ablation_closure_hints ~cells ~closure ());
    Format.print_newline ()
  in
  Cmd.v
    (Cmd.info "hints" ~doc:"Closure-hint ablation (paper section 6).")
    Term.(const run $ cells $ closure_arg)

let ablations_cmd =
  let run () =
    Experiments.pp_ablations Format.std_formatter
      ( Experiments.ablation_alloc_strategy (),
        Experiments.ablation_closure_shape (),
        Experiments.ablation_alloc_batching (),
        Experiments.ablation_writeback_grain () );
    Format.print_newline ()
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Run the design-choice ablations A1-A4.")
    Term.(const run $ const ())

let run_cmd =
  let method_arg =
    Arg.(
      value
      & opt method_conv (Experiments.Proposed 8192)
      & info [ "method" ] ~docv:"M" ~doc:"eager | lazy | proposed[:bytes].")
  in
  let ratio_arg =
    Arg.(value & opt float 1.0 & info [ "ratio" ] ~docv:"R" ~doc:"Access ratio.")
  in
  let update_arg =
    Arg.(value & flag & info [ "update" ] ~doc:"Update every visited node.")
  in
  let repeats_arg =
    Arg.(value & opt int 1 & info [ "repeats" ] ~docv:"N" ~doc:"Calls per session.")
  in
  let caller_arch =
    Arg.(value & opt arch_conv Arch.sparc32 & info [ "caller-arch" ] ~docv:"A")
  in
  let callee_arch =
    Arg.(value & opt arch_conv Arch.sparc32 & info [ "callee-arch" ] ~docv:"A")
  in
  let run verbose m depth ratio update repeats caller callee =
    setup_logs verbose;
    let r =
      Experiments.run_tree_search ~update ~repeats ~arches:(caller, callee)
        ~strategy:(Experiments.strategy_of_method m) ~depth ~ratio ()
    in
    pp_run (Experiments.method_name m) r
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one tree-search experiment with explicit knobs.")
    Term.(
      const run $ verbose_arg $ method_arg $ depth_arg $ ratio_arg $ update_arg
      $ repeats_arg $ caller_arch $ callee_arch)

let inspect_cmd =
  (* run a small traced scenario and dump the runtime's internal state:
     wire trace, callee introspection (data allocation table), final
     statistics *)
  let run verbose depth =
    setup_logs verbose;
    let cluster = Experiments.strategy_of_method (Experiments.Proposed 1024) |> fun strategy ->
      let cluster = Srpc_core.Cluster.create () in
      let a = Srpc_core.Cluster.add_node cluster ~site:1 ~strategy () in
      let b = Srpc_core.Cluster.add_node cluster ~site:2 ~strategy () in
      Srpc_workloads.Tree.register_types cluster;
      let root = Srpc_workloads.Tree.build a ~depth in
      Srpc_core.Node.register b "visit" (fun node args ->
          let open Srpc_core in
          let visited, _ =
            Srpc_workloads.Tree.visit node (Access.of_value (List.hd args))
              ~limit:max_int
          in
          [ Value.int visited ]);
      let trace = Srpc_simnet.Trace.create () in
      Srpc_simnet.Transport.set_trace (Srpc_core.Cluster.transport cluster) (Some trace);
      Srpc_core.Node.begin_session a;
      ignore
        (Srpc_core.Node.call a ~dst:(Srpc_core.Node.id b) "visit"
           [ Srpc_core.Access.to_value root ]);
      Format.printf "wire trace:@.%a@.@." Srpc_simnet.Trace.pp trace;
      Format.printf "callee state before teardown:@.%a@." Srpc_core.Introspect.pp b;
      Srpc_core.Node.end_session a;
      cluster
    in
    Format.printf "@.final statistics: %a@.simulated time: %.6f s@."
      Srpc_simnet.Stats.pp_snapshot
      (Srpc_core.Cluster.snapshot cluster)
      (Srpc_core.Cluster.now cluster)
  in
  let depth = Arg.(value & opt int 5 & info [ "depth" ] ~docv:"D") in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Trace a small RPC and dump the runtime's state.")
    Term.(const run $ verbose_arg $ depth)

(* --- lint: static descriptor analysis + session-protocol verification --- *)

(* Every type the shipped examples and workloads register, combined in
   one registry: the linter's "shipped surface". Keep in sync with
   examples/ and lib/workloads (the example-local descriptors are
   repeated here verbatim). *)
let example_registry () =
  let module T = Srpc_types.Type_desc in
  let cluster = Srpc_core.Cluster.create () in
  Tree.register_types cluster;
  Linked_list.register_types cluster;
  Btree.register_types cluster;
  Graph.register_types cluster;
  Hash_table.register_types cluster;
  Matrix.register_types cluster;
  (* examples/nested_session.ml *)
  Srpc_core.Cluster.register_type cluster "counter"
    (T.Struct [ ("value", T.i64) ]);
  (* lib/workloads/experiments.ml, closure-hint ablation *)
  Srpc_core.Cluster.register_type cluster "blob"
    (T.Struct [ ("payload", T.Array (T.f64, 64)) ]);
  Srpc_core.Cluster.register_type cluster "rcell"
    (T.Struct
       [ ("next", T.ptr "rcell"); ("blob", T.ptr "blob"); ("tag", T.i64) ]);
  Srpc_core.Cluster.registry cluster

(* A scripted session that exercises the whole protocol — nested calls,
   a callback into the ground space, dirty data, the session-close
   write-back and invalidation — recorded as a trace for the verifier. *)
let traced_session () =
  let open Srpc_core in
  let cluster = Cluster.create () in
  let a = Cluster.add_node cluster ~site:1 () in
  let b = Cluster.add_node cluster ~site:2 () in
  let c = Cluster.add_node cluster ~site:3 () in
  Linked_list.register_types cluster;
  let trace = Srpc_simnet.Trace.create () in
  Srpc_simnet.Transport.set_trace (Cluster.transport cluster) (Some trace);
  Node.register a "bonus" (fun _ _ -> [ Value.int 1 ]);
  Node.register c "sum" (fun node args ->
      let p = Access.of_value (List.hd args) in
      let bonus =
        match Node.call node ~dst:(Node.id a) "bonus" [] with
        | [ v ] -> Value.to_int v
        | _ -> 0
      in
      (* dirty one cell so the session close has data to write back *)
      let v = Access.get_int node p ~field:"value" in
      Access.set_int node p ~field:"value" (v + bonus);
      [ Value.int (Linked_list.sum node p) ]);
  Node.register b "relay" (fun node args ->
      Node.call node ~dst:(Node.id c) "sum" args);
  let head = Linked_list.build a [ 1; 2; 3; 4 ] in
  Node.with_session a (fun () ->
      ignore (Node.call a ~dst:(Node.id b) "relay" [ Access.to_value head ]));
  trace

let report_diags header diags =
  let module D = Srpc_analysis.Diagnostic in
  if diags = [] then Format.printf "%s: ok, 0 findings@." header
  else
    Format.printf "%s: %d finding(s), %d error(s)@.%a@." header
      (List.length diags) (D.count_errors diags) D.pp_list diags;
  D.count_errors diags

let lint_cmd =
  let types_flag =
    Arg.(value & flag & info [ "types" ]
           ~doc:"Lint the type descriptors registered by the shipped \
                 examples and workloads.")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Record a representative session and verify the trace \
                 against the protocol invariants.")
  in
  let races_flag =
    Arg.(value & flag & info [ "races" ]
           ~doc:"Replay the representative session through the \
                 happens-before race checker.")
  in
  let footprints_flag =
    Arg.(value & flag & info [ "footprints" ]
           ~doc:"Compute per-session static footprints for a sample \
                 generated check script and report which session pairs \
                 could safely overlap.")
  in
  let all_flag = Arg.(value & flag & info [ "all" ] ~doc:"Run every engine.") in
  let rules_flag =
    Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let markdown_flag =
    Arg.(value & flag & info [ "markdown" ]
           ~doc:"With --rules, render the catalogue as the markdown table \
                 embedded in docs/RULES.md.")
  in
  let arches_arg =
    Arg.(
      value
      & opt (list arch_conv) [ Arch.sparc32 ]
      & info [ "arch" ] ~docv:"A,A,..."
          ~doc:"Architectures the registry must agree on (the TD005 \
                divergence rule needs at least two).")
  in
  let run verbose types trace races footprints all rules markdown arches =
    setup_logs verbose;
    if rules then
      (if markdown then Srpc_analysis.Diagnostic.pp_rules_markdown
       else Srpc_analysis.Diagnostic.pp_rules)
        Format.std_formatter ()
    else begin
      let types = types || all in
      let trace = trace || all in
      let races = races || all in
      let footprints = footprints || all in
      if not (types || trace || races || footprints) then begin
        prerr_endline
          "lint: nothing to do (pass --types, --trace, --races, --footprints \
           or --all)";
        exit 2
      end;
      let errors = ref 0 in
      if types then
        errors :=
          !errors
          + report_diags "descriptor lint"
              (Srpc_analysis.Desc_lint.check ~arches (example_registry ()));
      if trace then
        errors :=
          !errors
          + report_diags "protocol trace"
              (Srpc_analysis.Proto_lint.check (traced_session ()));
      if races then
        errors :=
          !errors
          + report_diags "race check (representative session)"
              (Srpc_analysis.Race_lint.check (traced_session ()));
      if footprints then begin
        (* serial sessions of one script interfering is expected — the
           report says which pairs PR 7's admission could overlap, so
           it never contributes to the error exit *)
        let module C = Srpc_check in
        let module F = Srpc_analysis.Footprint in
        let plan = C.Script.resolve (C.Runner.script_for ~depth:12 ~faults:0.0 0) in
        let fps = C.Plan_footprint.sessions plan in
        Format.printf "session footprints (generated check script, seed 0):@.";
        List.iter (fun fp -> Format.printf "%a@." F.pp fp) fps;
        Format.printf "pairwise interference:@.";
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if j > i then
                  match F.interferes a b with
                  | [] ->
                      Format.printf "  %s x %s: disjoint — could overlap@."
                        a.F.label b.F.label
                  | ds ->
                      Format.printf "  %s x %s: must stay serial (%s)@."
                        a.F.label b.F.label
                        (String.concat ", "
                           (List.sort_uniq String.compare
                              (List.map
                                 (fun d ->
                                   d.Srpc_analysis.Diagnostic.rule_id)
                                 ds))))
              fps)
          fps
      end;
      if !errors > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis (type descriptors, session footprints) and \
             trace verification (protocol invariants, happens-before \
             races); non-zero exit on error findings.")
    Term.(
      const run $ verbose_arg $ types_flag $ trace_flag $ races_flag
      $ footprints_flag $ all_flag $ rules_flag $ markdown_flag $ arches_arg)

let check_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of generation seeds to run (0 .. N-1).")
  in
  let depth_arg =
    Arg.(value & opt int 25 & info [ "depth" ] ~docv:"D"
           ~doc:"Operations per generated script.")
  in
  let faults_arg =
    Arg.(value & opt float 0.0 & info [ "faults" ] ~docv:"P"
           ~doc:"Frame-drop probability for the fault schedule; when \
                 positive, every odd seed runs with faults injected \
                 (drop P, duplicate P/2).")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Rerun one committed repro file byte-for-byte instead of \
                 generating scripts.")
  in
  let out_arg =
    Arg.(value & opt string "srpc-check-repro.sexp"
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let dump_arg =
    Arg.(value & opt (some int) None & info [ "dump" ] ~docv:"SEED"
           ~doc:"Write the script generated for $(docv) (honouring --depth \
                 and --faults) to --out and exit, without running it.")
  in
  let module C = Srpc_check in
  let show_script ppf s = C.Script.pp ppf s in
  let run verbose seeds depth faults replay dump out =
    setup_logs verbose;
    match (replay, dump) with
    | _, Some seed ->
      let script = C.Runner.script_for ~depth ~faults seed in
      let oc = open_out out in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc (C.Sexp.to_string (C.Script.to_sexp ~seed script));
          output_char oc '\n');
      Format.printf "check: script for seed %d written to %s@." seed out
    | Some file, None ->
      let contents =
        let ic = open_in_bin file in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            really_input_string ic (in_channel_length ic))
      in
      let gen_seed, script =
        try C.Script.of_sexp (C.Sexp.of_string contents)
        with C.Sexp.Parse_error msg ->
          Format.eprintf "check: cannot parse %s: %s@." file msg;
          exit 2
      in
      (match C.Runner.replay script with
      | Ok () ->
        Format.printf "check: repro %s (seed %d) passes — all oracles agree@."
          file gen_seed
      | Error msg ->
        Format.printf "check: repro %s (seed %d) still fails:@,  %s@." file
          gen_seed msg;
        exit 1)
    | None, None -> (
      if seeds <= 0 then begin
        prerr_endline "check: --seeds must be positive";
        exit 2
      end;
      match C.Runner.check ~seeds ~depth ~faults () with
      | C.Runner.Ok stats ->
        Format.printf
          "check: %d runs ok (%d completed, %d clean aborts, %d with faults) — \
           zero oracle or protocol violations@."
          stats.C.Runner.runs stats.C.Runner.completed stats.C.Runner.aborted
          stats.C.Runner.fault_runs
      | C.Runner.Failed { seed; failure; shrunk; shrunk_failure; shrink_evals; _ }
        ->
        Format.printf "check: seed %d FAILED: %a@." seed C.Runner.pp_failure
          failure;
        Format.printf
          "check: shrunk to %d op(s) in %d evaluations, still failing: %a@."
          (List.length shrunk.C.Script.ops)
          shrink_evals C.Runner.pp_failure shrunk_failure;
        Format.printf "@[<v>%a@]@." show_script shrunk;
        let oc = open_out out in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            output_string oc (C.Sexp.to_string (C.Script.to_sexp ~seed shrunk));
            output_char oc '\n');
        Format.printf "check: reproducer written to %s (rerun with `srpc \
                       check --replay %s`)@."
          out out;
        exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Deterministic model checking: run generated scripts against \
             the sequential oracle and the protocol verifier, shrinking \
             any failure to a minimal reproducer.")
    Term.(
      const run $ verbose_arg $ seeds_arg $ depth_arg $ faults_arg $ replay_arg
      $ dump_arg $ out_arg)

(* `traffic` and `soak` share the two contention flags and reject the
   configs their harness rejects (a non-positive rate, say) as a usage
   error, before any JSON is written. *)
let contention_arg =
  let hot =
    Arg.(value & flag & info [ "hot" ]
           ~doc:"Point every session at one shared datum root (full \
                 contention) instead of per-client disjoint roots.")
  in
  Term.(
    const (fun hot ->
        if hot then Srpc_traffic.Traffic.Hot else Srpc_traffic.Traffic.Disjoint)
    $ hot)

let policy_arg =
  let abort_retry =
    Arg.(value & flag & info [ "abort-retry" ]
           ~doc:"Resolve admission conflicts by abort + backoff retry \
                 instead of FIFO queueing.")
  in
  Term.(
    const (fun abort_retry ->
        if abort_retry then Srpc_core.Strategy.Abort_retry
        else Srpc_core.Strategy.Queue_conflicts)
    $ abort_retry)

let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 2

let traffic_cmd =
  let module T = Srpc_traffic.Traffic in
  let module C = Srpc_check in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client (session ground) nodes.")
  in
  let servers_arg =
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"N"
           ~doc:"Shared server nodes (2-8).")
  in
  let rate_arg =
    Arg.(value & opt float 400.0 & info [ "rate" ] ~docv:"R"
           ~doc:"Poisson session arrivals per virtual second, per client.")
  in
  let mix_conv =
    let kind_of_string = function
      | "list" -> Ok C.Script.KList
      | "tree" -> Ok C.Script.KTree
      | "graph" -> Ok C.Script.KGraph
      | "wide" -> Ok C.Script.KWide
      | k -> Error (`Msg (Printf.sprintf "unknown workload kind %S" k))
    in
    let parse s =
      List.fold_left
        (fun acc k ->
          Result.bind acc (fun ks ->
              Result.map (fun k -> k :: ks) (kind_of_string k)))
        (Ok [])
        (String.split_on_char ',' s)
      |> Result.map List.rev
    in
    let print ppf ks =
      Format.pp_print_string ppf
        (String.concat ","
           (List.map
              (function
                | C.Script.KList -> "list"
                | C.Script.KTree -> "tree"
                | C.Script.KGraph -> "graph"
                | C.Script.KWide -> "wide")
              ks))
    in
    Arg.conv (parse, print)
  in
  let mix_arg =
    Arg.(value & opt mix_conv [ C.Script.KList; C.Script.KTree ]
         & info [ "mix" ] ~docv:"KINDS"
             ~doc:"Comma-separated workload kinds cycled across sessions \
                   (list, tree, graph, wide).")
  in
  let sessions_arg =
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N"
           ~doc:"Sessions per client.")
  in
  let seeds_arg =
    Arg.(value & opt ints_conv [ 0 ] & info [ "seeds" ] ~docv:"S,S,..."
           ~doc:"Seeds to run; one result row per seed.")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_traffic.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")
  in
  let run verbose clients servers rate mix sessions seeds contention policy
      out =
    setup_logs verbose;
    let cfg seed =
      {
        T.default with
        T.clients;
        servers;
        rate;
        mix;
        sessions_per_client = sessions;
        seed;
        policy;
        contention;
      }
    in
    let rows =
      or_usage_error (fun () ->
          List.map (fun seed -> (seed, cfg seed, T.compare_runs (cfg seed)))
            seeds)
    in
    List.iter
      (fun (seed, _, (cmp : T.comparison)) ->
        let c = cmp.T.concurrent in
        Format.printf
          "seed %d: %d/%d committed  tput %.1f/s (serialized %.1f/s, \
           x%.2f)  p50 %.4fs p95 %.4fs p99 %.4fs@."
          seed c.T.r_committed c.T.r_sessions c.T.r_throughput
          cmp.T.serialized.T.r_throughput cmp.T.speedup c.T.r_p50 c.T.r_p95
          c.T.r_p99;
        Format.printf
          "        admitted %d queued %d denied %d retried %d \
           validation-failed %d races %d proto %d@."
          c.T.r_admitted c.T.r_queued c.T.r_denied c.T.r_retried
          c.T.r_validation_failed c.T.r_race_errors c.T.r_proto_errors)
      rows;
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc
          (Srpc_traffic.Traffic_json.report ~clients ~servers ~rate
             ~sessions rows));
    Format.printf "traffic: wrote %s@." out;
    if
      List.exists
        (fun (_, _, (cmp : T.comparison)) ->
          cmp.T.concurrent.T.r_race_errors > 0
          || cmp.T.concurrent.T.r_proto_errors > 0)
        rows
    then exit 1
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Open-loop concurrent-session traffic: Poisson arrivals over N \
             clients vs the serialized baseline, with admission counters \
             and latency percentiles written as JSON.")
    Term.(
      const run $ verbose_arg $ clients_arg $ servers_arg $ rate_arg $ mix_arg
      $ sessions_arg $ seeds_arg $ contention_arg $ policy_arg $ out_arg)

let soak_cmd =
  let module S = Srpc_traffic.Soak in
  let clients_arg =
    Arg.(value & opt int S.default.S.clients
         & info [ "clients" ] ~docv:"N"
             ~doc:"Concurrent client (session ground) nodes.")
  in
  let servers_arg =
    Arg.(value & opt int S.default.S.servers
         & info [ "servers" ] ~docv:"N" ~doc:"Shared server nodes (2-8).")
  in
  let rate_arg =
    Arg.(value & opt float S.default.S.rate & info [ "rate" ] ~docv:"R"
           ~doc:"Poisson session arrivals per virtual second, per client.")
  in
  let horizon_arg =
    Arg.(value & opt float S.default.S.horizon & info [ "horizon" ] ~docv:"S"
           ~doc:"Virtual seconds of offered arrivals.")
  in
  let drop_arg =
    Arg.(value & opt float S.default.S.drop & info [ "drop" ] ~docv:"P"
           ~doc:"Per-frame drop probability.")
  in
  let crash_period_arg =
    Arg.(value & opt float S.default.S.crash_period
         & info [ "crash-period" ] ~docv:"S"
             ~doc:"Virtual seconds between planned server crashes (0 \
                   disables the crash schedule).")
  in
  let outage_arg =
    Arg.(value & opt float S.default.S.outage & info [ "outage" ] ~docv:"S"
           ~doc:"How long each crashed server stays down.")
  in
  let queue_cap_arg =
    Arg.(value & opt int S.default.S.queue_cap
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Admission conflict-queue bound.")
  in
  let retry_budget_arg =
    Arg.(value & opt int S.default.S.retry_budget
         & info [ "retry-budget" ] ~docv:"N"
             ~doc:"Admission deferral budget per session id.")
  in
  let seeds_arg =
    Arg.(value & opt ints_conv [ 0 ] & info [ "seeds" ] ~docv:"S,S,..."
           ~doc:"Seeds to run; one result row per seed (overridden by the \
                 SRPC_SEED environment variable).")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_soak.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")
  in
  let run verbose clients servers rate horizon drop crash_period outage
      queue_cap retry_budget seeds contention policy out =
    setup_logs verbose;
    let seeds =
      match Sys.getenv_opt "SRPC_SEED" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> [ n ]
        | None -> seeds)
      | None -> seeds
    in
    let cfg seed =
      {
        S.default with
        S.clients;
        servers;
        rate;
        horizon;
        drop;
        crash_period;
        outage;
        queue_cap;
        retry_budget;
        seed;
        policy;
        contention;
      }
    in
    let rows =
      or_usage_error (fun () ->
          List.map
            (fun seed ->
              let c = cfg seed in
              (Printf.sprintf "seed%d" seed, c, S.compare_runs c))
            seeds)
    in
    List.iter
      (fun (label, _, (cmp : S.comparison)) ->
        let c = cmp.S.chaos in
        Format.printf
          "%s: %d/%d committed (%.2f%%), %d failed, %d aborted, %d \
           recovered  p50 %.4fs p99 %.4fs (fault-free p99 %.4fs, x%.2f)@."
          label c.S.s_committed c.S.s_sessions (100.0 *. c.S.s_completion)
          c.S.s_failed c.S.s_aborts c.S.s_recovered c.S.s_p50 c.S.s_p99
          cmp.S.fault_free.S.s_p99 cmp.S.p99_ratio;
        Format.printf
          "        crashes %d revives %d heartbeats %d suspicions %d sheds \
           %d breaker-trips %d recoveries %d validation-failed %d races %d \
           proto %d@."
          c.S.s_crashes c.S.s_revives c.S.s_heartbeats c.S.s_suspicions
          c.S.s_sheds c.S.s_breaker_trips c.S.s_recoveries
          c.S.s_validation_failed c.S.s_race_errors c.S.s_proto_errors)
      rows;
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc (Srpc_traffic.Soak_json.report rows));
    Format.printf "soak: wrote %s@." out;
    if
      List.exists
        (fun (_, _, (cmp : S.comparison)) ->
          cmp.S.chaos.S.s_validation_failed > 0
          || cmp.S.chaos.S.s_race_errors > 0
          || cmp.S.chaos.S.s_proto_errors > 0)
        rows
    then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Chaos soak: open-loop traffic over a long virtual-time horizon \
             under frame drops and periodic server crash/revive cycles, \
             with liveness detection, session recovery and overload \
             protection armed; writes completion, latency and robustness \
             counters as JSON.")
    Term.(
      const run $ verbose_arg $ clients_arg $ servers_arg $ rate_arg
      $ horizon_arg $ drop_arg $ crash_period_arg $ outage_arg
      $ queue_cap_arg $ retry_budget_arg $ seeds_arg $ contention_arg
      $ policy_arg $ out_arg)

let offload_cmd =
  let depth_arg =
    Arg.(value & opt int 10 & info [ "depth" ] ~docv:"D"
           ~doc:"Tree depth of the traversed structure.")
  in
  let repeats_arg =
    Arg.(value & opt ints_conv Experiments.default_offload_repeats
         & info [ "repeats" ] ~docv:"K,K,..."
             ~doc:"Reuse counts swept: traversals per session.")
  in
  let sessions_arg =
    Arg.(value & opt int 24 & info [ "sessions" ] ~docv:"N"
           ~doc:"Sessions the adaptive learner observes per repeat point.")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_offload.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")
  in
  let run verbose depth repeats sessions out =
    setup_logs verbose;
    let rows = Experiments.offload_sweep ~depth ~repeat_points:repeats () in
    let points = Experiments.offload_adaptive_sweep ~depth ~sessions () in
    Format.printf "%a@." Experiments.pp_offload (rows, points);
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc (Experiments.offload_json ~depth (rows, points)));
    Format.printf "offload: wrote %s@." out;
    (* transparency is non-negotiable: every arm must compute the same
       traversal result at every repeat point *)
    if not (List.for_all Experiments.offload_agrees rows) then exit 1
  in
  Cmd.v
    (Cmd.info "offload"
       ~doc:"Traversal offloading: wire bytes per transfer mode and the \
             adaptive learner's choice as the reuse count K sweeps, written \
             as JSON.")
    Term.(
      const run $ verbose_arg $ depth_arg $ repeats_arg $ sessions_arg
      $ out_arg)

let () =
  let doc = "Smart Remote Procedure Calls (ICDCS 1994) reproduction driver" in
  let info = Cmd.info "srpc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd; fig4_cmd; fig6_cmd; fig7_cmd; ablations_cmd; kv_cmd;
            wan_cmd; hints_cmd; run_cmd; inspect_cmd; lint_cmd; check_cmd;
            traffic_cmd; soak_cmd; offload_cmd;
          ]))

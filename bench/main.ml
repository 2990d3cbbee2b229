(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figs. 5, 6, 8, 9) and the ablations documented in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig5       -- one figure
     dune exec bench/main.exe fault      -- fault-vulnerability comparison
     dune exec bench/main.exe quick      -- subsampled smoke run

   Every command takes the shared engine and observability flags of
   [Cli] (-j, --cache-dir, --no-cache, --trace, --metrics) and --json
   PATH, which also writes the figure rows and the engine statistics as
   JSON. Flags follow the command name.

   Figure tables go to stdout; engine statistics, metrics and traces go to
   stderr or to their own files, so stdout is byte-identical across -j
   values, cache temperatures and observability settings. A sweep with
   failed compiles still prints every figure (failed cells render as FAIL)
   and exits 1 after listing the failures on stderr. *)

open Cmdliner
module Json = Report.Json

(* ------------------------------------------------- figure rows as JSON *)

(* A failed compile renders as null (JSON has no better spelling); the
   message lands in the top-level "failures" array instead. *)
let area_json = function Ok a -> Json.Float a | Error _ -> Json.Null

let fig5_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.Fig5.row) ->
         Json.Obj
           [ ("depth", Json.Int r.depth); ("width", Json.Int r.width);
             ("seed", Json.Int r.seed);
             ("table_area", area_json r.table_area);
             ("sop_area", area_json r.sop_area) ])
       rows)

let fig6_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.Fig6.row) ->
         Json.Obj
           [ ("m", Json.Int r.m); ("n", Json.Int r.n); ("s", Json.Int r.s);
             ("seed", Json.Int r.seed);
             ("direct_area", area_json r.direct_area);
             ("regular_area", area_json r.regular_area);
             ("annotated_area", area_json r.annotated_area) ])
       rows)

let fig8_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.Fig8.row) ->
         Json.Obj
           [ ("n", Json.Int r.n); ("flop", Json.String r.style_name);
             ("variant",
              Json.String (Experiments.Fig8.variant_name r.variant));
             ("generic_area", area_json r.generic_area);
             ("direct_area", area_json r.direct_area) ])
       rows)

let fig9_json rows =
  let mode_name = function
    | Pctrl.Controller.Cached -> "cached"
    | Pctrl.Controller.Uncached -> "uncached"
  in
  let level_name = function
    | Experiments.Fig9.Full -> "full"
    | Experiments.Fig9.Auto -> "auto"
    | Experiments.Fig9.Manual -> "manual"
  in
  Json.List
    (List.map
       (fun (r : Experiments.Fig9.row) ->
         Json.Obj
           [ ("config", Json.String (mode_name r.mode));
             ("level", Json.String (level_name r.level));
             ("comb_area", Json.Float r.comb);
             ("seq_area", Json.Float r.seq);
             ("power", Json.Float r.power) ])
       rows)

(* ------------------------------------------------------------ commands *)

(* Each command returns its (figure name, rows-as-JSON) contributions. *)

let fig5 () =
  let rows = Experiments.Fig5.run () in
  Experiments.Fig5.print rows;
  [ ("fig5", fig5_json rows) ]

let fig6 () =
  let rows = Experiments.Fig6.run () in
  Experiments.Fig6.print rows;
  [ ("fig6", fig6_json rows) ]

let fig8 () =
  let rows = Experiments.Fig8.run () in
  Experiments.Fig8.print rows;
  [ ("fig8", fig8_json rows) ]

let fig9 () =
  let rows = Experiments.Fig9.run () in
  Experiments.Fig9.print rows;
  [ ("fig9", fig9_json rows) ]

let fault (cli : Cli.t) =
  let rows = Experiments.Fault_cmp.run ~jobs:cli.sim_jobs () in
  Experiments.Fault_cmp.print rows;
  [ ("fault", Experiments.Fault_cmp.to_json rows) ]

let quick () =
  let r5 =
    Experiments.Fig5.run ~seeds:[ 0 ] ~grid:Experiments.Fig5.quick_grid ()
  in
  Experiments.Fig5.print r5;
  let r6 =
    Experiments.Fig6.run ~seeds:[ 0 ] ~grid:Experiments.Fig6.quick_grid ()
  in
  Experiments.Fig6.print r6;
  let r8 = Experiments.Fig8.run ~widths:[ 2; 8; 32; 64 ] () in
  Experiments.Fig8.print r8;
  let r9 = Experiments.Fig9.run () in
  Experiments.Fig9.print r9;
  let fault_rows = Experiments.Fault_cmp.run ~sites:8 () in
  Experiments.Fault_cmp.print fault_rows;
  [ ("fig5", fig5_json r5); ("fig6", fig6_json r6); ("fig8", fig8_json r8);
    ("fig9", fig9_json r9);
    ("fault", Experiments.Fault_cmp.to_json fault_rows) ]

let ablations () =
  Experiments.Ablation.cone_cap ();
  Experiments.Ablation.twolevel ();
  Experiments.Ablation.annot_cap ();
  Experiments.Ablation.encodings ();
  Experiments.Ablation.library_richness ();
  Experiments.Ablation.microcode_style ();
  []

(* ------------------------------------------------- simulation microbench *)

(* Scalar-vs-packed AIG simulation throughput, written to BENCH_sim.json so
   the perf trajectory of the compiled kernel has a tracked baseline. The
   scalar side is the pre-kernel interpreter shape — `Aig.eval_all` plus
   hashtable latch state, one pattern per pass — and doubles as the oracle
   for the packed/scalar agreement smoke. *)

let sim_random_word st =
  let rec go acc k =
    if k >= Aig.Compiled.lanes then acc
    else go (acc lor (Random.State.bits st lsl k)) (k + 30)
  in
  go 0 0

(* One scalar sequential run: [cycles] patterns, one per pass. Returns a
   checksum so the work cannot be dead-code eliminated. *)
let sim_scalar_run g ~cycles ~seed =
  let st = Random.State.make [| 0x5ca1; seed |] in
  let pis = Aig.pis g in
  let latches = Aig.latches g in
  let pos = Aig.pos g in
  let state = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let _, init, _, _ = Aig.latch_info g n in
      Hashtbl.replace state n init)
    latches;
  let acc = ref 0 in
  for _ = 1 to cycles do
    let piv = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace piv n (Random.State.bool st)) pis;
    let read =
      Aig.eval_all g ~pi:(Hashtbl.find piv) ~latch:(Hashtbl.find state)
    in
    List.iter (fun (_, l) -> if read l then incr acc) pos;
    let next = List.map (fun n -> (n, read (Aig.latch_next g n))) latches in
    List.iter (fun (n, v) -> Hashtbl.replace state n v) next
  done;
  !acc

(* One packed run: [cycles * lanes] patterns per pass of the compiled
   kernel. *)
let sim_packed_run c ~cycles ~seed =
  let st = Random.State.make [| 0x9acc; seed |] in
  let s = Aig.Compiled.sim c in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let acc = ref 0 in
  for _ = 1 to cycles do
    for i = 0 to npis - 1 do
      Aig.Compiled.set_pi s i (sim_random_word st)
    done;
    Aig.Compiled.step s;
    for k = 0 to npos - 1 do
      acc := !acc lxor Aig.Compiled.po s k
    done
  done;
  !acc

(* Drive the packed kernel and the scalar oracle on the same tape and
   compare every PO bit on a spread of lanes. *)
let sim_agreement g c =
  let cycles = 16 in
  let st = Random.State.make [| 0xa9ee |] in
  let npis = Aig.Compiled.num_pis c in
  let npos = Aig.Compiled.num_pos c in
  let tape =
    Array.init cycles (fun _ -> Array.init npis (fun _ -> sim_random_word st))
  in
  let s = Aig.Compiled.sim c in
  let packed = Array.make cycles [||] in
  for cyc = 0 to cycles - 1 do
    Array.iteri (fun i w -> Aig.Compiled.set_pi s i w) tape.(cyc);
    Aig.Compiled.step s;
    packed.(cyc) <- Array.init npos (Aig.Compiled.po s)
  done;
  let pis = Array.of_list (Aig.pis g) in
  let latches = Aig.latches g in
  let pos = Array.of_list (Aig.pos g) in
  let pslot = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace pslot n i) pis;
  let ok = ref true in
  List.iter
    (fun lane ->
      let state = Hashtbl.create 16 in
      List.iter
        (fun n ->
          let _, init, _, _ = Aig.latch_info g n in
          Hashtbl.replace state n init)
        latches;
      for cyc = 0 to cycles - 1 do
        let pi n = tape.(cyc).(Hashtbl.find pslot n) lsr lane land 1 = 1 in
        let read = Aig.eval_all g ~pi ~latch:(Hashtbl.find state) in
        Array.iteri
          (fun k (_, l) ->
            let expect = read l in
            let got = packed.(cyc).(k) lsr lane land 1 = 1 in
            if got <> expect then ok := false)
          pos;
        let next =
          List.map (fun n -> (n, read (Aig.latch_next g n))) latches
        in
        List.iter (fun (n, v) -> Hashtbl.replace state n v) next
      done)
    [ 0; 7; Aig.Compiled.lanes - 1 ];
  !ok

let microbench ?(reps = 5) () =
  let pctrl =
    (Synth.Lower.run (Pctrl.Controller.auto_design Pctrl.Controller.Cached))
      .Synth.Lower.aig
  in
  let tt = Workload.Rand_table.generate ~seed:0 ~depth:256 ~width:8 in
  let table =
    (Synth.Lower.run
       (Synth.Partial_eval.bind_tables
          (Core.Truth_table.to_flexible_rtl tt)
          [ Core.Truth_table.config_binding tt ]))
      .Synth.Lower.aig
  in
  let fsm =
    Workload.Rand_fsm.generate ~seed:0 ~num_inputs:2 ~num_outputs:8
      ~num_states:16
  in
  let fsm_aig =
    (Synth.Lower.run
       (Synth.Partial_eval.bind_tables
          (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
          (Core.Fsm_ir.config_bindings fsm)))
      .Synth.Lower.aig
  in
  let designs =
    [ ("pctrl", pctrl); ("fig5-table-256x8", table); ("fig6-fsm16", fsm_aig) ]
  in
  let cycles = 1024 in
  (* Best-of-[reps] wall time: robust against scheduler noise without
     needing long runs, so the CI smoke stays cheap. *)
  let best f =
    let t = ref infinity in
    for _ = 1 to max 1 reps do
      let t0 = Obs.now_us () in
      ignore (Sys.opaque_identity (f ()));
      t := Float.min !t (Obs.now_us () -. t0)
    done;
    !t /. 1e6
  in
  print_endline "== Simulation microbench: scalar vs packed (patterns/s) ==";
  Printf.printf "lanes per word: %d, cycles per run: %d, reps: %d\n"
    Aig.Compiled.lanes cycles reps;
  let all_ok = ref true in
  let rows =
    List.map
      (fun (name, g) ->
        let c = Aig.Compiled.compile g in
        let ok = sim_agreement g c in
        if not ok then all_ok := false;
        ignore (sim_scalar_run g ~cycles:32 ~seed:1);
        ignore (sim_packed_run c ~cycles:32 ~seed:1);
        let t_scalar = best (fun () -> sim_scalar_run g ~cycles ~seed:2) in
        let t_packed = best (fun () -> sim_packed_run c ~cycles ~seed:2) in
        let scalar_pps = float_of_int cycles /. t_scalar in
        let packed_pps =
          float_of_int (cycles * Aig.Compiled.lanes) /. t_packed
        in
        let speedup = packed_pps /. scalar_pps in
        Printf.printf
          "%-18s ands %6d  scalar %12.0f/s  packed %12.0f/s  speedup %7.1fx  \
           agreement %s\n"
          name (Aig.Compiled.num_ands c) scalar_pps packed_pps speedup
          (if ok then "ok" else "FAIL");
        Json.Obj
          [ ("design", Json.String name);
            ("ands", Json.Int (Aig.Compiled.num_ands c));
            ("latches", Json.Int (Aig.Compiled.num_latches c));
            ("cycles", Json.Int cycles);
            ("scalar_patterns_per_s", Json.Float scalar_pps);
            ("packed_patterns_per_s", Json.Float packed_pps);
            ("speedup", Json.Float speedup);
            ("agreement", Json.String (if ok then "ok" else "FAIL")) ])
      designs
  in
  print_newline ();
  let doc =
    Json.Obj
      [ ("lanes", Json.Int Aig.Compiled.lanes);
        ("reps", Json.Int reps);
        ("agreement", Json.String (if !all_ok then "ok" else "FAIL"));
        ("designs", Json.List rows) ]
  in
  (try
     Out_channel.with_open_text "BENCH_sim.json" (fun oc ->
         Json.to_channel oc doc)
   with Sys_error msg ->
     Printf.eprintf "error: cannot write BENCH_sim.json: %s\n" msg);
  if not !all_ok then begin
    prerr_endline "microbench: packed/scalar agreement FAILED";
    exit 1
  end;
  [ ("microbench", doc) ]

(* ------------------------------------------------ equivalence benchmark *)

(* SAT certification of the PCtrl partial evaluation, timed: the flexible
   netlist specialized at the AIG level against the generator's partially
   evaluated design, per protocol mode, plus one seeded negative control
   (a microcode bit flip that must be refuted with a concrete witness).
   Solver effort lands in the JSON so the proof cost is tracked alongside
   the synthesis figures. *)
let equivbench () =
  print_endline
    "== SAT equivalence certification: PCtrl partial evaluation ==";
  let flex =
    (Synth.Lower.run (Pctrl.Controller.full_design ())).Synth.Lower.aig
  in
  let one name ~frames ~mutate mode =
    let bindings = Pctrl.Controller.bindings mode in
    let bindings =
      match mutate with
      | None -> bindings
      | Some seed -> fst (Workload.Rng.mutate_bindings ~seed bindings)
    in
    let a = Synth.Partial_eval.bind_aig_tables flex bindings in
    let b =
      (Synth.Lower.run (Pctrl.Controller.auto_design mode)).Synth.Lower.aig
    in
    let stats = ref None in
    let t0 = Obs.now_us () in
    let verdict =
      Synth.Equiv.check_sat ~frames ~on_stats:(fun s -> stats := Some s) a b
    in
    let wall_s = (Obs.now_us () -. t0) /. 1e6 in
    let verdict_name, witness =
      match verdict with
      | Synth.Equiv.Proved -> ("proved", None)
      | Synth.Equiv.Refuted c ->
        ("refuted", Some (Synth.Equiv.mismatch_to_string c.Synth.Equiv.first))
      | Synth.Equiv.Undecided s -> ("undecided", Some s)
    in
    let solves, conflicts, propagations =
      match !stats with
      | None -> (0, 0, 0)
      | Some s ->
        (s.Sat.Solver.solves, s.Sat.Solver.conflicts,
         s.Sat.Solver.propagations)
    in
    Printf.printf
      "%-24s %-9s %8.3fs  %4d solve(s) %6d conflicts %9d propagations%s\n"
      name verdict_name wall_s solves conflicts propagations
      (match witness with None -> "" | Some w -> "  [" ^ w ^ "]");
    Json.Obj
      [ ("case", Json.String name);
        ("verdict", Json.String verdict_name);
        ("wall_s", Json.Float wall_s);
        ("solves", Json.Int solves);
        ("conflicts", Json.Int conflicts);
        ("propagations", Json.Int propagations);
        ("witness",
         match witness with None -> Json.Null | Some w -> Json.String w) ]
  in
  let cached = one "cached" ~frames:16 ~mutate:None Pctrl.Controller.Cached in
  let uncached =
    one "uncached" ~frames:16 ~mutate:None Pctrl.Controller.Uncached
  in
  (* Seed 8 flips a dispatch-table bit that manifests within a few cycles,
     so the refutation is cheap; deeper frames only matter for mutations of
     unreachable entries, which this control avoids. *)
  let mutation =
    one "cached+mutation" ~frames:6 ~mutate:(Some 8) Pctrl.Controller.Cached
  in
  let rows = [ cached; uncached; mutation ] in
  print_newline ();
  [ ("equivbench", Json.List rows) ]

let all ?sim_reps cli =
  List.concat
    [ fig5 (); fig6 (); fig8 (); fig9 (); fault cli; ablations ();
      equivbench (); microbench ?reps:sim_reps () ]

(* --------------------------------------------------------- entry point *)

let engine_stats_json (s : Engine.stats) =
  Json.Obj
    [ ("submitted", Json.Int s.Engine.submitted);
      ("executed", Json.Int s.Engine.executed);
      ("failed", Json.Int s.Engine.failed);
      ("mem_hits", Json.Int s.Engine.mem_hits);
      ("disk_hits", Json.Int s.Engine.disk_hits);
      ("quarantined", Json.Int s.Engine.quarantined);
      ("wall_s", Json.Float s.Engine.wall_s);
      ("cpu_s", Json.Float s.Engine.cpu_s) ]

(* Run one command's figures, then report: stderr tables, the optional
   JSON document, and exit 1 after listing any failed synthesis jobs. *)
let emit command run cli json_path =
  let figures = run cli in
  Cli.finish cli;
  let failures = Experiments.Exp_common.failures () in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [ ("command", Json.String command);
            ("figures", Json.Obj figures);
            ("failures",
             Json.List (List.map (fun m -> Json.String m) failures));
            ("engine", engine_stats_json (Engine.stats (Engine.default ())));
            ("metrics",
             if Obs.enabled () then Obs.Metrics.to_json () else Json.Null) ]
      in
      try Out_channel.with_open_text path (fun oc -> Json.to_channel oc doc)
      with Sys_error msg ->
        Printf.eprintf "error: cannot write JSON output: %s\n" msg;
        exit 2)
    json_path;
  if failures <> [] then begin
    Printf.eprintf "%d synthesis job(s) failed:\n" (List.length failures);
    List.iter (fun m -> Printf.eprintf "  %s\n" m) failures;
    exit 1
  end

let json =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH"
           ~doc:"Also write the figure rows and engine statistics as JSON \
                 to $(docv).")

let sim_reps =
  let pos_int =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (`Msg "expected a positive integer")),
        Format.pp_print_int )
  in
  Arg.(value & opt (some pos_int) None
       & info [ "sim-reps" ] ~docv:"N"
           ~doc:"Best-of-$(docv) repetitions per simulation microbench \
                 measurement (default 5).")

(* [run] is a term evaluating to the command body, so a command can add
   its own flags in front of the shared ones. *)
let term command run = Term.(const (emit command) $ run $ Cli.term $ json)
let command name ~doc run = Cmd.v (Cmd.info name ~doc) (term name run)
let plain f = Term.const (fun _ -> f ())
let ablation f = plain (fun () -> f (); [])

let all_term = Term.(const (fun sim_reps -> all ?sim_reps) $ sim_reps)

let () =
  let info =
    Cmd.info "main.exe"
      ~doc:"Regenerate the paper's figures and ablations."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:(term "all" all_term) info
          [ command "all" ~doc:"Every figure, ablation and benchmark." all_term;
            command "quick" ~doc:"Subsampled Figs. 5/6/8/9 and fault smoke run."
              (plain quick);
            command "fig5" ~doc:"Fig. 5: table vs SOP area." (plain fig5);
            command "fig6" ~doc:"Fig. 6: FSM implementations." (plain fig6);
            command "fig8" ~doc:"Fig. 8: one-hot state vectors." (plain fig8);
            command "fig9" ~doc:"Fig. 9: PCtrl Full/Auto/Manual." (plain fig9);
            command "fault" ~doc:"Fault-vulnerability comparison."
              Term.(const fault);
            command "ablations" ~doc:"Every ablation." (plain ablations);
            command "ablate-cone" ~doc:"Collapse cone-cap ablation."
              (ablation Experiments.Ablation.cone_cap);
            command "ablate-twolevel" ~doc:"Two-level minimizer ablation."
              (ablation Experiments.Ablation.twolevel);
            command "ablate-cap" ~doc:"Annotation width-cap ablation."
              (ablation Experiments.Ablation.annot_cap);
            command "ablate-encodings" ~doc:"State-encoding ablation."
              (ablation Experiments.Ablation.encodings);
            command "ablate-library" ~doc:"Cell-library richness ablation."
              (ablation Experiments.Ablation.library_richness);
            command "ablate-ucode" ~doc:"Microcode-style ablation."
              (ablation Experiments.Ablation.microcode_style);
            command "equivbench"
              ~doc:"Timed SAT certification of the PCtrl partial evaluation."
              (plain equivbench);
            command "microbench"
              ~doc:"Scalar vs packed simulation throughput (BENCH_sim.json)."
              Term.(const (fun reps _ -> microbench ?reps ()) $ sim_reps) ]))

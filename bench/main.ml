(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figs. 5, 6, 8, 9) and the ablations documented in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig5       -- one figure
     dune exec bench/main.exe fault      -- fault-vulnerability comparison
     dune exec bench/main.exe quick      -- subsampled smoke run

   Engine flags (combine with any command):
     -j N             run synthesis jobs on N worker domains (0 = auto)
     --timeout-s S    per-job timeout, measured from submission
     --retries N      re-run failed jobs up to N times (exp. backoff)
     --cache-dir DIR  persist synthesis results across runs
     --no-cache       disable result caching entirely
     --json PATH      also write figure rows + engine stats as JSON
     --trace PATH     write a Chrome trace (one span per synthesis pass)
     --metrics        print the process metrics table to stderr

   Figure tables go to stdout; engine statistics, metrics and traces go to
   stderr or to their own files, so stdout is byte-identical across -j
   values, cache temperatures and observability settings. A sweep with
   failed compiles still prints every figure (failed cells render as FAIL)
   and exits 1 after listing the failures on stderr. *)

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

let fault ~sim_jobs ?timeout_s ?(sites = 48) () =
  let rows = Experiments.Fault_cmp.run ~sites ~jobs:sim_jobs ?timeout_s () in
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
      | Some seed ->
        let rng = Workload.Rng.make seed in
        let i = Workload.Rng.int rng (List.length bindings) in
        let _, contents = List.nth bindings i in
        let e = Workload.Rng.int rng (Array.length contents) in
        let b = Workload.Rng.int rng (Bitvec.width contents.(e)) in
        let contents' = Array.copy contents in
        contents'.(e) <-
          Bitvec.set contents.(e) b (not (Bitvec.get contents.(e) b));
        List.mapi
          (fun j (n, c) -> if j = i then (n, contents') else (n, c))
          bindings
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

let all ~sim_jobs ?timeout_s ?sim_reps () =
  let figs =
    List.concat
      [ fig5 (); fig6 (); fig8 (); fig9 ();
        fault ~sim_jobs ?timeout_s (); ablations (); equivbench ();
        microbench ?reps:sim_reps () ]
  in
  figs

(* --------------------------------------------------------- entry point *)

let engine_stats_json (s : Engine.stats) =
  Json.Obj
    [ ("submitted", Json.Int s.Engine.submitted);
      ("executed", Json.Int s.Engine.executed);
      ("failed", Json.Int s.Engine.failed);
      ("retried", Json.Int s.Engine.retried);
      ("mem_hits", Json.Int s.Engine.mem_hits);
      ("disk_hits", Json.Int s.Engine.disk_hits);
      ("quarantined", Json.Int s.Engine.quarantined);
      ("wall_s", Json.Float s.Engine.wall_s);
      ("cpu_s", Json.Float s.Engine.cpu_s) ]

let usage () =
  prerr_endline
    "usage: main.exe \
     [all|quick|fig5|fig6|fig8|fig9|fault|ablations|ablate-cone|ablate-twolevel|ablate-cap|ablate-encodings|ablate-library|ablate-ucode|equivbench|microbench]\n\
     \       [-j N] [--timeout-s S] [--retries N] [--cache-dir DIR] \
     [--no-cache] [--json PATH] [--trace PATH] [--metrics] [--sim-reps N]";
  exit 2

let () =
  let commands = ref [] in
  let jobs = ref 1 in
  let timeout_s = ref None in
  let retries = ref 0 in
  let cache_dir = ref None in
  let no_cache = ref false in
  let json_path = ref None in
  let trace_path = ref None in
  let metrics = ref false in
  let sim_reps = ref None in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> jobs := n
       | _ -> usage ());
      parse rest
    | [ "-j" ] | [ "--jobs" ] -> usage ()
    | "--timeout-s" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0.0 -> timeout_s := Some s
       | _ -> usage ());
      parse rest
    | [ "--timeout-s" ] -> usage ()
    | "--retries" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 0 -> retries := n
       | _ -> usage ());
      parse rest
    | [ "--retries" ] -> usage ()
    | "--cache-dir" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest
    | [ "--cache-dir" ] -> usage ()
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | [ "--json" ] -> usage ()
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      parse rest
    | [ "--trace" ] -> usage ()
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--sim-reps" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> sim_reps := Some n
       | _ -> usage ());
      parse rest
    | [ "--sim-reps" ] -> usage ()
    | cmd :: rest ->
      commands := !commands @ [ cmd ];
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Observability on when either sink was requested. The at_exit hook
     makes the trace survive the failed-sweep exit-1 path. *)
  if !metrics || !trace_path <> None then Obs.set_enabled true;
  Option.iter Obs.Trace.install_at_exit !trace_path;
  (match
     Engine.create ~jobs:!jobs ?cache_dir:!cache_dir ~no_cache:!no_cache
       ?timeout_s:!timeout_s ~retries:!retries Cells.Library.vt90
   with
  | e -> Engine.set_default e
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2);
  let sim_jobs =
    if !jobs = 0 then Domain.recommended_domain_count () else !jobs
  in
  let command = match !commands with [] -> "all" | c :: _ -> c in
  (match !commands with [] | [ _ ] -> () | _ -> usage ());
  let figures =
    match command with
    | "all" -> all ~sim_jobs ?timeout_s:!timeout_s ?sim_reps:!sim_reps ()
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "fig8" -> fig8 ()
    | "fig9" -> fig9 ()
    | "fault" -> fault ~sim_jobs ?timeout_s:!timeout_s ()
    | "quick" -> quick ()
    | "microbench" -> microbench ?reps:!sim_reps ()
    | "equivbench" -> equivbench ()
    | "ablate-cone" -> Experiments.Ablation.cone_cap (); []
    | "ablate-twolevel" -> Experiments.Ablation.twolevel (); []
    | "ablate-cap" -> Experiments.Ablation.annot_cap (); []
    | "ablate-encodings" -> Experiments.Ablation.encodings (); []
    | "ablate-library" -> Experiments.Ablation.library_richness (); []
    | "ablate-ucode" -> Experiments.Ablation.microcode_style (); []
    | "ablations" -> ablations ()
    | _ -> usage ()
  in
  let stats = Engine.stats (Engine.default ()) in
  prerr_string (Engine.stats_table stats);
  if !metrics then prerr_string (Obs.Metrics.to_table ());
  let failures = Experiments.Exp_common.failures () in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [ ("command", Json.String command);
            ("figures", Json.Obj figures);
            ("failures",
             Json.List (List.map (fun m -> Json.String m) failures));
            ("engine", engine_stats_json stats);
            ("metrics",
             if Obs.enabled () then Obs.Metrics.to_json () else Json.Null) ]
      in
      try Out_channel.with_open_text path (fun oc -> Json.to_channel oc doc)
      with Sys_error msg ->
        Printf.eprintf "error: cannot write JSON output: %s\n" msg;
        exit 2)
    !json_path;
  if failures <> [] then begin
    Printf.eprintf "%d synthesis job(s) failed:\n" (List.length failures);
    List.iter (fun m -> Printf.eprintf "  %s\n" m) failures;
    exit 1
  end

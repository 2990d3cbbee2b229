(* Figure harness: regenerates every table/figure of the paper's
   evaluation (Figs. 5, 6, 8, 9) and the ablations documented in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig5       -- one figure
     dune exec bench/main.exe fault      -- fault-vulnerability comparison
     dune exec bench/main.exe quick      -- subsampled smoke run
     dune exec bench/main.exe equivbench -- timed SAT certification of PCtrl

   Per-layer performance (synthesis passes, BDD, SAT, the packed
   simulation kernel, fault campaigns) is measured by perfbench/run.sh,
   not here.

   Every command takes the shared engine and observability flags of
   [Cli] (-j, --cache-dir, --no-cache, --trace, --metrics) and --json
   PATH, which also writes the figure rows and the engine statistics as
   JSON. Flags follow the command name. Each run builds one engine from
   them and passes it to every experiment that compiles, netlists too.

   Figure tables go to stdout; engine statistics, metrics and traces go to
   stderr or to their own files, so stdout is byte-identical across -j
   values, cache temperatures and observability settings. A sweep with
   failed compiles still prints every table (failed cells render as FAIL)
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
  Json.List
    (List.map
       (fun (r : Experiments.Fig9.row) ->
         Json.Obj
           [ ("config", Json.String (Experiments.Fig9.mode_name r.mode));
             ("level", Json.String (Experiments.Fig9.level_name r.level));
             ("comb_area", Json.Float r.comb);
             ("seq_area", Json.Float r.seq);
             ("power", Json.Float r.power) ])
       rows)

(* ------------------------------------------------------------ commands *)

(* Each command takes the run's one engine and returns its (figure name,
   rows-as-JSON) contributions. Figure tables go to stdout. *)

let out = Format.std_formatter

let fig5 engine =
  let rows = Experiments.Fig5.run engine in
  Experiments.Fig5.print out rows;
  [ ("fig5", fig5_json rows) ]

let fig6 engine =
  let rows = Experiments.Fig6.run engine in
  Experiments.Fig6.print out rows;
  [ ("fig6", fig6_json rows) ]

let fig8 engine =
  let rows = Experiments.Fig8.run engine in
  Experiments.Fig8.print out rows;
  [ ("fig8", fig8_json rows) ]

let fig9 engine =
  let rows = Experiments.Fig9.rows engine in
  Experiments.Fig9.print out rows;
  [ ("fig9", fig9_json rows) ]

let fault engine =
  let rows = Experiments.Fault_cmp.run engine in
  Experiments.Fault_cmp.print out rows;
  [ ("fault", Experiments.Fault_cmp.to_json rows) ]

let quick engine =
  let r5 =
    Experiments.Fig5.run ~seeds:[ 0 ] ~grid:Experiments.Fig5.quick_grid engine
  in
  Experiments.Fig5.print out r5;
  let r6 =
    Experiments.Fig6.run ~seeds:[ 0 ] ~grid:Experiments.Fig6.quick_grid engine
  in
  Experiments.Fig6.print out r6;
  let r8 = Experiments.Fig8.run ~widths:[ 2; 8; 32; 64 ] engine in
  Experiments.Fig8.print out r8;
  let r9 = Experiments.Fig9.rows engine in
  Experiments.Fig9.print out r9;
  let fault_rows = Experiments.Fault_cmp.run ~sites:8 engine in
  Experiments.Fault_cmp.print out fault_rows;
  [ ("fig5", fig5_json r5); ("fig6", fig6_json r6); ("fig8", fig8_json r8);
    ("fig9", fig9_json r9);
    ("fault", Experiments.Fault_cmp.to_json fault_rows) ]

let ablations engine =
  Experiments.Ablation.cone_cap out engine;
  Experiments.Ablation.twolevel out;
  Experiments.Ablation.annot_cap out engine;
  Experiments.Ablation.encodings out engine;
  Experiments.Ablation.library_richness out engine;
  Experiments.Ablation.microcode_style out engine;
  []

(* ------------------------------------------------ equivalence benchmark *)

(* SAT certification of the PCtrl partial evaluation, timed: the flexible
   netlist specialized at the AIG level against the generator's partially
   evaluated design, per protocol mode, plus one seeded negative control
   (a microcode bit flip that must be refuted with a concrete witness).
   Solver effort lands in the JSON so the proof cost is tracked alongside
   the synthesis figures. *)
let equivbench _ =
  print_endline
    "== SAT equivalence certification: PCtrl partial evaluation ==";
  let one name ~frames ~mutate mode =
    let bindings =
      Option.map
        (fun seed ->
          fst
            (Workload.Rng.mutate_bindings ~seed
               (Pctrl.Controller.bindings mode)))
        mutate
    in
    let a, b = Pctrl.Controller.certification_pair ?bindings mode in
    let stats = ref None in
    let t0 = Obs.now_us () in
    let verdict =
      Synth.Equiv.run
        ~on_stats:(fun s -> stats := Some s)
        (Synth.Equiv.Sat { frames }) a b
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
    (* The wall time goes to stderr and the JSON, keeping stdout
       byte-identical across runs. *)
    Printf.printf "%-24s %-9s %4d solve(s) %6d conflicts %9d propagations%s\n"
      name verdict_name solves conflicts propagations
      (match witness with None -> "" | Some w -> "  [" ^ w ^ "]");
    Printf.eprintf "equivbench %s: %.3fs\n" name wall_s;
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

(* Each section is bound in paper order: the elements of a list literal
   are evaluated right to left. *)
let all engine =
  let f5 = fig5 engine in
  let f6 = fig6 engine in
  let f8 = fig8 engine in
  let f9 = fig9 engine in
  let fl = fault engine in
  let ab = ablations engine in
  let eq = equivbench engine in
  List.concat [ f5; f6; f8; f9; fl; ab; eq ]

(* --------------------------------------------------------- entry point *)

let engine_stats_json (s : Engine.stats) =
  Json.Obj
    [ ("submitted", Json.Int s.Engine.submitted);
      ("executed", Json.Int s.Engine.executed);
      ("failed", Json.Int s.Engine.failed);
      ("mem_hits", Json.Int s.Engine.mem_hits);
      ("disk_hits", Json.Int s.Engine.disk_hits);
      ("wall_s", Json.Float s.Engine.wall_s);
      ("cpu_s", Json.Float s.Engine.cpu_s) ]

(* Run one command's figures on one engine, then report: stderr tables, the
   optional JSON document, and exit 1 after listing the engine's failed
   synthesis jobs. *)
let emit command run cli json_path =
  let engine = Cli.engine cli Experiments.Exp_common.lib in
  let figures = run engine in
  Cli.finish cli engine;
  let failures = Engine.failures engine in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [ ("command", Json.String command);
            ("figures", Json.Obj figures);
            ("failures",
             Json.List (List.map (fun m -> Json.String m) failures));
            ("engine", engine_stats_json (Engine.stats engine));
            ("metrics",
             if Obs.enabled () then Obs.Metrics.to_json () else Json.Null);
            ("spans",
             if Obs.enabled () then Obs.Span.to_json () else Json.Null) ]
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

let term command run = Term.(const (emit command run) $ Cli.term $ json)
let command name ~doc run = Cmd.v (Cmd.info name ~doc) (term name run)
let ablation f engine = f engine; []

let () =
  let info =
    Cmd.info "main.exe"
      ~doc:"Regenerate the paper's figures and ablations."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:(term "all" all) info
          [ command "all" ~doc:"Every figure, ablation and benchmark." all;
            command "quick" ~doc:"Subsampled Figs. 5/6/8/9 and fault smoke run."
              quick;
            command "fig5" ~doc:"Fig. 5: table vs SOP area." fig5;
            command "fig6" ~doc:"Fig. 6: FSM implementations." fig6;
            command "fig8" ~doc:"Fig. 8: one-hot state vectors." fig8;
            command "fig9" ~doc:"Fig. 9: PCtrl Full/Auto/Manual." fig9;
            command "fault" ~doc:"Fault-vulnerability comparison." fault;
            command "ablations" ~doc:"Every ablation." ablations;
            command "ablate-cone" ~doc:"Collapse cone-cap ablation."
              (ablation (Experiments.Ablation.cone_cap out));
            command "ablate-twolevel" ~doc:"Two-level minimizer ablation."
              (ablation (fun _ -> Experiments.Ablation.twolevel out));
            command "ablate-cap" ~doc:"Annotation width-cap ablation."
              (ablation (Experiments.Ablation.annot_cap out));
            command "ablate-encodings" ~doc:"State-encoding ablation."
              (ablation (Experiments.Ablation.encodings out));
            command "ablate-library" ~doc:"Cell-library richness ablation."
              (ablation (Experiments.Ablation.library_richness out));
            command "ablate-ucode" ~doc:"Microcode-style ablation."
              (ablation (Experiments.Ablation.microcode_style out));
            command "equivbench"
              ~doc:"Timed SAT certification of the PCtrl partial evaluation."
              equivbench ]))

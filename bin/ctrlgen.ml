(* ctrlgen — command-line front end to the controller-generator library.

   Subcommands:
     synth       generate a random controller and synthesize it
     asm         assemble a microprogram and report on it
     design      load a serialized design; synthesize / emit verilog,
                 gate-level netlist or AIGER; optionally with a user cell
                 library (Liberty-lite)
     pctrl       build and synthesize the protocol-controller case study
     equiv       certify flexible vs partially-evaluated PCtrl equivalence
                 (simulation and/or complete SAT engine)
     fault       run a fault-injection campaign on the PCtrl case study
                 (--cache-dir stores its site outcomes: a rerun resumes)

   Every subcommand takes the shared engine and observability flags of
   [Cli]. Each submits its compiles as one engine batch ([Engine.netlists]
   where it reads the netlist); a failed one ends the run in [Cli.finish]
   with exit 1. The paper's figures and ablations are regenerated by
   bench/main.exe. *)

open Cmdliner

let lib = Cells.Library.vt90

let print_report prefix (report : Synth.Map.report) =
  Format.printf "%s: %a@." prefix Synth.Map.pp_report report

(* An output file that cannot be written is a run-time error: one line
   naming the path, exit 2. *)
let writing path f =
  try f ()
  with Sys_error msg ->
    let msg =
      if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
    in
    Printf.eprintf "error: %s\n" msg;
    exit 2

let flow_options ~annotate ~retime =
  { Synth.Flow.default with honor_generator_annots = annotate; retime }

(* Every compiling subcommand submits its jobs as one batch ([submit] is
   [Engine.run] or [Engine.netlists]); a failed one ends the run in
   [Cli.finish], which lists it and exits 1. *)
let compile cli engine submit jobs =
  let outcomes = submit engine jobs in
  if Engine.failures engine <> [] then Cli.finish cli engine;
  List.map Result.get_ok outcomes

(* ------------------------------------------------------------------ synth *)

let synth_kind =
  let doc = "Controller kind: $(b,table) or $(b,fsm)." in
  Arg.(value & opt (enum [ ("table", `Table); ("fsm", `Fsm) ]) `Fsm
       & info [ "kind" ] ~doc)

let style_arg =
  let doc =
    "Implementation style: $(b,flexible) (configuration memories), \
     $(b,bound) (partially evaluated) or $(b,direct)."
  in
  Arg.(value
       & opt (enum [ ("flexible", `Flexible); ("bound", `Bound); ("direct", `Direct) ])
           `Bound
       & info [ "style" ] ~doc)

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

let synth_cmd =
  let run cli kind style seed depth width inputs outputs states
      annotate retime dump_verilog dump_netlist =
    let engine = Cli.engine cli lib in
    let design =
      match kind with
      | `Table ->
        let tt = Workload.Rand_table.generate ~seed ~depth ~width in
        (match style with
         | `Flexible -> Core.Truth_table.to_flexible_rtl tt
         | `Bound ->
           Synth.Partial_eval.bind_tables
             (Core.Truth_table.to_flexible_rtl tt)
             [ Core.Truth_table.config_binding tt ]
         | `Direct -> Core.Truth_table.to_sop_rtl tt)
      | `Fsm ->
        let fsm =
          Workload.Rand_fsm.generate ~seed ~num_inputs:inputs
            ~num_outputs:outputs ~num_states:states
        in
        (match style with
         | `Flexible -> Core.Fsm_ir.to_flexible_rtl ~annotate fsm
         | `Bound ->
           Synth.Partial_eval.bind_tables
             (Core.Fsm_ir.to_flexible_rtl ~annotate fsm)
             (Core.Fsm_ir.config_bindings fsm)
         | `Direct -> Core.Fsm_ir.to_direct_rtl fsm)
    in
    Format.printf "%s@." (Rtl.Design.stats design);
    if dump_verilog then print_string (Rtl.Verilog.emit design);
    let options = flow_options ~annotate ~retime in
    let job = Engine.job ~options design in
    if dump_netlist then begin
      let result = List.hd (compile cli engine Engine.netlists [ job ]) in
      Format.printf "optimized: %s@." (Aig.stats result.Synth.Flow.aig);
      print_report "mapped" result.Synth.Flow.report;
      print_string
        (Synth.Netlist.emit lib ~name:design.Rtl.Design.name
           result.Synth.Flow.aig result.Synth.Flow.instances)
    end
    else
      List.iter
        (fun (s : Engine.Summary.t) ->
          Format.printf "optimized: aig: %d latches, %d ANDs@." s.aig_latches
            s.aig_ands;
          print_report "mapped" s.report)
        (compile cli engine Engine.run [ job ]);
    Cli.finish cli engine
  in
  let positive default name doc =
    Arg.(value & opt (Cli.range 1) default & info [ name ] ~doc)
  in
  let depth = positive 64 "depth" "Table depth." in
  let width = positive 8 "width" "Table width." in
  let inputs =
    Arg.(value & opt (Cli.range ~max:16 1) 2
         & info [ "inputs" ] ~doc:"FSM input bits (1 to 16).")
  in
  let outputs = positive 8 "outputs" "FSM output bits." in
  let states = positive 8 "states" "FSM state count." in
  let annotate =
    Arg.(value & flag
         & info [ "annotate" ] ~doc:"Emit and honour generator annotations.")
  in
  let retime = Arg.(value & flag & info [ "retime" ] ~doc:"Enable retiming.") in
  let verilog =
    Arg.(value & flag & info [ "verilog" ] ~doc:"Dump the design as Verilog.")
  in
  let netlist =
    Arg.(value & flag
         & info [ "netlist" ] ~doc:"Dump the mapped gate-level netlist.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Generate a random controller and synthesize it.")
    Term.(const run $ Cli.term $ synth_kind $ style_arg $ seed_arg $ depth
          $ width $ inputs $ outputs $ states $ annotate $ retime $ verilog
          $ netlist)

(* -------------------------------------------------------------------- asm *)

let asm_cmd =
  let run cli file dump_verilog storage do_synth =
    let engine = Cli.engine cli lib in
    let source = In_channel.with_open_text file In_channel.input_all in
    match Core.Microasm.parse source with
    | exception Core.Microasm.Parse_error (line, msg) ->
      Format.eprintf "%s:%d: %s@." file line msg;
      exit 1
    | p ->
      Format.printf "program %s: %d instructions, %d-bit words, entry %d@."
        p.Core.Microcode.pname
        (Core.Microcode.depth p)
        (Core.Microcode.word_width p)
        p.Core.Microcode.entry;
      Format.printf "reachable addresses: %s@."
        (String.concat ", "
           (List.map string_of_int (Core.Microcode.reachable_addrs p)));
      List.iter
        (fun (f : Core.Microcode.field) ->
          Format.printf "field %s values: %s@." f.fname
            (String.concat ", "
               (List.map string_of_int
                  (Core.Microcode.field_value_set p f.fname))))
        p.Core.Microcode.format;
      let flexible = Core.Microcode.to_rtl p in
      let bound =
        Synth.Partial_eval.bind_tables flexible (Core.Microcode.config_bindings p)
      in
      let design = match storage with `Rom -> bound | `Config -> flexible in
      if dump_verilog then print_string (Rtl.Verilog.emit design);
      if do_synth then
        List.iter
          (fun (s : Engine.Summary.t) -> print_report "mapped" s.report)
          (compile cli engine Engine.run [ Engine.job bound ]);
      Cli.finish cli engine
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Microassembly source file.")
  in
  let verilog = Arg.(value & flag & info [ "verilog" ] ~doc:"Dump Verilog.") in
  let storage =
    Arg.(value
         & opt (enum [ ("rom", `Rom); ("config", `Config) ]) `Rom
         & info [ "storage" ] ~doc:"rom or config.")
  in
  let do_synth = Arg.(value & flag & info [ "synth" ] ~doc:"Also synthesize.") in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a microprogram and report on it.")
    Term.(const run $ Cli.term $ file $ verilog $ storage $ do_synth)

(* ------------------------------------------------------------------ pctrl *)

let pctrl_cmd =
  let run cli =
    let engine = Cli.engine cli lib in
    let full = Pctrl.Controller.full_design () in
    Format.printf "%s@." (Rtl.Design.stats full);
    (* One batch, so -j compiles the five variants in parallel. *)
    let open Experiments.Fig9 in
    List.iter2
      (fun (m, l) (s : Engine.Summary.t) ->
        print_report (variant_name m l) s.report)
      variants
      (compile cli engine Engine.run (List.map (fun (m, l) -> job m l) variants));
    Cli.finish cli engine
  in
  Cmd.v
    (Cmd.info "pctrl" ~doc:"Synthesize the PCtrl case study at every level.")
    Term.(const run $ Cli.term)

(* ----------------------------------------------------------------- design *)

let design_cmd =
  let run cli file liberty dump_verilog dump_netlist aiger_out do_synth =
    let lib =
      match liberty with
      | None -> lib
      | Some path ->
        let l = Cells.Liberty.of_file path in
        (match Cells.Liberty.check_mappable l with
         | Ok () -> l
         | Error msg ->
           Format.eprintf "%s: %s@." path msg;
           exit 1)
    in
    (* Fingerprints include the library, so a cache directory shared with
       vt90 runs never serves one library's results to another. *)
    let engine = Cli.engine cli lib in
    match Rtl.Serialize.of_file file with
    | exception Rtl.Serialize.Parse_error msg ->
      Format.eprintf "%s: %s@." file msg;
      exit 1
    | design ->
      Format.printf "%s@." (Rtl.Design.stats design);
      if dump_verilog then print_string (Rtl.Verilog.emit design);
      if dump_netlist || aiger_out <> None then begin
        let result =
          List.hd (compile cli engine Engine.netlists [ Engine.job design ])
        in
        print_report "mapped" result.Synth.Flow.report;
        if dump_netlist then
          print_string
            (Synth.Netlist.emit lib ~name:design.Rtl.Design.name
               result.Synth.Flow.aig result.Synth.Flow.instances);
        Option.iter
          (fun path ->
            writing path (fun () ->
                Synth.Aiger.to_file path result.Synth.Flow.aig))
          aiger_out
      end
      else if do_synth then
        List.iter
          (fun (s : Engine.Summary.t) -> print_report "mapped" s.report)
          (compile cli engine Engine.run [ Engine.job design ]);
      Cli.finish cli engine
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Design file (S-expression form).")
  in
  let liberty =
    Arg.(value & opt (some file) None
         & info [ "liberty" ] ~doc:"Cell library file (Liberty-lite dialect).")
  in
  let verilog = Arg.(value & flag & info [ "verilog" ] ~doc:"Dump Verilog.") in
  let netlist =
    Arg.(value & flag & info [ "netlist" ] ~doc:"Dump the mapped netlist.")
  in
  let aiger =
    Arg.(value & opt (some string) None
         & info [ "aiger" ] ~doc:"Write the optimized AIG in AIGER format.")
  in
  let do_synth = Arg.(value & flag & info [ "synth" ] ~doc:"Synthesize.") in
  Cmd.v
    (Cmd.info "design" ~doc:"Load a serialized design and process it.")
    Term.(const run $ Cli.term $ file $ liberty $ verilog $ netlist
          $ aiger $ do_synth)

(* ------------------------------------------------------------------ equiv *)

let mode_arg =
  Arg.(value
       & opt
           (enum
              [ ("cached", Pctrl.Controller.Cached);
                ("uncached", Pctrl.Controller.Uncached) ])
           Pctrl.Controller.Cached
       & info [ "mode" ] ~doc:"PCtrl protocol mode.")

let verdict_line = function
  | Synth.Equiv.Proved -> "proved"
  | Synth.Equiv.Refuted c ->
    "counterexample: " ^ Synth.Equiv.mismatch_to_string c.Synth.Equiv.first
  | Synth.Equiv.Undecided s -> "undecided: " ^ s

let equiv_cmd =
  let run cli mode checker frames opt mutate expect =
    let engine = Cli.engine cli lib in
    let bindings = Pctrl.Controller.bindings mode in
    let bindings, mutation =
      match mutate with
      | None -> (bindings, None)
      | Some seed ->
        let bindings', site = Workload.Rng.mutate_bindings ~seed bindings in
        (bindings', Some (site, seed))
    in
    (* With --opt, side B is the partially evaluated design run through
       the full optimizing flow, so equivalence also certifies the
       optimizer. *)
    let a, b = Pctrl.Controller.certification_pair ~bindings mode in
    let b =
      if opt then
        let job = Experiments.Fig9.job mode Experiments.Fig9.Auto in
        (List.hd (compile cli engine Engine.netlists [ job ])).Synth.Flow.aig
      else b
    in
    Format.printf "equiv: pctrl %s, flexible(bound at AIG level) vs %s@."
      (Experiments.Fig9.mode_name mode)
      (if opt then "partially evaluated + optimized" else "partially evaluated");
    Option.iter
      (fun (site, seed) ->
        Format.printf "mutation: seed %d flips %s@." seed site)
      mutation;
    let print_verdict name v =
      Format.printf "%s: %s@." name (verdict_line v);
      v
    in
    (* One span per engine call. They open here rather than inside
       [Equiv], where perfbench would file their time under [flow]. *)
    let span checker f =
      let args =
        ("mode", Obs.Span.Str (Experiments.Fig9.mode_name mode))
        :: Option.fold ~none:[]
             ~some:(fun (_, seed) -> [ ("mutation", Obs.Span.Int seed) ])
             mutation
      in
      Obs.Span.with_span ~args ("equiv." ^ checker) f
    in
    let run_sim () =
      print_verdict "sim"
        (span "sim" (fun () ->
             Synth.Equiv.run (Synth.Equiv.Sim { seed = 0 }) a b))
    in
    let run_sat () =
      let on_stats (s : Sat.Solver.stats) =
        Printf.eprintf
          "sat: %d solve(s), %d conflicts, %d decisions, %d propagations\n%!"
          s.Sat.Solver.solves s.Sat.Solver.conflicts s.Sat.Solver.decisions
          s.Sat.Solver.propagations
      in
      match
        span "sat" (fun () ->
            Synth.Equiv.run ~on_stats (Synth.Equiv.Sat { frames }) a b)
      with
      | v -> print_verdict "sat" v
      | exception Failure msg ->
        (* Replay of a SAT model through the scalar simulator failed: an
           encoder soundness bug, never an input property. *)
        Format.printf "sat: SOUNDNESS FAILURE: %s@." msg;
        Cli.finish cli engine;
        exit 1
    in
    let verdicts =
      match checker with
      | `Sim -> [ run_sim () ]
      | `Sat -> [ run_sat () ]
      | `Both ->
        let s = run_sim () in
        [ s; run_sat () ]
    in
    Cli.finish cli engine;
    let refuted =
      List.exists (function Synth.Equiv.Refuted _ -> true | _ -> false) verdicts
    in
    let proved = List.mem Synth.Equiv.Proved verdicts in
    if refuted && proved then begin
      Format.printf
        "DISAGREEMENT: one engine proved equivalence, another found a \
         counterexample@.";
      exit 1
    end;
    (match expect with
     | None -> ()
     | Some `Equivalent ->
       if refuted then begin
         Format.printf "expectation failed: expected equivalent, got a \
                        counterexample@.";
         exit 2
       end
     | Some `Counterexample ->
       if not refuted then begin
         Format.printf "expectation failed: expected a counterexample, none \
                        found@.";
         exit 2
       end)
  in
  let checker_arg =
    Arg.(value
         & opt (enum [ ("sim", `Sim); ("sat", `Sat); ("both", `Both) ]) `Both
         & info [ "engine" ]
             ~doc:"Checking engine: $(b,sim) (random simulation, falsifier \
                   only), $(b,sat) (complete: register-correspondence \
                   induction with BMC fallback) or $(b,both).")
  in
  let frames_arg =
    Arg.(value & opt (Cli.range 1) 16
         & info [ "frames" ] ~docv:"N"
             ~doc:"BMC depth when the SAT engine cannot close an induction.")
  in
  let opt_arg =
    Arg.(value & flag
         & info [ "opt" ]
             ~doc:"Compare against the fully optimized AIG instead of the \
                   lowered one. Optimization does not preserve latch names, \
                   so the SAT engine degrades to bounded model checking.")
  in
  let mutate_arg =
    Arg.(value & opt (some int) None
         & info [ "mutate" ] ~docv:"SEED"
             ~doc:"Flip one seeded-random microcode bit on the flexible \
                   side before binding (negative-control injection; the \
                   flipped table/entry/bit is printed).")
  in
  let expect_arg =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("equivalent", `Equivalent);
                     ("counterexample", `Counterexample) ]))
             None
         & info [ "expect" ]
             ~doc:"Fail (exit 2) unless the outcome matches: \
                   $(b,equivalent) = no engine refutes, \
                   $(b,counterexample) = some engine refutes.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Certify flexible-vs-partially-evaluated PCtrl equivalence.")
    Term.(const run $ Cli.term $ mode_arg $ checker_arg $ frames_arg
          $ opt_arg $ mutate_arg $ expect_arg)

(* ------------------------------------------------------------------ fault *)

let fault_cmd =
  let run cli impl mode model seed sites cycles crash_after vcd_path =
    let impl, level =
      match impl with
      | `Flexible -> (Experiments.Fault_cmp.Flexible, Experiments.Fig9.Full)
      | `Bound -> (Experiments.Fault_cmp.Bound, Experiments.Fig9.Auto)
    in
    let engine = Cli.engine cli lib in
    let spec = Experiments.Fault_cmp.spec_of ~cycles ~mode impl in
    (* The stuck-at population lives on the synthesized netlist; other
       models never need the compile. *)
    let aig =
      match model with
      | Fault.Campaign.Stuck | Fault.Campaign.All ->
        let job = Experiments.Fig9.job mode level in
        let result = List.hd (compile cli engine Engine.netlists [ job ]) in
        Some { Fault.Sim.aig = result.Synth.Flow.aig; cycles; seed }
      | Fault.Campaign.Control | Fault.Campaign.Tables | Fault.Campaign.Regs ->
        None
    in
    let on_checkpoint =
      Option.map
        (fun k n ->
          if n >= k then begin
            Printf.eprintf "crash-after: exiting after %d stored site(s)\n%!" n;
            exit 3
          end)
        crash_after
    in
    let report =
      Fault.Campaign.run ~engine ?on_checkpoint ?aig ~seed ~sites ~model spec
    in
    Fault.Campaign.print stdout report;
    Option.iter
      (fun path ->
        match Fault.Campaign.first_mismatch report with
        | None -> prerr_endline "ctrlgen: no mismatching site; VCD not written"
        | Some (Fault.Site.Stuck_at _ as site) ->
          Printf.eprintf
            "ctrlgen: first mismatch %s is a netlist fault; no RTL trace\n"
            (Fault.Site.key site)
        | Some site ->
          writing path (fun () ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (Fault.Sim.vcd_site spec site)));
          Printf.eprintf "ctrlgen: wrote %s (site %s)\n" path
            (Fault.Site.key site))
      vcd_path;
    Cli.finish cli engine;
    if report.Fault.Campaign.failed > 0 then exit 1
  in
  let impl_arg =
    Arg.(value
         & opt (enum [ ("flexible", `Flexible); ("bound", `Bound) ]) `Flexible
         & info [ "impl" ]
             ~doc:"Implementation under test: $(b,flexible) (configuration \
                   memories bound at run time) or $(b,bound) (partially \
                   evaluated).")
  in
  let model_arg =
    Arg.(value
         & opt
             (enum
                [ ("all", Fault.Campaign.All);
                  ("control", Fault.Campaign.Control);
                  ("tables", Fault.Campaign.Tables);
                  ("regs", Fault.Campaign.Regs);
                  ("stuck", Fault.Campaign.Stuck) ])
             Fault.Campaign.All
         & info [ "model" ]
             ~doc:"Fault model: $(b,control) (no fault — self-test), \
                   $(b,tables) (config-memory SEU), $(b,regs) (register \
                   upsets), $(b,stuck) (netlist stuck-at) or $(b,all).")
  in
  let sites_arg =
    Arg.(value & opt (Cli.range 0) 64
         & info [ "sites" ] ~docv:"N"
             ~doc:"Sample at most $(docv) fault sites (0 = exhaustive).")
  in
  let cycles_arg =
    Arg.(value & opt (Cli.range 1) 40
         & info [ "cycles" ] ~docv:"N" ~doc:"Stimulus length in cycles.")
  in
  let crash_after_arg =
    Arg.(value & opt (some (Cli.range 1)) None
         & info [ "crash-after" ] ~docv:"K"
             ~doc:"Testing hook: exit(3) once $(docv) site outcomes have \
                   been stored this run.")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"PATH"
             ~doc:"Write the faulty trace of the first mismatching RTL site \
                   to $(docv) as VCD.")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Run a fault-injection campaign on the PCtrl case study.")
    Term.(const run $ Cli.term $ impl_arg $ mode_arg $ model_arg $ seed_arg
          $ sites_arg $ cycles_arg $ crash_after_arg $ vcd_arg)

let () =
  let info =
    Cmd.info "ctrlgen" ~version:"1.0.0"
      ~doc:"Controller intermediate representations for chip generators."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ synth_cmd; asm_cmd; design_cmd; pctrl_cmd; equiv_cmd; fault_cmd ]))

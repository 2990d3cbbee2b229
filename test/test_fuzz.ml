(* Flow fuzzing: every pass must preserve the sequential behaviour of every
   randomly generated design. Each property draws design seeds from
   0-5000 through [Prop], so a failure prints its FUZZ_SEED repro line. *)

let lib = Cells.Library.vt90

let prop ?(iters = 150) ?examples ~seed name f =
  Prop.test ~iters ~seed ?examples name (Prop.int 5001) f

let no_mismatch = function
  | None -> true
  | Some (m : Synth.Equiv.mismatch) ->
    Printf.ksprintf failwith "mismatch at cycle %d on %s" m.cycle m.output

let no_refutation = function
  | Synth.Equiv.Refuted c -> no_mismatch (Some c.first)
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> true

let lower_matches seed =
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  no_mismatch (Synth.Equiv.rtl_vs_aig ~seed d low.Synth.Lower.aig)

let flow_preserves seed =
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  no_refutation
    (Synth.Equiv.run (Synth.Equiv.Sim { seed }) low.Synth.Lower.aig opt)

let retime_preserves seed =
  let d = Workload.Rand_design.generate ~seed in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  no_refutation
    (Synth.Equiv.run (Synth.Equiv.Sim { seed }) g (Synth.Retime.run g))

let flow_never_grows_flops seed =
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  Aig.num_latches opt <= Aig.num_latches low.Synth.Lower.aig

let seq_check_agrees seed =
  (* Exact equivalence on the small designs it can handle; it must never
     report a counterexample for the flow's output. *)
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  no_refutation
    (Synth.Equiv.run (Synth.Equiv.Bdd { max_vars = 40 }) low.Synth.Lower.aig
       opt)

let mapper_is_functional seed =
  (* Gate-level netlist vs AIG, both on the raw lowered graph (irregular
     structure) and on the optimized one. *)
  let d = Workload.Rand_design.generate ~seed in
  let low = (Synth.Lower.run d).Synth.Lower.aig in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  let check g =
    match Synth.Map.selfcheck ~samples:16 lib g with
    | Ok () -> true
    | Error m -> failwith m
  in
  check low && check opt
  &&
  match Synth.Map.selfcheck ~samples:16 ~complex_cells:false lib opt with
  | Ok () -> true
  | Error m -> failwith ("simple cells: " ^ m)

let verilog_emits seed =
  let d = Workload.Rand_design.generate ~seed in
  String.length (Rtl.Verilog.emit d) > 0

let netlist_counts_match seed =
  (* The structural writer instantiates exactly the cells the area report
     charged for. *)
  let d = Workload.Rand_design.generate ~seed in
  let g = (Synth.Flow.compile lib d).Synth.Flow.aig in
  let r = Synth.Map.run lib g in
  let nc = Synth.Netlist.instance_counts lib g in
  if nc = r.Synth.Map.cell_counts then true
  else
    Printf.ksprintf failwith "report %s vs netlist %s"
      (String.concat ","
         (List.map (fun (c, k) -> Printf.sprintf "%s:%d" c k) r.Synth.Map.cell_counts))
      (String.concat ","
         (List.map (fun (c, k) -> Printf.sprintf "%s:%d" c k) nc))

let () =
  Alcotest.run "fuzz"
    [
      ( "random designs",
        [
          prop "lowering matches the interpreter" ~seed:1000 lower_matches;
          (* Design seed 2987 hit Espresso's lost-minterm REDUCE bug. *)
          prop "full flow preserves behaviour" ~seed:2000 ~examples:[ 2987 ]
            flow_preserves;
          prop "retiming preserves behaviour" ~iters:80 ~seed:3000
            retime_preserves;
          prop "flow never adds flops" ~iters:80 ~seed:4000
            flow_never_grows_flops;
          prop "exact equivalence (when in reach)" ~iters:60 ~seed:5000
            ~examples:[ 2987 ] seq_check_agrees;
          prop "mapped netlist is functional" ~iters:60 ~seed:6000
            mapper_is_functional;
          prop "verilog writer total" ~iters:60 ~seed:7000 verilog_emits;
          prop "netlist counts match report" ~iters:60 ~seed:8000
            netlist_counts_match;
        ] );
    ]

(* Flow fuzzing: every pass must preserve the sequential behaviour of every
   randomly generated design. A failure prints a one-command repro line.

   Environment knobs:
     FUZZ_ITERS=<n>  override every property's iteration count (soak runs
                     or quick smokes); defaults below are unchanged.
     FUZZ_SEED=<s>   run each property exactly once on that seed. *)

let lib = Cells.Library.vt90

let fuzz_iters = Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt

let fuzz_seed = Option.bind (Sys.getenv_opt "FUZZ_SEED") int_of_string_opt

let arb_seed =
  let gen =
    match fuzz_seed with
    | Some s -> QCheck.Gen.return s
    | None -> QCheck.Gen.(0 -- 5000)
  in
  QCheck.make ~print:(Printf.sprintf "seed=%d") gen

let prop ?(count = 150) name f =
  let count =
    match (fuzz_seed, fuzz_iters) with
    | Some _, _ -> 1
    | None, Some n when n > 0 -> n
    | None, _ -> count
  in
  let repro seed =
    Printf.eprintf
      "property %S failed on seed %d\n\
      \  reproduce: FUZZ_SEED=%d dune exec test/test_fuzz.exe\n\
       %!"
      name seed seed
  in
  let wrapped seed =
    let ok =
      try f seed
      with e ->
        repro seed;
        raise e
    in
    if not ok then repro seed;
    ok
  in
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb_seed wrapped)

let no_mismatch = function
  | None -> true
  | Some (m : Synth.Equiv.mismatch) ->
    QCheck.Test.fail_reportf "mismatch at cycle %d on %s" m.cycle m.output

let no_refutation = function
  | Synth.Equiv.Refuted c -> no_mismatch (Some c.first)
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> true

let lower_matches seed =
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  no_mismatch (Synth.Equiv.rtl_vs_aig ~cycles:32 ~runs:3 ~seed d low.Synth.Lower.aig)

let flow_preserves seed =
  let d = Workload.Rand_design.generate ~seed in
  let low = Synth.Lower.run d in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  no_refutation
    (Synth.Equiv.check ~cycles:32 ~runs:3 ~seed low.Synth.Lower.aig opt)

let retime_preserves seed =
  let d = Workload.Rand_design.generate ~seed in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  no_refutation (Synth.Equiv.check ~cycles:32 ~runs:3 ~seed g (Synth.Retime.run g))

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
  match Synth.Seq_check.run ~max_vars:40 low.Synth.Lower.aig opt with
  | Synth.Seq_check.Equivalent | Synth.Seq_check.Gave_up _ -> true
  | Synth.Seq_check.Counterexample o ->
    QCheck.Test.fail_reportf "seq_check counterexample on %s" o

let mapper_is_functional seed =
  (* Gate-level netlist vs AIG, both on the raw lowered graph (irregular
     structure) and on the optimized one. *)
  let d = Workload.Rand_design.generate ~seed in
  let low = (Synth.Lower.run d).Synth.Lower.aig in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  let check g =
    match Synth.Map.selfcheck ~samples:16 lib g with
    | Ok () -> true
    | Error m -> QCheck.Test.fail_reportf "%s" m
  in
  check low && check opt
  &&
  match Synth.Map.selfcheck ~samples:16 ~complex_cells:false lib opt with
  | Ok () -> true
  | Error m -> QCheck.Test.fail_reportf "simple cells: %s" m

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
    QCheck.Test.fail_reportf "report %s vs netlist %s"
      (String.concat ","
         (List.map (fun (c, k) -> Printf.sprintf "%s:%d" c k) r.Synth.Map.cell_counts))
      (String.concat ","
         (List.map (fun (c, k) -> Printf.sprintf "%s:%d" c k) nc))

let () =
  Alcotest.run "fuzz"
    [
      ( "random designs",
        [
          prop "lowering matches the interpreter" lower_matches;
          prop "full flow preserves behaviour" flow_preserves;
          prop "retiming preserves behaviour" ~count:80 retime_preserves;
          prop "flow never adds flops" ~count:80 flow_never_grows_flops;
          prop "exact equivalence (when in reach)" ~count:60 seq_check_agrees;
          prop "mapped netlist is functional" ~count:60 mapper_is_functional;
          prop "verilog writer total" ~count:60 verilog_emits;
          prop "netlist counts match report" ~count:60 netlist_counts_match;
        ] );
    ]

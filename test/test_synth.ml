let lib = Cells.Library.vt90

let check_equiv name a b =
  match Synth.Equiv.aig_vs_aig ~seed:5 a b with
  | None -> ()
  | Some m ->
    Alcotest.failf "%s: mismatch at cycle %d on %s" name m.Synth.Equiv.cycle
      m.Synth.Equiv.output

(* --------------------------------------------------------------- lowering *)

let test_lower_matches_eval () =
  (* Random small designs exercising all word-level operators. *)
  let check_one seed =
    let rng = Random.State.make [| seed |] in
    let b = Rtl.Builder.create "rand" in
    let x = Rtl.Builder.input b "x" 5 in
    let y = Rtl.Builder.input b "y" 5 in
    let q =
      Rtl.Builder.reg b "q" ~reset:Rtl.Design.Sync_reset
        ~d:(Rtl.Expr.add x y)
    in
    let pick2 =
      [
        Rtl.Expr.and_ x y; Rtl.Expr.or_ x y; Rtl.Expr.xor x y;
        Rtl.Expr.add x y; Rtl.Expr.sub x y; Rtl.Expr.not_ x; q;
        Rtl.Expr.mux (Rtl.Expr.bit y 0) x q;
      ]
    in
    let e = List.nth pick2 (Random.State.int rng (List.length pick2)) in
    Rtl.Builder.output b "o1" e;
    Rtl.Builder.output b "o2"
      (Rtl.Expr.concat
         [ Rtl.Expr.eq x y; Rtl.Expr.ult x y; Rtl.Expr.red_xor x;
           Rtl.Expr.red_and y; Rtl.Expr.red_or x ]);
    Rtl.Builder.output b "o3" (Rtl.Expr.slice (Rtl.Expr.concat [ x; y ]) ~hi:7 ~lo:2);
    let d = Rtl.Builder.finish b in
    let low = Synth.Lower.run d in
    match Synth.Equiv.rtl_vs_aig ~seed d low.Synth.Lower.aig with
    | None -> ()
    | Some m ->
      Alcotest.failf "seed %d: RTL/AIG mismatch at cycle %d on %s" seed
        m.Synth.Equiv.cycle m.Synth.Equiv.output
  in
  List.iter check_one [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_lower_rom_folds () =
  (* A constant table lowers to pure logic: no latches at all. *)
  let tt = Workload.Rand_table.generate ~seed:1 ~depth:16 ~width:4 in
  let low = Synth.Lower.run (Core.Truth_table.to_rom_rtl tt) in
  Alcotest.(check int) "no latches" 0 (Aig.num_latches low.Synth.Lower.aig)

let test_lower_config_latches () =
  let tt = Workload.Rand_table.generate ~seed:1 ~depth:16 ~width:4 in
  let low = Synth.Lower.run (Core.Truth_table.to_flexible_rtl tt) in
  Alcotest.(check int) "one latch per config bit" 64
    (Aig.num_latches low.Synth.Lower.aig)

(* --------------------------------------------------------------- collapse *)

let test_collapse_preserves () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:13 ~num_inputs:3 ~num_outputs:6 ~num_states:7
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Collapse.run ~annots:[] g in
  check_equiv "collapse" g g'

let test_collapse_with_constraints () =
  (* out = (y == 3) with y annotated to {0,1}: must fold to constant 0. *)
  let b = Rtl.Builder.create "con" in
  let x = Rtl.Builder.input b "x" 1 in
  let y =
    Rtl.Builder.reg b "y" ~reset:Rtl.Design.Sync_reset
      ~d:(Rtl.Expr.zero_extend x 2)
  in
  Rtl.Builder.output b "hit" (Rtl.Expr.eq_const y 3);
  Rtl.Builder.annotate b
    (Rtl.Annot.value_set "y" [ Bitvec.zero 2; Bitvec.of_int ~width:2 1 ]);
  let d = Rtl.Builder.finish b in
  let low = Synth.Lower.run d in
  let annots = Synth.Annots.extract low in
  Alcotest.(check int) "annotation extracted" 1 (List.length annots);
  let g' = Synth.Collapse.run ~annots low.Synth.Lower.aig in
  let g' = Synth.Sweep.run g' in
  Alcotest.(check int) "logic folded away" 0 (Aig.num_ands g')

(* ------------------------------------------------------------------ sweep *)

let test_sweep_constant_latch () =
  let b = Rtl.Builder.create "cl" in
  let x = Rtl.Builder.input b "x" 1 in
  (* r holds a constant equal to its init: removable. *)
  let _r =
    Rtl.Builder.reg b "r" ~reset:Rtl.Design.Sync_reset ~d:(Rtl.Expr.of_int ~width:1 0)
  in
  let r = Rtl.Expr.signal (Rtl.Signal.make "r" 1) in
  Rtl.Builder.output b "o" (Rtl.Expr.or_ x r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "latch removed" 0 (Aig.num_latches g');
  check_equiv "const latch" g g'

let test_sweep_merges_duplicates () =
  let b = Rtl.Builder.create "dup" in
  let x = Rtl.Builder.input b "x" 1 in
  let r1 = Rtl.Builder.reg b "r1" ~d:x in
  let r2 = Rtl.Builder.reg b "r2" ~d:x in
  Rtl.Builder.output b "o" (Rtl.Expr.xor r1 r2);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  (* identical latches merge, then xor r r = 0 and the last latch dangles *)
  Alcotest.(check int) "all latches gone" 0 (Aig.num_latches g');
  check_equiv "merge" g g'

let test_sweep_keeps_config () =
  let tt = Workload.Rand_table.generate ~seed:3 ~depth:8 ~width:2 in
  let g = (Synth.Lower.run (Core.Truth_table.to_flexible_rtl tt)).Synth.Lower.aig in
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "config latches survive" 16 (Aig.num_latches g')

(* ---------------------------------------------------------------- simsig *)

let test_simsig_latch_filter () =
  (* A toggling latch leaves its init under simulation and must be
     disqualified as a constant candidate; a self-holding latch never
     moves and stays one. Complemented literals hash to distinct
     signatures. *)
  let g = Aig.create () in
  let x = Aig.pi g "x" in
  let t =
    Aig.latch g "t" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g t (Aig.not_ t);
  let h =
    Aig.latch g "h" ~init:true ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g h h;
  Aig.po g "o" (Aig.and_ g (Aig.and_ g t h) x);
  let sigs = Synth.Simsig.compute g in
  Alcotest.(check bool) "toggler disqualified" false
    (Synth.Simsig.latch_may_be_const sigs (Aig.node_of_lit t));
  Alcotest.(check bool) "self-holder stays candidate" true
    (Synth.Simsig.latch_may_be_const sigs (Aig.node_of_lit h));
  Alcotest.(check bool) "complement changes the signature" true
    (Synth.Simsig.lit_signature sigs x
     <> Synth.Simsig.lit_signature sigs (Aig.not_ x));
  Alcotest.(check bool) "classes partition is non-trivial" true
    (List.length (Synth.Simsig.classes sigs) > 1)

let test_sweep_simfilter_two_latches () =
  (* Two latches puts Sweep.run on the signature-filtered path: the
     self-holding constant still folds, the toggler survives. *)
  let g = Aig.create () in
  let x = Aig.pi g "x" in
  let c =
    Aig.latch g "c" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g c c;
  let t =
    Aig.latch g "t" ~init:false ~reset:Rtl.Design.Sync_reset ~is_config:false
  in
  Aig.set_next g t (Aig.not_ t);
  Aig.po g "o" (Aig.or_ g (Aig.or_ g x c) t);
  let g' = Synth.Sweep.run g in
  Alcotest.(check int) "constant folds, toggler survives" 1
    (Aig.num_latches g');
  check_equiv "simfilter" g g'

(* ----------------------------------------------------------------- retime *)

let test_retime_preserves () =
  let b = Rtl.Builder.create "rt" in
  let x = Rtl.Builder.input b "x" 4 in
  let r = Rtl.Builder.reg b "r" ~reset:Rtl.Design.No_reset ~d:x in
  Rtl.Builder.output b "allset" (Rtl.Expr.red_and r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Retime.run g in
  check_equiv "retime" g g';
  (* The four 1-bit latches merge forward into one latch of the AND. *)
  Alcotest.(check int) "forward-merged" 1 (Aig.num_latches g')

let test_retime_refuses_reset () =
  let b = Rtl.Builder.create "rt2" in
  let x = Rtl.Builder.input b "x" 4 in
  let r = Rtl.Builder.reg b "r" ~reset:Rtl.Design.Sync_reset ~d:x in
  Rtl.Builder.output b "allset" (Rtl.Expr.red_and r);
  let d = Rtl.Builder.finish b in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  let g' = Synth.Retime.run g in
  Alcotest.(check int) "latches unchanged" 4 (Aig.num_latches g')

(* -------------------------------------------------------------- stateprop *)

let onehot_generic n =
  Experiments.Onehot_design.generic ~n
    ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset)

let test_stateprop_folds_onehot () =
  let d = onehot_generic 16 in
  let low = Synth.Lower.run d in
  let annots =
    Synth.Annots.honored ~tool:true ~generator:true ~width_cap:32
      (Synth.Annots.extract low)
  in
  Alcotest.(check int) "one annotation" 1 (List.length annots);
  let g' = Synth.Stateprop.run ~annots low.Synth.Lower.aig in
  check_equiv "stateprop" low.Synth.Lower.aig g';
  (* After the full annotated flow, the generic design reaches the direct
     design's area — the detector and mux are gone. *)
  let options = { Synth.Flow.default with honor_generator_annots = true } in
  let direct =
    Experiments.Onehot_design.direct ~n:16
      ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset)
  in
  let a_generic = Synth.Flow.area (Synth.Flow.compile ~options lib d) in
  let a_direct = Synth.Flow.area (Synth.Flow.compile ~options lib direct) in
  Alcotest.(check (float 0.01)) "generic reaches ideal" a_direct a_generic

let test_stateprop_width_cap () =
  let d = onehot_generic 64 in
  let low = Synth.Lower.run d in
  let annots =
    Synth.Annots.honored ~tool:true ~generator:true ~width_cap:32
      (Synth.Annots.extract low)
  in
  Alcotest.(check int) "annotation filtered by cap" 0 (List.length annots)

(* ------------------------------------------------------------------- map *)

let test_map_cells () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and s = Aig.pi g "s" in
  Aig.po g "xor" (Aig.xor_ g a b);
  Aig.po g "mux" (Aig.mux_ g s a b);
  let r = Synth.Map.run lib g in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "one XOR cell" 1 (count "XOR2" + count "XNOR2");
  Alcotest.(check int) "one MUX cell" 1 (count "MUX2");
  Alcotest.(check bool) "positive delay" true (r.Synth.Map.critical_delay > 0.0)

let test_map_flop_kinds () =
  let b = Rtl.Builder.create "fk" in
  let x = Rtl.Builder.input b "x" 1 in
  let r1 = Rtl.Builder.reg b "r1" ~reset:Rtl.Design.No_reset ~d:x in
  let r2 = Rtl.Builder.reg b "r2" ~reset:Rtl.Design.Sync_reset ~d:r1 in
  let r3 = Rtl.Builder.reg b "r3" ~reset:Rtl.Design.Async_reset ~d:r2 in
  Rtl.Builder.output b "o" r3;
  let d = Rtl.Builder.finish b in
  let r = Synth.Map.run lib (Synth.Lower.run d).Synth.Lower.aig in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "DFF" 1 (count "DFF");
  Alcotest.(check int) "SDFF" 1 (count "SDFF");
  Alcotest.(check int) "ADFF" 1 (count "ADFF");
  Alcotest.(check int) "flops" 3 r.Synth.Map.num_flops;
  Alcotest.(check bool) "seq area" true (r.Synth.Map.seq_area > 60.0)

let test_map_inverter_sharing () =
  (* Two consumers of ~a must share one inverter. *)
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" and c = Aig.pi g "c" in
  Aig.po g "o1" (Aig.and_ g (Aig.not_ a) b);
  Aig.po g "o2" (Aig.and_ g (Aig.not_ a) c);
  let r = Synth.Map.run lib g in
  let count name = Option.value ~default:0 (List.assoc_opt name r.Synth.Map.cell_counts) in
  Alcotest.(check int) "one shared INV" 1 (count "INV")

(* ------------------------------------------------------------------ reach *)

let test_reach_matches_ir () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:2 ~num_inputs:2 ~num_outputs:3 ~num_states:6
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  match Synth.Reach.latch_group g ~prefix:"state" with
  | None -> Alcotest.fail "state group not found"
  | Some group ->
    (match Synth.Reach.reachable_values g ~group with
     | None -> Alcotest.fail "reachability gave up"
     | Some values ->
       let got = List.sort compare (List.map Bitvec.to_int values) in
       let expected = Core.Fsm_ir.reachable fsm in
       Alcotest.(check (list int)) "BDD reach = IR reach" expected got)

(* ------------------------------------------------------------------ flow *)

let test_flow_self_check_and_idempotence () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:4 ~num_inputs:2 ~num_outputs:4 ~num_states:9
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let options =
    { Synth.Flow.default with self_check = true; honor_generator_annots = true }
  in
  let r1 = Synth.Flow.compile ~options lib d in
  let r2 = Synth.Flow.compile ~options lib d in
  Alcotest.(check (float 0.001)) "deterministic"
    (Synth.Flow.area r1) (Synth.Flow.area r2)

(* The flow's passes spelled out with both collapse/sweep iterations
   always run: the reference that [Flow.compile], which may stop after the
   first, must match. Returns the graphs entering collapse, after
   iteration 1 and after iteration 2. *)
let two_iteration_chain (options : Synth.Flow.options) d =
  let lowered = Synth.Lower.run d in
  let honored =
    Synth.Annots.honored ~tool:options.honor_tool_annots
      ~generator:options.honor_generator_annots
      ~width_cap:options.annot_width_cap (Synth.Annots.extract lowered)
  in
  let relocate g = List.filter_map (Synth.Annots.relocate g) honored in
  let sweep g = Synth.Sweep.run ~sat:options.sweep_sat g in
  let g0 = sweep lowered.Synth.Lower.aig in
  let g0 = if options.retime then Synth.Retime.run g0 else g0 in
  let g0 =
    if options.stateprop && honored <> [] then
      Synth.Stateprop.run ~annots:(relocate g0) g0
    else g0
  in
  let collapse g =
    Synth.Collapse.run ~cap:options.collapse_cap
      ~espresso_iters:options.espresso_iters ~annots:(relocate g) g
  in
  let g1 = sweep (collapse g0) in
  (g0, g1, sweep (collapse g1))

let test_flow_fixpoint_skip_transparent () =
  let fixpoints = ref 0 and second_changed = ref 0 in
  let check name options d =
    let g0, g1, g2 = two_iteration_chain options d in
    if Aig.equal g0 g1 then incr fixpoints
    else if not (Aig.equal g1 g2) then incr second_changed;
    let got = (Synth.Flow.compile ~options lib d).Synth.Flow.aig in
    Alcotest.(check bool) (name ^ ": flow = two-iteration chain") true
      (Aig.equal got g2)
  in
  for seed = 0 to 39 do
    check (Printf.sprintf "rand %d" seed) Synth.Flow.default
      (Workload.Rand_design.generate ~seed)
  done;
  check "pctrl auto uncached" Synth.Flow.default
    (Pctrl.Controller.auto_design Pctrl.Controller.Uncached);
  check "pctrl manual uncached" Experiments.Exp_common.annotated_flow
    (Pctrl.Controller.manual_design Pctrl.Controller.Uncached);
  (* The corpus exercises both branches, including designs whose second
     iteration still changes the graph, so a skip taken too eagerly
     would fail the equality above. *)
  Alcotest.(check bool) "some fixpoints" true (!fixpoints > 0);
  Alcotest.(check bool) "some second iterations change the graph" true
    (!second_changed > 0)

let () =
  Alcotest.run "synth"
    [
      ( "lower",
        [
          Alcotest.test_case "matches RTL eval" `Quick test_lower_matches_eval;
          Alcotest.test_case "rom folds to logic" `Quick test_lower_rom_folds;
          Alcotest.test_case "config becomes latches" `Quick test_lower_config_latches;
        ] );
      ( "collapse",
        [
          Alcotest.test_case "preserves behaviour" `Quick test_collapse_preserves;
          Alcotest.test_case "exploits value-set DCs" `Quick test_collapse_with_constraints;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "constant latch" `Quick test_sweep_constant_latch;
          Alcotest.test_case "duplicate latches" `Quick test_sweep_merges_duplicates;
          Alcotest.test_case "config exempt" `Quick test_sweep_keeps_config;
          Alcotest.test_case "signature-filtered fixpoint" `Quick
            test_sweep_simfilter_two_latches;
        ] );
      ( "simsig",
        [
          Alcotest.test_case "latch constancy filter" `Quick
            test_simsig_latch_filter;
        ] );
      ( "retime",
        [
          Alcotest.test_case "preserves and merges" `Quick test_retime_preserves;
          Alcotest.test_case "refuses reset flops" `Quick test_retime_refuses_reset;
        ] );
      ( "stateprop",
        [
          Alcotest.test_case "folds one-hot consumer" `Quick test_stateprop_folds_onehot;
          Alcotest.test_case "width cap" `Quick test_stateprop_width_cap;
        ] );
      ( "map",
        [
          Alcotest.test_case "xor and mux cells" `Quick test_map_cells;
          Alcotest.test_case "flop kinds" `Quick test_map_flop_kinds;
          Alcotest.test_case "inverter sharing" `Quick test_map_inverter_sharing;
        ] );
      ("reach", [ Alcotest.test_case "matches IR reachability" `Quick test_reach_matches_ir ]);
      ( "flow",
        [
          Alcotest.test_case "self-check and determinism" `Quick
            test_flow_self_check_and_idempotence;
          Alcotest.test_case "fixpoint skip is transparent" `Quick
            test_flow_fixpoint_skip_transparent;
        ] );
    ]

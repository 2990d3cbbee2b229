(* End-to-end: generate controllers both ways, synthesize, check behaviour
   preservation and sane area relationships. *)

let lib = Cells.Library.vt90

let check_equiv name a b =
  match Synth.Equiv.run (Synth.Equiv.Sim { seed = 11 }) a b with
  | Synth.Equiv.Refuted { first = m; _ } ->
    Alcotest.failf "%s: mismatch at cycle %d on %s (got %b)" name m.cycle
      m.output m.got
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ()

let compile ?options d = Synth.Flow.compile ?options lib d

let test_table_flexible_vs_sop () =
  let tt = Workload.Rand_table.generate ~seed:3 ~depth:16 ~width:4 in
  let flexible = Core.Truth_table.to_flexible_rtl tt in
  let bound =
    Synth.Partial_eval.bind_tables flexible [ Core.Truth_table.config_binding tt ]
  in
  let direct = Core.Truth_table.to_sop_rtl tt in
  let rb = compile bound and rd = compile direct in
  check_equiv "table" rb.Synth.Flow.aig rd.Synth.Flow.aig;
  let ab = Synth.Flow.area rb and ad = Synth.Flow.area rd in
  Alcotest.(check bool) "areas within 2x" true (ab <= 2.0 *. ad +. 1.0 && ad <= 2.0 *. ab +. 1.0);
  (* The flexible-unbound design must be much larger (config memory). *)
  let rf = compile flexible in
  Alcotest.(check bool) "flexible bigger" true (Synth.Flow.area rf > ab)

let test_fsm_three_ways () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:7 ~num_inputs:2 ~num_outputs:8 ~num_states:8
  in
  let direct = Core.Fsm_ir.to_direct_rtl fsm in
  let flex = Core.Fsm_ir.to_flexible_rtl ~annotate:false fsm in
  let flex_annot = Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm in
  let bind d = Synth.Partial_eval.bind_tables d (Core.Fsm_ir.config_bindings fsm) in
  let rd = compile direct in
  let rf = compile (bind flex) in
  let ra =
    compile
      ~options:{ Synth.Flow.default with honor_generator_annots = true }
      (bind flex_annot)
  in
  check_equiv "fsm flex" rd.Synth.Flow.aig rf.Synth.Flow.aig;
  check_equiv "fsm annot" rd.Synth.Flow.aig ra.Synth.Flow.aig;
  let ad = Synth.Flow.area rd
  and af = Synth.Flow.area rf
  and aa = Synth.Flow.area ra in
  Alcotest.(check bool)
    (Printf.sprintf "annotated (%.1f) close to direct (%.1f)" aa ad)
    true
    (aa <= 1.6 *. ad +. 1.0 && ad <= 1.6 *. aa +. 1.0);
  Alcotest.(check bool) "unannotated not absurd" true (af < 20.0 *. ad)

let test_fsm_rtl_vs_ir_semantics () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:21 ~num_inputs:3 ~num_outputs:4 ~num_states:5
  in
  let design =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let st = Rtl.Eval.create design in
  let inputs = [ 0; 1; 7; 3; 2; 5; 6; 4; 1; 0; 2; 7 ] in
  let expected = Core.Fsm_ir.simulate fsm inputs in
  List.iter2
    (fun i exp ->
      Rtl.Eval.set_input st "in" (Bitvec.of_int ~width:3 i);
      let got = Rtl.Eval.peek st "out" in
      Alcotest.(check bool)
        (Printf.sprintf "output for input %d" i)
        true (Bitvec.equal got exp);
      Rtl.Eval.step st)
    inputs expected

let test_flow_output_checked () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:9 ~num_inputs:2 ~num_outputs:2 ~num_states:3
  in
  let design =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let options = { Synth.Flow.default with honor_generator_annots = true } in
  Aig_util.check_flow_result "fsm seed 9" design (compile ~options design)

let test_sequencer_roundtrip () =
  let src = {|
.name demo
.opcode_bits 2
.field go 1
.field sel 4 onehot
.dispatch table idle work idle idle
idle:
  ; dispatch table
work:
  go=1 sel=0b0001 ; next
  go=1 sel=0b0010 ; next
  ; jump idle
|} in
  let p = Core.Microasm.parse src in
  let bound =
    Synth.Partial_eval.bind_tables (Core.Microcode.to_rtl p)
      (Core.Microcode.config_bindings p)
  in
  check_equiv "sequencer" (Synth.Lower.run bound).Synth.Lower.aig
    (compile bound).Synth.Flow.aig;
  (* ISA-level vs RTL-level agreement. *)
  let st = Rtl.Eval.create bound in
  let ops = [ 1; 0; 0; 0; 2; 1; 0; 0 ] in
  let trace = Core.Microcode.run p ~ops in
  List.iter2
    (fun op fields ->
      Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:2 op);
      List.iter
        (fun (fname, v) ->
          let got = Bitvec.to_int (Rtl.Eval.peek st fname) in
          Alcotest.(check int) ("field " ^ fname) v got)
        fields;
      Rtl.Eval.step st)
    ops trace

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "table: flexible vs SOP" `Quick
            test_table_flexible_vs_sop;
          Alcotest.test_case "fsm: direct vs flexible vs annotated" `Quick
            test_fsm_three_ways;
          Alcotest.test_case "fsm: RTL vs IR semantics" `Quick
            test_fsm_rtl_vs_ir_semantics;
          Alcotest.test_case "flow self-check passes" `Quick
            test_flow_output_checked;
          Alcotest.test_case "sequencer: asm -> rtl -> synth" `Quick
            test_sequencer_roundtrip;
        ] );
    ]

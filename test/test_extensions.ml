(* Extension features: the high-level controller-spec compiler, state
   encodings, the annotation inductive checker and exact sequential
   equivalence. *)

let lib = Cells.Library.vt90

(* ---------------------------------------------------------- ctrl_spec *)

let dma_spec =
  {
    Core.Ctrl_spec.name = "spec_dma";
    fields =
      [
        { Core.Microcode.fname = "rd"; fwidth = 1; onehot = false };
        { Core.Microcode.fname = "wr"; fwidth = 1; onehot = false };
        { Core.Microcode.fname = "beat"; fwidth = 2; onehot = false };
      ];
    opcode_bits = 2;
    handlers =
      [
        ( 1,
          Core.Ctrl_spec.Seq
            [
              Core.Ctrl_spec.Emit [ ("rd", 1) ];
              Core.Ctrl_spec.Repeat
                (3, Core.Ctrl_spec.Emit [ ("rd", 1); ("wr", 1) ]);
              Core.Ctrl_spec.Done;
            ] );
        (2, Core.Ctrl_spec.Emit [ ("wr", 1) ]);
      ];
  }

let test_spec_compiles () =
  let p = Core.Ctrl_spec.compile dma_spec in
  (* dispatch + handler1 (1 + 3 beats, jump folded into the last) +
     handler2 (1 with folded jump) *)
  Alcotest.(check int) "program length" 6 (Core.Microcode.depth p);
  Alcotest.(check int) "entry" 0 p.Core.Microcode.entry;
  (* Handler 1 runs cycles 1-4 (last beat jumps back), the dispatch re-runs
     at cycle 5 and picks up op 2, whose single instruction runs at 6. *)
  let trace = Core.Microcode.run p ~ops:[ 1; 0; 0; 0; 0; 2; 0 ] in
  let rd = List.map (List.assoc "rd") trace in
  let wr = List.map (List.assoc "wr") trace in
  Alcotest.(check (list int)) "rd trace" [ 0; 1; 1; 1; 1; 0; 0 ] rd;
  Alcotest.(check (list int)) "wr trace" [ 0; 0; 1; 1; 1; 0; 1 ] wr

let test_spec_instruction_count () =
  let body = List.assoc 1 dma_spec.Core.Ctrl_spec.handlers in
  Alcotest.(check int) "expansion size" 5
    (Core.Ctrl_spec.instruction_count body)

let test_spec_dedup () =
  (* Two opcodes sharing a body compile to one copy. *)
  let shared = Core.Ctrl_spec.Emit [ ("rd", 1) ] in
  let spec =
    { dma_spec with handlers = [ (1, shared); (2, shared); (3, shared) ] }
  in
  let p = Core.Ctrl_spec.compile spec in
  (* dispatch + body (one uop with the jump folded in) *)
  Alcotest.(check int) "deduplicated" 2 (Core.Microcode.depth p)

let test_spec_errors () =
  let expect spec =
    match Core.Ctrl_spec.compile spec with
    | _ -> Alcotest.fail "expected Compile_error"
    | exception Core.Ctrl_spec.Compile_error _ -> ()
  in
  expect
    { dma_spec with handlers = [ (1, Core.Ctrl_spec.Emit [ ("ghost", 1) ]) ] };
  expect
    { dma_spec with handlers = [ (1, Core.Ctrl_spec.Emit [ ("beat", 9) ]) ] };
  expect { dma_spec with handlers = [ (9, Core.Ctrl_spec.Emit []) ] }

(* A microprogram's bound (ROM) sequencer: the flexible one partially
   evaluated under the program. *)
let bound_program ?style p =
  Synth.Partial_eval.bind_tables
    (Core.Microcode.to_rtl ?style p)
    (Core.Microcode.config_bindings ?style p)

let test_spec_hardware () =
  (* The compiled program's hardware behaves like the ISA semantics. *)
  let p = Core.Ctrl_spec.compile dma_spec in
  let st = Rtl.Eval.create (bound_program p) in
  let ops = [ 1; 0; 0; 0; 0; 2; 0; 1; 0 ] in
  List.iter2
    (fun op fields ->
      Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:2 op);
      List.iter
        (fun (f, v) ->
          Alcotest.(check int) f v (Bitvec.to_int (Rtl.Eval.peek st f)))
        fields;
      Rtl.Eval.step st)
    ops (Core.Microcode.run p ~ops)

(* ----------------------------------------------------------- encodings *)

let sample_fsm =
  Workload.Rand_fsm.generate ~seed:31 ~num_inputs:2 ~num_outputs:4 ~num_states:5

let test_encoding_codes () =
  let f = sample_fsm in
  Alcotest.(check int) "binary width" 3
    (Core.Fsm_ir.state_bits_with Core.Fsm_ir.Binary f);
  Alcotest.(check int) "one-hot width" 5
    (Core.Fsm_ir.state_bits_with Core.Fsm_ir.One_hot f);
  (* Gray codes of adjacent indices differ in exactly one bit. *)
  let gray i = Core.Fsm_ir.encode_with Core.Fsm_ir.Gray f i in
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "gray %d->%d" i (i + 1))
        1
        (Bitvec.popcount (Bitvec.logxor (gray i) (gray (i + 1)))))
    [ 0; 1; 2; 3 ];
  (* One-hot codes each have exactly one bit. *)
  List.iter
    (fun c -> Alcotest.(check int) "one bit" 1 (Bitvec.popcount c))
    (Core.Fsm_ir.state_codes_with Core.Fsm_ir.One_hot f)

let test_encodings_equivalent () =
  let f = sample_fsm in
  let rng = Random.State.make [| 9 |] in
  let inputs = List.init 60 (fun _ -> Random.State.int rng 4) in
  let expected = Core.Fsm_ir.simulate f inputs in
  let check_design name d =
    let st = Rtl.Eval.create d in
    List.iter2
      (fun i exp ->
        Rtl.Eval.set_input st "in" (Bitvec.of_int ~width:2 i);
        Alcotest.(check bool)
          (Printf.sprintf "%s input %d" name i)
          true
          (Bitvec.equal exp (Rtl.Eval.peek st "out"));
        Rtl.Eval.step st)
      inputs expected
  in
  check_design "direct gray" (Core.Fsm_ir.to_direct_rtl ~encoding:Core.Fsm_ir.Gray f);
  check_design "direct one-hot"
    (Core.Fsm_ir.to_direct_rtl ~encoding:Core.Fsm_ir.One_hot f)

(* --------------------------------------------------------- annot_check *)

let check_result = function
  | Synth.Annot_check.Proved -> "proved"
  | Synth.Annot_check.Refuted _ -> "refuted"
  | Synth.Annot_check.Unproved _ -> "unproved"

let test_annot_check_fsm () =
  let f = sample_fsm in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl ~annotate:true f)
      (Core.Fsm_ir.config_bindings f)
  in
  let low = Synth.Lower.run d in
  match Synth.Annots.extract low with
  | [ a ] ->
    Alcotest.(check string) "state vector proved" "proved"
      (check_result (Synth.Annot_check.inductive low.Synth.Lower.aig a))
  | _ -> Alcotest.fail "expected one annotation"

let test_annot_check_onehot () =
  let d =
    Experiments.Onehot_design.generic ~n:12
      ~style:(Experiments.Onehot_design.Flop Rtl.Design.Sync_reset)
  in
  let low = Synth.Lower.run d in
  match Synth.Annots.extract low with
  | [ a ] ->
    Alcotest.(check string) "one-hot register proved" "proved"
      (check_result (Synth.Annot_check.inductive low.Synth.Lower.aig a))
  | _ -> Alcotest.fail "expected one annotation"

let test_annot_check_refutes_lies () =
  (* A two-bit counter claimed to stay in {0,1}: refuted at the base or by
     simulation of the step. *)
  let b = Rtl.Builder.create "liar" in
  let q = Rtl.Builder.reg_declare b "q" ~width:2 ~reset:Rtl.Design.Sync_reset in
  Rtl.Builder.reg_connect b "q" (Rtl.Expr.add q (Rtl.Expr.of_int ~width:2 1));
  Rtl.Builder.output b "o" q;
  Rtl.Builder.annotate b
    (Rtl.Annot.value_set "q" [ Bitvec.zero 2; Bitvec.of_int ~width:2 1 ]);
  let low = Synth.Lower.run (Rtl.Builder.finish b) in
  match Synth.Annots.extract low with
  | [ a ] ->
    (match Synth.Annot_check.inductive low.Synth.Lower.aig a with
     | Synth.Annot_check.Proved -> Alcotest.fail "lie proved"
     | Synth.Annot_check.Refuted _ | Synth.Annot_check.Unproved _ -> ())
  | _ -> Alcotest.fail "expected one annotation"

let test_annot_check_bad_init () =
  let b = Rtl.Builder.create "badinit" in
  let q =
    Rtl.Builder.reg_declare b "q" ~width:2 ~reset:Rtl.Design.Sync_reset
      ~init:(Bitvec.of_int ~width:2 3)
  in
  Rtl.Builder.reg_connect b "q" q;
  Rtl.Builder.output b "o" q;
  Rtl.Builder.annotate b (Rtl.Annot.value_set "q" [ Bitvec.zero 2 ]);
  let low = Synth.Lower.run (Rtl.Builder.finish b) in
  match Synth.Annots.extract low with
  | [ a ] ->
    (match Synth.Annot_check.inductive low.Synth.Lower.aig a with
     | Synth.Annot_check.Refuted _ -> ()
     | r -> Alcotest.failf "expected refutation, got %s" (check_result r))
  | _ -> Alcotest.fail "expected one annotation"

let test_pctrl_manual_annotations_proved () =
  (* Every Manual-mode annotation the PCtrl generator emits is a proved
     invariant. The sequencer field registers depend on the µPC register,
     so their per-annotation induction is only provable given the µPC
     annotation — checked jointly by construction; individually they may
     land on Unproved but never Refuted. *)
  let mode = Pctrl.Controller.Uncached in
  let low = Synth.Lower.run (Pctrl.Controller.manual_design mode) in
  let annots = Synth.Annots.extract low in
  Alcotest.(check bool) "several annotations" true (List.length annots >= 6);
  List.iter
    (fun (a : Synth.Annots.t) ->
      match Synth.Annot_check.inductive low.Synth.Lower.aig a with
      | Synth.Annot_check.Refuted reason ->
        Alcotest.failf "annotation %s refuted: %s" a.Synth.Annots.base reason
      | Synth.Annot_check.Proved | Synth.Annot_check.Unproved _ -> ())
    annots

(* ------------------------------------------------------ vertical ucode *)

let test_vertical_equivalent () =
  let p = Core.Ctrl_spec.compile dma_spec in
  let h = bound_program ~style:`Horizontal p in
  let v = bound_program ~style:`Vertical p in
  let gh = (Synth.Lower.run h).Synth.Lower.aig in
  let gv = (Synth.Lower.run v).Synth.Lower.aig in
  (match Synth.Equiv.check ~seed:2 gh gv with
   | Synth.Equiv.Refuted c ->
     Alcotest.failf "styles diverge at cycle %d on %s" c.first.cycle
       c.first.output
   | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ());
  match Synth.Seq_check.run gh gv with
  | Synth.Seq_check.Equivalent -> ()
  | Synth.Seq_check.Counterexample o -> Alcotest.failf "differ on %s" o
  | Synth.Seq_check.Gave_up _ -> ()

let test_vertical_saves_config_bits () =
  (* A program with few distinct control words but wide fields. *)
  let wide =
    {
      Core.Ctrl_spec.name = "wide";
      fields = [ { Core.Microcode.fname = "ctl"; fwidth = 16; onehot = false } ];
      opcode_bits = 1;
      handlers =
        [
          ( 1,
            Core.Ctrl_spec.Seq
              [
                Core.Ctrl_spec.Repeat (6, Core.Ctrl_spec.Emit [ ("ctl", 0xBEEF land 0xFFFF) ]);
                Core.Ctrl_spec.Repeat (6, Core.Ctrl_spec.Emit [ ("ctl", 0x1234) ]);
                Core.Ctrl_spec.Done;
              ] );
        ];
    }
  in
  let p = Core.Ctrl_spec.compile wide in
  Alcotest.(check int) "three distinct words" 3
    (Core.Microcode.distinct_control_words p);
  let bits style =
    Rtl.Design.config_bit_count (Core.Microcode.to_rtl ~style p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "vertical (%d) < horizontal (%d)" (bits `Vertical)
       (bits `Horizontal))
    true
    (bits `Vertical < bits `Horizontal);
  (* And the two flexible structures agree once programmed. *)
  match
    Synth.Equiv.check ~seed:4
      (Synth.Lower.run (bound_program ~style:`Horizontal p)).Synth.Lower.aig
      (Synth.Lower.run (bound_program ~style:`Vertical p)).Synth.Lower.aig
  with
  | Synth.Equiv.Refuted c ->
    Alcotest.failf "bound styles diverge on %s" c.first.output
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ()

(* ----------------------------------------------------------- seq_check *)

let test_seq_check_proves_flow () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:77 ~num_inputs:2 ~num_outputs:3 ~num_states:4
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let low = Synth.Lower.run d in
  let opt = (Synth.Flow.compile lib d).Synth.Flow.aig in
  match Synth.Seq_check.run low.Synth.Lower.aig opt with
  | Synth.Seq_check.Equivalent -> ()
  | Synth.Seq_check.Counterexample o -> Alcotest.failf "differs on %s" o
  | Synth.Seq_check.Gave_up r -> Alcotest.failf "gave up: %s" r

let test_seq_check_proves_retime () =
  let b = Rtl.Builder.create "rt" in
  let x = Rtl.Builder.input b "x" 3 in
  let r = Rtl.Builder.reg b "r" ~reset:Rtl.Design.No_reset ~d:x in
  Rtl.Builder.output b "o" (Rtl.Expr.red_and r);
  let low = Synth.Lower.run (Rtl.Builder.finish b) in
  let g = low.Synth.Lower.aig in
  match Synth.Seq_check.run g (Synth.Retime.run g) with
  | Synth.Seq_check.Equivalent -> ()
  | Synth.Seq_check.Counterexample o -> Alcotest.failf "differs on %s" o
  | Synth.Seq_check.Gave_up r -> Alcotest.failf "gave up: %s" r

let test_seq_check_finds_bugs () =
  (* An inverted output must be caught. *)
  let build invert =
    let b = Rtl.Builder.create "m" in
    let x = Rtl.Builder.input b "x" 1 in
    let r = Rtl.Builder.reg b "r" ~d:x in
    Rtl.Builder.output b "o" (if invert then Rtl.Expr.not_ r else r);
    (Synth.Lower.run (Rtl.Builder.finish b)).Synth.Lower.aig
  in
  match Synth.Seq_check.run (build false) (build true) with
  | Synth.Seq_check.Counterexample "o[0]" -> ()
  | Synth.Seq_check.Counterexample o -> Alcotest.failf "wrong output %s" o
  | Synth.Seq_check.Equivalent -> Alcotest.fail "missed the bug"
  | Synth.Seq_check.Gave_up r -> Alcotest.failf "gave up: %s" r

let test_seq_check_deep_counter () =
  (* Bug only reachable after 8 steps: a counter that misbehaves at 7.
     Random simulation from reset finds this too, but the point is the
     exact reachability proof. *)
  let build buggy =
    let b = Rtl.Builder.create "c" in
    let q = Rtl.Builder.reg_declare b "q" ~width:3 in
    Rtl.Builder.reg_connect b "q" (Rtl.Expr.add q (Rtl.Expr.of_int ~width:3 1));
    let top = Rtl.Expr.eq_const q 7 in
    Rtl.Builder.output b "o" (if buggy then Rtl.Expr.not_ top else top);
    (Synth.Lower.run (Rtl.Builder.finish b)).Synth.Lower.aig
  in
  match Synth.Seq_check.run (build false) (build true) with
  | Synth.Seq_check.Counterexample _ -> ()
  | Synth.Seq_check.Equivalent -> Alcotest.fail "missed the deep bug"
  | Synth.Seq_check.Gave_up r -> Alcotest.failf "gave up: %s" r

let () =
  Alcotest.run "extensions"
    [
      ( "ctrl_spec",
        [
          Alcotest.test_case "compiles" `Quick test_spec_compiles;
          Alcotest.test_case "instruction count" `Quick test_spec_instruction_count;
          Alcotest.test_case "dedup" `Quick test_spec_dedup;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "hardware matches" `Quick test_spec_hardware;
        ] );
      ( "encodings",
        [
          Alcotest.test_case "codes" `Quick test_encoding_codes;
          Alcotest.test_case "equivalent behaviour" `Quick test_encodings_equivalent;
        ] );
      ( "vertical microcode",
        [
          Alcotest.test_case "equivalent to horizontal" `Quick
            test_vertical_equivalent;
          Alcotest.test_case "saves configuration bits" `Quick
            test_vertical_saves_config_bits;
        ] );
      ( "annot_check",
        [
          Alcotest.test_case "fsm state vector" `Quick test_annot_check_fsm;
          Alcotest.test_case "one-hot register" `Quick test_annot_check_onehot;
          Alcotest.test_case "refutes lies" `Quick test_annot_check_refutes_lies;
          Alcotest.test_case "refutes bad init" `Quick test_annot_check_bad_init;
          Alcotest.test_case "pctrl annotations never refuted" `Slow
            test_pctrl_manual_annotations_proved;
        ] );
      ( "seq_check",
        [
          Alcotest.test_case "proves the flow" `Quick test_seq_check_proves_flow;
          Alcotest.test_case "proves retiming" `Quick test_seq_check_proves_retime;
          Alcotest.test_case "finds bugs" `Quick test_seq_check_finds_bugs;
          Alcotest.test_case "deep counterexample" `Quick test_seq_check_deep_counter;
        ] );
    ]

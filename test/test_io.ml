(* Interchange formats: VCD waveforms and AIGER netlists. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_lines_with text needle =
  String.split_on_char '\n' text
  |> List.filter (fun l -> contains l needle)
  |> List.length

(* ------------------------------------------------------------------ vcd *)

let counter () =
  let b = Rtl.Builder.create "ctr" in
  let en = Rtl.Builder.input b "en" 1 in
  let q = Rtl.Builder.reg_declare b "q" ~width:3 in
  Rtl.Builder.reg_connect b ~enable:en "q"
    (Rtl.Expr.add q (Rtl.Expr.of_int ~width:3 1));
  Rtl.Builder.output b "count" q;
  Rtl.Builder.finish b

let test_vcd_structure () =
  let d = counter () in
  let stim =
    List.init 6 (fun _ -> [ ("en", Bitvec.ones 1) ])
  in
  let vcd = Rtl.Vcd.of_run d ~stimulus:stim ~watch:[ "en"; "q" ] in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (contains vcd fragment))
    [ "$timescale"; "$var wire 1"; "$var wire 3"; "$enddefinitions"; "#0";
      "#50" ];
  (* clk toggles twice per cycle. *)
  Alcotest.(check int) "rising edges" 6 (count_lines_with vcd "1!");
  (* q changes every cycle (counting), en only once. *)
  Alcotest.(check bool) "q changes most cycles" true
    (count_lines_with vcd "b" >= 5)

let test_vcd_change_only () =
  let d = counter () in
  let stim = List.init 8 (fun _ -> [ ("en", Bitvec.zero 1) ]) in
  let vcd = Rtl.Vcd.of_run d ~stimulus:stim ~watch:[ "q" ] in
  (* Held counter: exactly one value line for q. *)
  Alcotest.(check int) "single q record" 1 (count_lines_with vcd "b000")

let test_vcd_unknown_signal () =
  let d = counter () in
  match Rtl.Vcd.of_run d ~stimulus:[] ~watch:[ "ghost" ] with
  | _ -> Alcotest.fail "unknown signal accepted"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------------- golden *)

(* Byte-exact fixtures for the text emitters (Verilog pretty-printer and
   VCD writer); the mechanism lives in the shared [Golden] module. *)

let check_golden = Golden.check

let golden_fsm () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:11 ~num_inputs:2 ~num_outputs:3
      ~num_states:5
  in
  Core.Fsm_ir.to_flexible_rtl fsm

let test_golden_verilog_counter () =
  check_golden "counter.v" (Rtl.Verilog.emit (counter ()))

let test_golden_verilog_fsm () =
  check_golden "fsm.v" (Rtl.Verilog.emit (golden_fsm ()))

let test_golden_vcd_counter () =
  let stim =
    List.map
      (fun en -> [ ("en", Bitvec.of_int ~width:1 en) ])
      [ 1; 1; 0; 1; 0; 1 ]
  in
  let vcd = Rtl.Vcd.of_run (counter ()) ~stimulus:stim ~watch:[ "en"; "q" ] in
  check_golden "counter.vcd" vcd

(* One design with every expression form, a register with and without an
   enable, a configuration register, both table kinds and both annotation
   kinds: the byte golden of [Rtl.Serialize.write]. *)
let every_form () =
  let open Rtl in
  let b = Builder.create "every_form" in
  let a = Builder.input b "a" 4 and c = Builder.input b "c" 4 in
  let s = Builder.input b "s" 1 in
  Builder.rom b "lut" ~width:4
    (Array.init 4 (fun i -> Bitvec.of_int ~width:4 (3 * i)));
  Builder.config_table b "cfg" ~width:2 ~depth:4;
  let x = Builder.net b "x" Expr.(xor (and_ a c) (or_ a (not_ c))) in
  let y =
    Builder.net b "y" Expr.(mux s (add x (of_int ~width:4 5)) (sub x a))
  in
  let flags =
    Builder.net b "flags"
      Expr.(concat [ red_and a; red_or c; red_xor x; eq a c; ne a c; ult a c ])
  in
  let st =
    Builder.reg_declare b "st" ~width:2 ~reset:Design.Async_reset
      ~init:(Bitvec.of_int ~width:2 1)
  in
  Builder.reg_connect b "st" (Builder.read_table b "cfg" st);
  let mode = Builder.reg_declare b "mode" ~width:1 ~is_config:true in
  Builder.reg_connect b "mode" mode;
  let acc =
    Builder.reg b "acc" ~reset:Design.No_reset ~enable:mode
      ~d:(Builder.read_table b "lut" (Expr.slice y ~hi:1 ~lo:0))
  in
  Builder.output b "out" (Expr.concat [ acc; flags ]);
  let bvs w = List.map (Bitvec.of_int ~width:w) in
  Builder.annotate b
    (Annot.fsm_state_vector ~provenance:Annot.Tool_detected "st" (bvs 2 [ 1; 2 ]));
  Builder.annotate b
    (Annot.value_set ~provenance:Annot.Generator "y" (bvs 4 [ 0; 5; 9 ]));
  Builder.finish b

let test_golden_design () =
  check_golden "design.sexp" (Rtl.Serialize.write (every_form ()))

(* ---------------------------------------------------------------- aiger *)

let roundtrip_equivalent g =
  let text = Synth.Aiger.write g in
  let g' = Synth.Aiger.read text in
  match Synth.Equiv.run (Synth.Equiv.Sim { seed = 7 }) g g' with
  | Synth.Equiv.Refuted c ->
    Printf.ksprintf failwith "roundtrip mismatch on %s at cycle %d"
      c.first.output c.first.cycle
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> true

let test_aiger_roundtrip_fsm () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:3 ~num_inputs:2 ~num_outputs:4 ~num_states:6
  in
  let d =
    Synth.Partial_eval.bind_tables
      (Core.Fsm_ir.to_flexible_rtl fsm)
      (Core.Fsm_ir.config_bindings fsm)
  in
  let g = (Synth.Lower.run d).Synth.Lower.aig in
  Alcotest.(check bool) "equivalent" true (roundtrip_equivalent g);
  (* Names survive. *)
  let g' = Synth.Aiger.read (Synth.Aiger.write g) in
  Alcotest.(check (list string)) "input names"
    (List.map (Aig.pi_name g) (Aig.pis g))
    (List.map (Aig.pi_name g') (Aig.pis g'))

let prop_aiger_roundtrip =
  Prop.test ~iters:60 "aiger roundtrip preserves behaviour" (Prop.int 2001)
    (fun seed ->
      let d = Workload.Rand_design.generate ~seed in
      roundtrip_equivalent (Synth.Lower.run d).Synth.Lower.aig)

let test_aiger_errors () =
  let bad text =
    match Synth.Aiger.read text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Synth.Aiger.Parse_error _ -> ()
  in
  bad "not an aiger file";
  bad "aag 1 1 0 0 0\n";
  (* undefined variable used by the output *)
  bad "aag 2 1 0 1 0\n2\n6\n";
  (* redefinition *)
  bad "aag 1 1 0 0 1\n2\n2 0 0\n";
  (* a negative literal *)
  bad "aag 1 1 0 1 0\n2\n-2\n"

let test_aiger_header_counts () =
  let g = Aig.create () in
  let a = Aig.pi g "a" and b = Aig.pi g "b" in
  Aig.po g "x" (Aig.and_ g a (Aig.not_ b));
  let text = Synth.Aiger.write g in
  Alcotest.(check bool) "header" true (contains text "aag 3 2 0 1 1")

(* A flow result is in AIGER's node order, so it reads back node for node,
   reset styles and configuration flags included: the engine journals
   netlists this way. *)
let check_netlist_roundtrip name (r : Synth.Flow.result) =
  let g = r.Synth.Flow.aig in
  if not (Synth.Aiger.ordered g) then Alcotest.failf "%s: not ordered" name;
  if not (Aig.equal g (Synth.Aiger.read (Synth.Aiger.write g))) then
    Alcotest.failf "%s: read (write g) differs from g" name

let prop_aiger_flow_roundtrip =
  Prop.test ~iters:30 "flow results read back node for node" (Prop.int 2001)
    (fun seed ->
      check_netlist_roundtrip (string_of_int seed)
        (Synth.Flow.compile Cells.Library.vt90
           (Workload.Rand_design.generate ~seed));
      true)

let test_aiger_fig9_roundtrip () =
  let flags = ref [] in
  List.iter
    (fun (mode, level) ->
      let j = Experiments.Fig9.job mode level in
      let r =
        Synth.Flow.compile ~options:j.options Cells.Library.vt90 j.design
      in
      List.iter
        (fun n ->
          let _, _, reset, config = Aig.latch_info r.Synth.Flow.aig n in
          flags := (reset, config) :: !flags)
        (Aig.latches r.Synth.Flow.aig);
      check_netlist_roundtrip j.jname r)
    Pctrl.Controller.
      [ (Cached, Experiments.Fig9.Full); (Cached, Experiments.Fig9.Auto);
        (Cached, Experiments.Fig9.Manual); (Uncached, Experiments.Fig9.Auto);
        (Uncached, Experiments.Fig9.Manual) ];
  (* The comment section carries something [read] would otherwise lose. *)
  Alcotest.(check bool) "some latch has a reset" true
    (List.exists (fun (r, _) -> r <> Rtl.Design.No_reset) !flags);
  Alcotest.(check bool) "some latch is a config bit" true
    (List.exists snd !flags)

(* ----------------------------------------------------------------- sexp *)

let test_sexp_roundtrip_fixed () =
  let fsm =
    Workload.Rand_fsm.generate ~seed:4 ~num_inputs:2 ~num_outputs:4 ~num_states:5
  in
  let d = Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm in
  let d' = Rtl.Serialize.read (Rtl.Serialize.write d) in
  Alcotest.(check string) "name" d.Rtl.Design.name d'.Rtl.Design.name;
  Alcotest.(check int) "annots survive"
    (List.length d.Rtl.Design.annots)
    (List.length d'.Rtl.Design.annots);
  Alcotest.(check int) "config bits"
    (Rtl.Design.config_bit_count d)
    (Rtl.Design.config_bit_count d')

let prop_sexp_roundtrip =
  Prop.test ~iters:80 "sexp roundtrip preserves behaviour" (Prop.int 2001)
    (fun seed ->
      let d = Workload.Rand_design.generate ~seed in
      let text = Rtl.Serialize.write d in
      let d' = Rtl.Serialize.read text in
      if not (String.equal (Rtl.Serialize.write d') text) then
        failwith "write (read (write d)) <> write d";
      let g = (Synth.Lower.run d).Synth.Lower.aig in
      let g' = (Synth.Lower.run d').Synth.Lower.aig in
      match Synth.Equiv.run (Synth.Equiv.Sim { seed }) g g' with
      | Synth.Equiv.Refuted c ->
        Printf.ksprintf failwith "mismatch on %s" c.first.output
      | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> true)

let test_sexp_errors () =
  let bad text =
    match Rtl.Serialize.read text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Rtl.Serialize.Parse_error _ -> ()
  in
  bad "(not a design)";
  bad "(design (name x))";
  bad "(design (name x) (inputs) (nets) (regs) (tables) (outputs) (annots";
  bad "(design (name x) (inputs (a zero)) (nets) (regs) (tables) (outputs) (annots))";
  (* Well-formed, but the output reads a signal nothing defines. *)
  match
    Rtl.Serialize.read
      "(design (name m) (inputs (a 1)) (nets) (regs) (tables)\n\
      \ (outputs (m 1 (sig ghost 1))) (annots))"
  with
  | _ -> Alcotest.fail "accepted an undefined signal"
  | exception Rtl.Serialize.Parse_error m ->
    Alcotest.(check bool) ("names the signal: " ^ m) true (contains m "ghost")

(* [counter ()] as [write] laid it out through Format boxes before it went
   flat (the example in serialize.mli, in its old layout): files written
   then must still load. *)
let old_layout =
  "(design (name ctr) (inputs (en 1)) (nets)\n\
  \ (regs\n\
  \  (q 3 (reset sync) (init 3'b000) (config false) (enable (sig en 1))\n\
  \   (add (sig q 3) (const 3'b001)))) (tables) (outputs (count 3 (sig q 3)))\n\
  \ (annots))\n"

let test_sexp_old_layout () =
  Alcotest.(check string) "same design"
    (Rtl.Serialize.write (counter ()))
    (Rtl.Serialize.write (Rtl.Serialize.read old_layout))

(* The engine keys jobs by [write]'s text, so [write] must be injective: a
   name the reader would split is refused rather than written. *)
let test_sexp_bad_names () =
  let d = counter () in
  let refused what d =
    match Rtl.Serialize.write d with
    | _ -> Alcotest.failf "wrote %s" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun n ->
      refused (Printf.sprintf "design name %S" n) { d with Rtl.Design.name = n };
      refused
        (Printf.sprintf "input name %S" n)
        { d with Rtl.Design.inputs = [ { Rtl.Signal.name = n; width = 1 } ] })
    [ ""; "a b"; "a\tb"; "a\nb"; "a\rb"; "a(b"; "a)"; ";a"; "a;b" ];
  let odd = { d with Rtl.Design.name = "a'b.c[3]" } in
  Alcotest.(check string) "other punctuation reads back" "a'b.c[3]"
    (Rtl.Serialize.read (Rtl.Serialize.write odd)).Rtl.Design.name

let () =
  Alcotest.run "io"
    [
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "change-only encoding" `Quick test_vcd_change_only;
          Alcotest.test_case "unknown signal" `Quick test_vcd_unknown_signal;
        ] );
      ( "golden",
        [
          Alcotest.test_case "verilog counter" `Quick test_golden_verilog_counter;
          Alcotest.test_case "verilog fsm" `Quick test_golden_verilog_fsm;
          Alcotest.test_case "vcd counter" `Quick test_golden_vcd_counter;
          Alcotest.test_case "design sexp" `Quick test_golden_design;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "fsm roundtrip" `Quick test_aiger_roundtrip_fsm;
          prop_aiger_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_aiger_errors;
          Alcotest.test_case "header counts" `Quick test_aiger_header_counts;
          prop_aiger_flow_roundtrip;
          Alcotest.test_case "Fig. 9 netlists node for node" `Quick
            test_aiger_fig9_roundtrip;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "roundtrip" `Quick test_sexp_roundtrip_fixed;
          prop_sexp_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sexp_errors;
          Alcotest.test_case "old layout reads" `Quick test_sexp_old_layout;
          Alcotest.test_case "bad names refused" `Quick test_sexp_bad_names;
        ] );
    ]

let lib = Cells.Library.vt90

(* -------------------------------------------------------------- golden *)

let test_encode_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check bool) "roundtrip" true
        (Ucpu.Isa.decode (Ucpu.Isa.encode i) = i))
    [ Ucpu.Isa.Ldi 7; Ucpu.Isa.Lda 31; Ucpu.Isa.Sta 0; Ucpu.Isa.Add 12;
      Ucpu.Isa.Sub 1; Ucpu.Isa.Jmp 30; Ucpu.Isa.Jnz 15; Ucpu.Isa.Hlt ];
  (match Ucpu.Isa.encode (Ucpu.Isa.Lda 32) with
   | _ -> Alcotest.fail "operand 32 accepted"
   | exception Invalid_argument _ -> ())

let test_interp_basics () =
  let program =
    Ucpu.Isa.assemble
      [ Ucpu.Isa.Ldi 5; Ucpu.Isa.Sta 3; Ucpu.Isa.Ldi 2; Ucpu.Isa.Add 3;
        Ucpu.Isa.Hlt ]
  in
  let final = Ucpu.Isa.run ~program () in
  Alcotest.(check int) "acc" 7 final.Ucpu.Isa.acc;
  Alcotest.(check int) "mem3" 5 final.Ucpu.Isa.mem.(3);
  Alcotest.(check bool) "halted" true final.Ucpu.Isa.halted

let test_interp_branches () =
  (* Count down from 3 with JNZ. *)
  let program =
    Ucpu.Isa.assemble
      [ Ucpu.Isa.Ldi 1; Ucpu.Isa.Sta 0;     (* one = 1 *)
        Ucpu.Isa.Ldi 3;                      (* acc = 3 *)
        Ucpu.Isa.Sub 0; Ucpu.Isa.Jnz 3;      (* loop at 3 *)
        Ucpu.Isa.Hlt ]
  in
  let final = Ucpu.Isa.run ~program () in
  Alcotest.(check int) "acc" 0 final.Ucpu.Isa.acc;
  Alcotest.(check bool) "halted" true final.Ucpu.Isa.halted

let fib n =
  let rec go a b k = if k = 0 then a else go b ((a + b) land 255) (k - 1) in
  go 0 1 n

let test_fib_golden () =
  List.iter
    (fun n ->
      let final = Ucpu.Isa.run ~program:(Ucpu.Isa.fib_program n) () in
      Alcotest.(check int) (Printf.sprintf "fib %d" n) (fib n) final.Ucpu.Isa.acc)
    [ 1; 2; 3; 7; 10; 13 ]

(* ------------------------------------------------------------ hardware *)

(* Bound the golden run so that, at the documented 2-3 cycles per
   instruction, the worst case still fits under the RTL cycle cap of
   [rtl_matches_golden]: otherwise a long-but-halting random program times
   out on the RTL side and is misreported as a mismatch. *)
let golden_run program = Ucpu.Isa.run ~max_steps:1200 ~program ()

let rtl_matches_golden program =
  let golden = golden_run program in
  if not golden.Ucpu.Isa.halted then
    failwith "golden model did not halt within 1200 steps";
  let d = Ucpu.Machine.specialized ~program () in
  let max_cycles = 4000 in
  let st, cycles = Ucpu.Machine.run_rtl ~max_cycles d in
  if cycles >= max_cycles then
    Printf.ksprintf failwith "RTL machine did not halt within %d cycles"
      max_cycles;
  let acc = Bitvec.to_int (Rtl.Eval.peek st "acc") in
  if acc <> golden.Ucpu.Isa.acc then
    Printf.ksprintf failwith "acc %d vs golden %d (in %d cycles)" acc
      golden.Ucpu.Isa.acc cycles;
  List.for_all
    (fun i ->
      let got = Bitvec.to_int (Rtl.Eval.peek st (Printf.sprintf "m%d" i)) in
      got = golden.Ucpu.Isa.mem.(i)
      || Printf.ksprintf failwith "m%d: %d vs golden %d" i got
           golden.Ucpu.Isa.mem.(i))
    (List.init 32 Fun.id)

let test_fib_rtl () =
  Alcotest.(check bool) "fib 10 matches" true
    (rtl_matches_golden (Ucpu.Isa.fib_program 10))

let test_cycle_count () =
  (* 2-3 clocks per instruction. *)
  let program = Ucpu.Isa.fib_program 5 in
  let _, cycles = Ucpu.Machine.run_rtl (Ucpu.Machine.specialized ~program ()) in
  let steps =
    let rec count st n =
      if st.Ucpu.Isa.halted then n
      else count (Ucpu.Isa.interp_step ~program st) (n + 1)
    in
    count Ucpu.Isa.initial 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles for %d instructions" cycles steps)
    true
    (cycles >= 2 * steps && cycles <= (3 * steps) + 6)

let test_flexible_equals_specialized () =
  let program = Ucpu.Isa.fib_program 6 in
  let full = Ucpu.Machine.full ~program in
  let st_full, _ =
    Ucpu.Machine.run_rtl ~config:(Ucpu.Machine.control_bindings ()) full
  in
  let st_spec, _ = Ucpu.Machine.run_rtl (Ucpu.Machine.specialized ~program ()) in
  Alcotest.(check int) "same acc"
    (Bitvec.to_int (Rtl.Eval.peek st_spec "acc"))
    (Bitvec.to_int (Rtl.Eval.peek st_full "acc"))

let test_microcode_patch () =
  (* The patched control store turns SUB into AND: same hardware, new ISA.
     Check against a patched golden model. *)
  let program =
    Ucpu.Isa.assemble
      [ Ucpu.Isa.Ldi 12; Ucpu.Isa.Sta 1; Ucpu.Isa.Ldi 10; Ucpu.Isa.Sub 1;
        Ucpu.Isa.Hlt ]
  in
  let d = Ucpu.Machine.specialized ~patched:true ~program () in
  let st, _ = Ucpu.Machine.run_rtl d in
  Alcotest.(check int) "10 AND 12" (10 land 12)
    (Bitvec.to_int (Rtl.Eval.peek st "acc"));
  let unpatched, _ = Ucpu.Machine.run_rtl (Ucpu.Machine.specialized ~program ()) in
  Alcotest.(check int) "10 - 12 without patch" ((10 - 12) land 255)
    (Bitvec.to_int (Rtl.Eval.peek unpatched "acc"))

let test_specialization_saves_area () =
  let program = Ucpu.Isa.fib_program 8 in
  let area d = Synth.Map.total (Synth.Flow.compile lib d).Synth.Flow.report in
  let a_full = area (Ucpu.Machine.full ~program) in
  let a_spec = area (Ucpu.Machine.specialized ~program ()) in
  Alcotest.(check bool)
    (Printf.sprintf "specialized %.0f < full %.0f" a_spec a_full)
    true (a_spec < a_full)

let test_control_annotations_sound () =
  let program = Ucpu.Isa.fib_program 4 in
  (* The µCPU sequencer has combinational field outputs, so only the µPC
     annotation applies (field-register annotations need the registered
     variant). *)
  let upc_annot =
    List.find
      (fun (a : Rtl.Annot.t) -> a.target = "upc")
      (Core.Generator.program_manual_annotations Ucpu.Control.program)
  in
  let d =
    Rtl.Design.add_annots
      (Ucpu.Machine.specialized ~program ())
      [ { upc_annot with target = "seq_upc" } ]
  in
  let low = Synth.Lower.run d in
  List.iter
    (fun (a : Synth.Annots.t) ->
      match Synth.Annot_check.inductive low.Synth.Lower.aig a with
      | Synth.Annot_check.Refuted reason ->
        Alcotest.failf "annotation %s refuted: %s" a.Synth.Annots.base reason
      | Synth.Annot_check.Proved | Synth.Annot_check.Unproved _ -> ())
    (Synth.Annots.extract low);
  (* And honouring them preserves behaviour. *)
  Aig_util.check_flow_result "ucpu control"
    (Synth.Flow.compile
       ~options:{ Synth.Flow.default with honor_generator_annots = true }
       lib d)

(* Random-program fuzzing against the golden model. A drawn program that
   does not halt is redrawn, up to 100 times; after that the property
   reports the non-halting program. *)
let arb_program =
  let instr rng =
    let a = Workload.Rng.int rng 32 in
    match Workload.Rng.int rng 13 with
    | 0 | 1 | 2 -> Ucpu.Isa.Ldi a
    | 3 | 4 -> Ucpu.Isa.Lda a
    | 5 | 6 | 7 -> Ucpu.Isa.Sta a
    | 8 | 9 -> Ucpu.Isa.Add a
    | 10 | 11 -> Ucpu.Isa.Sub a
    | _ -> Ucpu.Isa.Jnz a
  in
  let draw rng =
    let body = List.init (5 + Workload.Rng.int rng 20) (fun _ -> instr rng) in
    Ucpu.Isa.assemble (body @ [ Ucpu.Isa.Hlt ])
  in
  let rec halting rng redraws =
    let program = draw rng in
    if redraws = 0 || (golden_run program).Ucpu.Isa.halted then program
    else halting rng (redraws - 1)
  in
  Prop.make
    ~show:(fun p ->
      String.concat "; "
        (Array.to_list (Array.map (fun w -> Bitvec.to_string w) p)))
    (fun rng -> halting rng 100)

let prop_random_programs =
  Prop.test ~iters:40 "random programs match the golden model" arb_program
    rtl_matches_golden

let () =
  Alcotest.run "ucpu"
    [
      ( "golden model",
        [
          Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
          Alcotest.test_case "arithmetic" `Quick test_interp_basics;
          Alcotest.test_case "branches" `Quick test_interp_branches;
          Alcotest.test_case "fibonacci" `Quick test_fib_golden;
        ] );
      ( "hardware",
        [
          Alcotest.test_case "fib on rtl" `Quick test_fib_rtl;
          Alcotest.test_case "cycles per instruction" `Quick test_cycle_count;
          Alcotest.test_case "flexible = specialized" `Quick
            test_flexible_equals_specialized;
          Alcotest.test_case "microcode patch" `Quick test_microcode_patch;
          Alcotest.test_case "specialization saves area" `Quick
            test_specialization_saves_area;
          Alcotest.test_case "control annotations sound" `Quick
            test_control_annotations_sound;
          prop_random_programs;
        ] );
    ]

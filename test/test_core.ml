let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* The bound (ROM) designs: each flexible design partially evaluated under
   its own configuration. *)
let bound_table tt =
  Synth.Partial_eval.bind_tables
    (Core.Truth_table.to_flexible_rtl tt)
    [ Core.Truth_table.config_binding tt ]

let bound_fsm ?annotate fsm =
  Synth.Partial_eval.bind_tables
    (Core.Fsm_ir.to_flexible_rtl ?annotate fsm)
    (Core.Fsm_ir.config_bindings fsm)

let bound_program ?style ?registered_outputs p =
  Synth.Partial_eval.bind_tables
    (Core.Microcode.to_rtl ?style ?registered_outputs p)
    (Core.Microcode.config_bindings ?style p)

(* ------------------------------------------------------------ truth table *)

let test_table_eval () =
  let tt =
    Core.Truth_table.of_fun ~name:"t" ~width:3 ~depth:5 (fun a ->
        Bitvec.of_int ~width:3 (a + 1))
  in
  Alcotest.(check int) "addr bits" 3 (Core.Truth_table.addr_bits tt);
  Alcotest.check bv "entry 2" (Bitvec.of_int ~width:3 3) (Core.Truth_table.eval tt 2);
  Alcotest.check bv "out of range" (Bitvec.zero 3) (Core.Truth_table.eval tt 6);
  expect_invalid "empty table" (fun () ->
      Core.Truth_table.make ~name:"x" ~width:2 [||])

let test_table_implementations_agree () =
  let tt = Workload.Rand_table.generate ~seed:11 ~depth:13 ~width:5 in
  let rom = bound_table tt in
  let sop = Core.Truth_table.to_sop_rtl tt in
  let flexible = Core.Truth_table.to_flexible_rtl tt in
  let name, contents = Core.Truth_table.config_binding tt in
  let st_rom = Rtl.Eval.create rom in
  let st_sop = Rtl.Eval.create sop in
  let st_flex = Rtl.Eval.create ~config:[ (name, contents) ] flexible in
  Seq.iter
    (fun a ->
      let expected = Core.Truth_table.eval tt (Bitvec.to_int a) in
      List.iter
        (fun st ->
          Rtl.Eval.set_input st "addr" a;
          Alcotest.check bv "data" expected (Rtl.Eval.peek st "data"))
        [ st_rom; st_sop; st_flex ])
    (Bitvec.all_values 4)

(* The SOP construction before minterms were shared across output bits:
   every bit rebuilt each minterm of its ON-set. Kept as the oracle. *)
let sop_unshared (tt : Core.Truth_table.t) =
  let b = Rtl.Builder.create (tt.name ^ "_sop") in
  let k = Core.Truth_table.addr_bits tt in
  let depth = Core.Truth_table.depth tt in
  let addr = Rtl.Builder.input b "addr" k in
  let minterm a =
    let literal i =
      let bit = Rtl.Expr.bit addr i in
      if a lsr i land 1 = 1 then bit else Rtl.Expr.not_ bit
    in
    List.fold_left
      (fun acc i -> Rtl.Expr.and_ acc (literal i))
      (literal 0)
      (List.init (k - 1) (fun i -> i + 1))
  in
  let out_bit j =
    let ons =
      List.filter
        (fun a -> a < depth && Bitvec.get tt.entries.(a) j)
        (List.init (1 lsl k) Fun.id)
    in
    match ons with
    | [] -> Rtl.Expr.of_int ~width:1 0
    | first :: rest ->
      List.fold_left
        (fun acc a -> Rtl.Expr.or_ acc (minterm a))
        (minterm first) rest
  in
  Rtl.Builder.output b "data"
    (Rtl.Expr.concat (List.rev (List.init tt.width out_bit)));
  Rtl.Builder.finish b

(* Sharing the minterms changes no structure and no serialized text, so
   every consumer (lowering, the engine's keys) sees today's design. *)
let prop_sop_sharing_invisible =
  Prop.test ~iters:60 ~examples:[ (0, 255, 15); (3, 0, 0) ]
    "sop: shared minterms = per-bit rebuild"
    (Prop.triple (Prop.int 10_000) (Prop.int 80) (Prop.int 9))
    (fun (seed, depth, width) ->
      let tt =
        Workload.Rand_table.generate ~seed ~depth:(depth + 1)
          ~width:(width + 1)
      in
      let shared = Core.Truth_table.to_sop_rtl tt in
      let oracle = sop_unshared tt in
      shared = oracle
      && Rtl.Serialize.write shared = Rtl.Serialize.write oracle)

(* -------------------------------------------------------------------- fsm *)

let sample_fsm =
  Workload.Rand_fsm.generate ~seed:8 ~num_inputs:2 ~num_outputs:5 ~num_states:6

let test_fsm_validation () =
  expect_invalid "bad reset" (fun () ->
      Core.Fsm_ir.make ~name:"f" ~num_inputs:1 ~num_outputs:1
        ~states:[| "a" |] ~reset:1
        ~next:[| [| 0; 0 |] |]
        ~out:[| [| Bitvec.zero 1; Bitvec.zero 1 |] |]);
  expect_invalid "bad target" (fun () ->
      Core.Fsm_ir.make ~name:"f" ~num_inputs:1 ~num_outputs:1
        ~states:[| "a" |] ~reset:0
        ~next:[| [| 0; 3 |] |]
        ~out:[| [| Bitvec.zero 1; Bitvec.zero 1 |] |]);
  expect_invalid "duplicate state names" (fun () ->
      Core.Fsm_ir.make ~name:"f" ~num_inputs:1 ~num_outputs:1
        ~states:[| "a"; "a" |] ~reset:0
        ~next:[| [| 0; 0 |]; [| 1; 1 |] |]
        ~out:
          [| [| Bitvec.zero 1; Bitvec.zero 1 |];
             [| Bitvec.zero 1; Bitvec.zero 1 |] |])

let test_fsm_encoding () =
  Alcotest.(check int) "state bits for 6" 3 (Core.Fsm_ir.state_bits sample_fsm);
  Alcotest.(check int) "codes" 6 (List.length (Core.Fsm_ir.state_codes sample_fsm));
  Alcotest.check bv "encode 5" (Bitvec.of_int ~width:3 5)
    (Core.Fsm_ir.encode sample_fsm 5)

let test_fsm_moore () =
  let moore =
    Core.Fsm_ir.of_moore ~name:"m" ~num_inputs:1 ~num_outputs:2
      ~states:[| "a"; "b" |] ~reset:0
      ~next:[| [| 0; 1 |]; [| 1; 0 |] |]
      ~moore_out:[| Bitvec.of_int ~width:2 1; Bitvec.of_int ~width:2 2 |]
  in
  Alcotest.(check bool) "moore detected" true (Core.Fsm_ir.is_moore moore);
  Alcotest.(check bool) "mealy random likely not moore" true
    (not (Core.Fsm_ir.is_moore sample_fsm)
     || Core.Fsm_ir.is_moore sample_fsm (* tolerated for degenerate seeds *));
  (* The Moore flexible output memory is state-indexed: depth 2^k. *)
  let bindings = Core.Fsm_ir.config_bindings moore in
  let _, out_contents = List.nth bindings 1 in
  Alcotest.(check int) "compact output table" 2 (Array.length out_contents)

let test_fsm_reachability () =
  (* A machine with an unreachable state. *)
  let f =
    Core.Fsm_ir.make ~name:"r" ~num_inputs:1 ~num_outputs:1
      ~states:[| "a"; "b"; "island" |] ~reset:0
      ~next:[| [| 0; 1 |]; [| 1; 0 |]; [| 2; 2 |] |]
      ~out:
        [| [| Bitvec.zero 1; Bitvec.zero 1 |];
           [| Bitvec.ones 1; Bitvec.ones 1 |];
           [| Bitvec.zero 1; Bitvec.zero 1 |] |]
  in
  Alcotest.(check (list int)) "island unreachable" [ 0; 1 ] (Core.Fsm_ir.reachable f);
  Alcotest.(check (list int)) "restricted inputs" [ 0 ]
    (Core.Fsm_ir.reachable_with f ~inputs:[ 0 ])

let test_fsm_input_support () =
  (* State ignores inputs => empty support. *)
  let f =
    Core.Fsm_ir.make ~name:"s" ~num_inputs:2 ~num_outputs:1
      ~states:[| "a"; "b" |] ~reset:0
      ~next:[| [| 1; 1; 1; 1 |]; [| 0; 0; 1; 1 |] |]
      ~out:(Array.make 2 (Array.make 4 (Bitvec.zero 1)))
  in
  Alcotest.(check (list int)) "state a no support" [] (Core.Fsm_ir.input_support f 0);
  Alcotest.(check (list int)) "state b bit 1" [ 1 ] (Core.Fsm_ir.input_support f 1)

let test_fsm_rtl_equivalence () =
  let fsm = sample_fsm in
  let direct = Rtl.Eval.create (Core.Fsm_ir.to_direct_rtl fsm) in
  let rom = Rtl.Eval.create (bound_fsm fsm) in
  let rng = Random.State.make [| 42 |] in
  let inputs = List.init 50 (fun _ -> Random.State.int rng 4) in
  let expected = Core.Fsm_ir.simulate fsm inputs in
  List.iter2
    (fun i exp ->
      List.iter
        (fun st ->
          Rtl.Eval.set_input st "in" (Bitvec.of_int ~width:2 i);
          Alcotest.check bv "out" exp (Rtl.Eval.peek st "out");
          Rtl.Eval.step st)
        [ direct; rom ])
    inputs expected

(* -------------------------------------------------------------- microcode *)

let demo_program =
  Core.Microcode.make ~name:"demo"
    ~format:
      [ { Core.Microcode.fname = "a"; fwidth = 2; onehot = false };
        { Core.Microcode.fname = "b"; fwidth = 3; onehot = true } ]
    ~dispatch:[ ("t", [| 0; 2; 0; 0 |]) ]
    ~opcode_bits:2
    [|
      { Core.Microcode.ctl = []; seq = Core.Microcode.Dispatch 0 };
      { Core.Microcode.ctl = [ ("a", 1) ]; seq = Core.Microcode.Next };
      { Core.Microcode.ctl = [ ("a", 3); ("b", 4) ]; seq = Core.Microcode.Next };
      { Core.Microcode.ctl = [ ("b", 1) ]; seq = Core.Microcode.Jump 0 };
    |]

let test_microcode_geometry () =
  let p = demo_program in
  Alcotest.(check int) "upc bits" 2 (Core.Microcode.upc_bits p);
  (* 5 ctl bits + 2 mode + 2 target *)
  Alcotest.(check int) "word width" 9 (Core.Microcode.word_width p);
  let w = Core.Microcode.encode_word p 2 in
  (* a=3 (bits 1:0), b=4 (bits 4:2), mode=0 (bits 6:5), target=0 *)
  Alcotest.(check int) "word encoding" (3 lor (4 lsl 2)) (Bitvec.to_int w);
  (* Instruction 3: b=1 (bit 2), mode=jump=1 (bits 6:5), target=0. *)
  let w3 = Core.Microcode.encode_word p 3 in
  Alcotest.(check int) "jump encoding" ((1 lsl 2) lor (1 lsl 5)) (Bitvec.to_int w3)

let test_microcode_step () =
  let p = demo_program in
  (* Dispatch on op=1 goes to address 2. *)
  let fields, next = Core.Microcode.step p ~upc:0 ~op:1 in
  Alcotest.(check int) "dispatch target" 2 next;
  Alcotest.(check int) "fields idle" 0 (List.assoc "a" fields);
  let _, next = Core.Microcode.step p ~upc:2 ~op:0 in
  Alcotest.(check int) "next increments" 3 next;
  let _, next = Core.Microcode.step p ~upc:3 ~op:0 in
  Alcotest.(check int) "jump" 0 next

let test_microcode_analysis () =
  let p = demo_program in
  Alcotest.(check (list int)) "reachable" [ 0; 2; 3 ]
    (Core.Microcode.reachable_addrs p);
  (* address 1 (a=1) unreachable; values from {0 (idle/pad), 3}. *)
  Alcotest.(check (list int)) "a values" [ 0; 3 ]
    (Core.Microcode.field_value_set p "a");
  Alcotest.(check (list int)) "b values" [ 0; 1; 4 ]
    (Core.Microcode.field_value_set p "b")

let test_microcode_rtl_match () =
  let p = demo_program in
  let d = bound_program p in
  let st = Rtl.Eval.create d in
  let ops = [ 1; 0; 0; 3; 1; 0; 0; 0 ] in
  let trace = Core.Microcode.run p ~ops in
  List.iter2
    (fun op fields ->
      Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:2 op);
      List.iter
        (fun (f, v) ->
          Alcotest.(check int) ("field " ^ f) v
            (Bitvec.to_int (Rtl.Eval.peek st f)))
        fields;
      Rtl.Eval.step st)
    ops trace

let test_microcode_registered_outputs () =
  let p = demo_program in
  let d = bound_program ~registered_outputs:true p in
  let st = Rtl.Eval.create d in
  (* Registered fields lag the combinational trace by one cycle. *)
  let ops = [ 1; 0; 0; 0 ] in
  let trace = Core.Microcode.run p ~ops in
  let got = ref [] in
  List.iter
    (fun op ->
      Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:2 op);
      got := Bitvec.to_int (Rtl.Eval.peek st "a") :: !got;
      Rtl.Eval.step st)
    ops;
  let got = List.rev !got in
  let expected_lagged =
    0 :: List.filteri (fun i _ -> i < 3) (List.map (List.assoc "a") trace)
  in
  Alcotest.(check (list int)) "one-cycle lag" expected_lagged got

let test_microcode_validation () =
  expect_invalid "field value too wide" (fun () ->
      Core.Microcode.make ~name:"x"
        ~format:[ { Core.Microcode.fname = "a"; fwidth = 1; onehot = false } ]
        [| { Core.Microcode.ctl = [ ("a", 2) ]; seq = Core.Microcode.Next } |]);
  expect_invalid "jump out of range" (fun () ->
      Core.Microcode.make ~name:"x"
        ~format:[ { Core.Microcode.fname = "a"; fwidth = 1; onehot = false } ]
        [| { Core.Microcode.ctl = []; seq = Core.Microcode.Jump 9 } |]);
  expect_invalid "dispatch table size" (fun () ->
      Core.Microcode.make ~name:"x"
        ~format:[ { Core.Microcode.fname = "a"; fwidth = 1; onehot = false } ]
        ~dispatch:[ ("t", [| 0 |]) ] ~opcode_bits:2
        [| { Core.Microcode.ctl = []; seq = Core.Microcode.Next } |])

(* --------------------------------------------------------------- microasm *)

let asm_source = {|
.name demo
.opcode_bits 2
.field a 2
.field b 3 onehot
.dispatch t idle work
idle:
  ; dispatch t
work:
  a=1 ; next
  a=3 b=0b100 ; next
  b=1 ; jump idle
|}

let test_asm_parse () =
  let p = Core.Microasm.parse asm_source in
  Alcotest.(check string) "name" "demo" p.Core.Microcode.pname;
  Alcotest.(check int) "uops" 4 (Core.Microcode.depth p);
  Alcotest.(check int) "entry" 0 p.Core.Microcode.entry;
  let f = List.nth p.Core.Microcode.format 1 in
  Alcotest.(check bool) "onehot flag" true f.Core.Microcode.onehot;
  (* Dispatch pads missing slots with the last target. *)
  let _, targets = List.nth p.Core.Microcode.dispatch 0 in
  Alcotest.(check (array int)) "dispatch padded" [| 0; 1; 1; 1 |] targets

let test_asm_roundtrip () =
  let p = Core.Microasm.parse asm_source in
  let p2 = Core.Microasm.parse (Core.Microasm.print p) in
  Alcotest.(check int) "depth" (Core.Microcode.depth p) (Core.Microcode.depth p2);
  let ops = [ 1; 0; 0; 0; 1; 0 ] in
  Alcotest.(check bool) "same traces" true
    (Core.Microcode.run p ~ops = Core.Microcode.run p2 ~ops)

let test_asm_errors () =
  let bad source expect_line =
    match Core.Microasm.parse source with
    | _ -> Alcotest.failf "accepted %S" source
    | exception Core.Microasm.Parse_error (line, _) ->
      Alcotest.(check int) ("line of " ^ source) expect_line line
  in
  bad ".field a 1\nx:\n  b=1 ; next\n" 3;
  bad ".field a 1\n  a=1 ; jump nowhere\n" 2;
  bad ".field a 1\nl:\n  a=1\nl:\n  a=0\n" 4

(* -------------------------------------------------------------- generator *)

let test_generator_styles () =
  let fsm = sample_fsm in
  let flex = Core.Fsm_ir.to_flexible_rtl fsm in
  let annotated = Core.Fsm_ir.to_flexible_rtl ~annotate:true fsm in
  let direct = Core.Fsm_ir.to_direct_rtl fsm in
  Alcotest.(check int) "no annots on flexible" 0
    (List.length flex.Rtl.Design.annots);
  Alcotest.(check int) "generator annot" 1
    (List.length annotated.Rtl.Design.annots);
  (match direct.Rtl.Design.annots with
   | [ a ] ->
     Alcotest.(check bool) "tool provenance" true
       (a.Rtl.Annot.provenance = Rtl.Annot.Tool_detected)
   | _ -> Alcotest.fail "direct should carry one annotation");
  let manual = Core.Generator.fsm_manual_annotation fsm in
  Alcotest.(check int) "manual values = reachable"
    (List.length (Core.Fsm_ir.reachable fsm))
    (List.length (Rtl.Annot.values manual))

(* ----------------------------------------------------------------- golden *)

(* Digest of the serialized bound (ROM) design of every generator: random
   tables and FSMs, the PCtrl dispatch and µCPU microprograms in both
   store styles, and the DMA micro-assembly example. *)
let bound_fingerprint () =
  let line name d =
    Printf.sprintf "%s %s\n" name
      (Digest.to_hex (Digest.string (Rtl.Serialize.write d)))
  in
  let tables =
    List.mapi
      (fun i (seed, depth, width) ->
        let tt = Workload.Rand_table.generate ~seed ~depth ~width in
        line (Printf.sprintf "table%d" i) (bound_table tt))
      [ (1, 16, 4); (2, 13, 5); (3, 64, 8); (4, 5, 1) ]
  in
  let fsms =
    List.concat_map
      (fun (seed, m, n, s) ->
        let fsm =
          Workload.Rand_fsm.generate ~seed ~num_inputs:m ~num_outputs:n
            ~num_states:s
        in
        List.map
          (fun annotate ->
            line
              (Printf.sprintf "fsm%d%s" seed (if annotate then "+annot" else ""))
              (bound_fsm ~annotate fsm))
          [ false; true ])
      [ (1, 2, 4, 5); (2, 1, 3, 3); (3, 3, 2, 17); (4, 2, 8, 8) ]
  in
  let programs =
    [
      ("pctrl-cached", Pctrl.Dispatch.program Pctrl.Dispatch.Cached);
      ("pctrl-uncached", Pctrl.Dispatch.program Pctrl.Dispatch.Uncached);
      ("ucpu", Ucpu.Control.program);
    ]
  in
  let microcode =
    List.concat_map
      (fun (name, p) ->
        List.concat_map
          (fun (sname, style) ->
            List.map
              (fun registered_outputs ->
                line
                  (Printf.sprintf "%s-%s%s" name sname
                     (if registered_outputs then "-reg" else ""))
                  (bound_program ~style ~registered_outputs p))
              [ false; true ])
          [ ("h", `Horizontal); ("v", `Vertical) ])
      programs
  in
  let dma =
    Core.Microasm.parse
      (In_channel.with_open_text "../examples/data/dma.uasm"
         In_channel.input_all)
  in
  String.concat ""
    (tables @ fsms @ microcode
     @ [ line "dma.uasm" (bound_program dma) ])

let test_bound_golden () = Golden.check "bound.txt" (bound_fingerprint ())

let () =
  Alcotest.run "core"
    [
      ( "truth_table",
        [
          Alcotest.test_case "eval" `Quick test_table_eval;
          prop_sop_sharing_invisible;
          Alcotest.test_case "implementations agree" `Quick
            test_table_implementations_agree;
        ] );
      ( "fsm_ir",
        [
          Alcotest.test_case "validation" `Quick test_fsm_validation;
          Alcotest.test_case "encoding" `Quick test_fsm_encoding;
          Alcotest.test_case "moore" `Quick test_fsm_moore;
          Alcotest.test_case "reachability" `Quick test_fsm_reachability;
          Alcotest.test_case "input support" `Quick test_fsm_input_support;
          Alcotest.test_case "rtl equivalence" `Quick test_fsm_rtl_equivalence;
        ] );
      ( "microcode",
        [
          Alcotest.test_case "geometry" `Quick test_microcode_geometry;
          Alcotest.test_case "step" `Quick test_microcode_step;
          Alcotest.test_case "analysis" `Quick test_microcode_analysis;
          Alcotest.test_case "rtl matches isa" `Quick test_microcode_rtl_match;
          Alcotest.test_case "registered outputs" `Quick
            test_microcode_registered_outputs;
          Alcotest.test_case "validation" `Quick test_microcode_validation;
        ] );
      ("golden", [ Alcotest.test_case "bound designs" `Quick test_bound_golden ]);
      ( "microasm",
        [
          Alcotest.test_case "parse" `Quick test_asm_parse;
          Alcotest.test_case "roundtrip" `Quick test_asm_roundtrip;
          Alcotest.test_case "errors" `Quick test_asm_errors;
        ] );
      ("generator", [ Alcotest.test_case "styles" `Quick test_generator_styles ]);
    ]

let lib = Cells.Library.vt90

(* --------------------------------------------------------------- datapipe *)

let test_pipe_fsm_shape () =
  let fsm = Pctrl.Datapipe.fsm in
  Alcotest.(check int) "states" 10 (Core.Fsm_ir.num_states fsm);
  Alcotest.(check bool) "moore" true (Core.Fsm_ir.is_moore fsm);
  Alcotest.(check (list int)) "all states reachable"
    (List.init 10 Fun.id) (Core.Fsm_ir.reachable fsm)

let test_pipe_streaming_states_gated () =
  let reachable cmds =
    List.map
      (fun i -> Pctrl.Datapipe.fsm.Core.Fsm_ir.states.(i))
      (Pctrl.Datapipe.reachable_states_for_cmds cmds)
  in
  (* Without line commands, the streaming states are unreachable. *)
  let without_line =
    reachable [ Pctrl.Protocol.cmd_read; Pctrl.Protocol.cmd_write ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " unreachable") false
        (List.mem s without_line))
    Pctrl.Datapipe.streaming_states;
  let with_line =
    reachable [ Pctrl.Protocol.cmd_line_read; Pctrl.Protocol.cmd_line_write ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " reachable") true (List.mem s with_line))
    Pctrl.Datapipe.streaming_states

let test_pipe_transfer_story () =
  (* IDLE -cmd=read-> RREQ -rdy-> RXFER -> DONE -> IDLE, with the expected
     Moore outputs along the way. *)
  let fsm = Pctrl.Datapipe.fsm in
  let step state cmd rdy =
    Core.Fsm_ir.step fsm ~state
      ~input:(Pctrl.Datapipe.input_assignment ~cmd ~rdy)
  in
  let s1, o1 = step 0 Pctrl.Protocol.cmd_read false in
  Alcotest.(check bool) "idle output quiet" true
    (Bitvec.is_zero (snd (step 0 Pctrl.Protocol.cmd_idle false)));
  Alcotest.(check bool) "request raised" true
    (Bitvec.get o1 Pctrl.Datapipe.out_mem_en = false);
  (* Moore: output of IDLE is 0; mem_en asserts in RREQ. *)
  let s2, o2 = step s1 Pctrl.Protocol.cmd_read true in
  Alcotest.(check bool) "rreq drives mem_en" true
    (Bitvec.get o2 Pctrl.Datapipe.out_mem_en);
  let s3, o3 = step s2 Pctrl.Protocol.cmd_idle true in
  Alcotest.(check bool) "xfer writes buffer" true
    (Bitvec.get o3 Pctrl.Datapipe.out_buf_we);
  let s4, o4 = step s3 Pctrl.Protocol.cmd_idle true in
  Alcotest.(check bool) "done pulses" true (Bitvec.get o4 Pctrl.Datapipe.out_done);
  let s5, _ = step s4 Pctrl.Protocol.cmd_idle true in
  Alcotest.(check int) "back to idle" 0 s5

(* --------------------------------------------------------------- dispatch *)

let test_programs_share_geometry () =
  let c = Pctrl.Dispatch.program Pctrl.Dispatch.Cached in
  let u = Pctrl.Dispatch.program Pctrl.Dispatch.Uncached in
  Alcotest.(check int) "depth" (Core.Microcode.depth c) (Core.Microcode.depth u);
  Alcotest.(check int) "word width" (Core.Microcode.word_width c)
    (Core.Microcode.word_width u);
  Alcotest.(check string) "same table namespace" c.Core.Microcode.pname
    u.Core.Microcode.pname

let test_uncached_smaller () =
  let c = Pctrl.Dispatch.program Pctrl.Dispatch.Cached in
  let u = Pctrl.Dispatch.program Pctrl.Dispatch.Uncached in
  let reach p = List.length (Core.Microcode.reachable_addrs p) in
  Alcotest.(check bool) "uncached reaches far fewer microinstructions" true
    (reach u * 3 < reach c);
  let cmds mode = Pctrl.Dispatch.cmd_values mode in
  Alcotest.(check bool) "uncached never issues line commands" false
    (List.mem Pctrl.Protocol.cmd_line_read (cmds Pctrl.Dispatch.Uncached)
     || List.mem Pctrl.Protocol.cmd_line_write (cmds Pctrl.Dispatch.Uncached));
  Alcotest.(check bool) "cached issues line commands" true
    (List.mem Pctrl.Protocol.cmd_line_read (cmds Pctrl.Dispatch.Cached))

(* ------------------------------------------------------------- controller *)

let run_transaction ~mode ~op ~cycles =
  let design = Pctrl.Controller.full_design () in
  let st = Rtl.Eval.create ~config:(Pctrl.Controller.bindings mode) design in
  Rtl.Eval.reset st;
  let seen_read = ref false and seen_write = ref false and seen_resp = ref false in
  for cycle = 0 to cycles - 1 do
    let opv = if cycle < 3 then Pctrl.Protocol.encode_opcode op else 0 in
    Rtl.Eval.set_input st "op" (Bitvec.of_int ~width:3 opv);
    Rtl.Eval.set_input st "src" (Bitvec.of_int ~width:2 1);
    Rtl.Eval.set_input st "dst" (Bitvec.of_int ~width:2 3);
    Rtl.Eval.set_input st "rdy" (Bitvec.ones 1);
    Rtl.Eval.set_input st "data_in" (Bitvec.zero Pctrl.Controller.beat_width);
    let en = Rtl.Eval.peek st "mem_en" and we = Rtl.Eval.peek st "mem_we" in
    if Bitvec.get en 1 && not (Bitvec.get we 1) then seen_read := true;
    if Bitvec.get en 3 && Bitvec.get we 3 then seen_write := true;
    if Bitvec.reduce_or (Rtl.Eval.peek st "resp") then seen_resp := true;
    Rtl.Eval.step st
  done;
  (!seen_read, !seen_write, !seen_resp)

let test_copy_line_transaction () =
  let seen_read, seen_write, seen_resp =
    run_transaction ~mode:Pctrl.Controller.Cached ~op:Pctrl.Protocol.Copy_line
      ~cycles:40
  in
  Alcotest.(check bool) "read strobes on src pipe" true seen_read;
  Alcotest.(check bool) "write strobes on dst pipe" true seen_write;
  Alcotest.(check bool) "responded" true seen_resp

let test_uncached_read_transaction () =
  let seen_read, _, seen_resp =
    run_transaction ~mode:Pctrl.Controller.Uncached ~op:Pctrl.Protocol.Unc_read
      ~cycles:20
  in
  Alcotest.(check bool) "read strobe" true seen_read;
  Alcotest.(check bool) "responded" true seen_resp

let test_uncached_line_op_degrades () =
  (* In uncached mode a Read_line is served as a single-beat read. *)
  let seen_read, seen_write, seen_resp =
    run_transaction ~mode:Pctrl.Controller.Uncached ~op:Pctrl.Protocol.Read_line
      ~cycles:20
  in
  Alcotest.(check bool) "read strobe" true seen_read;
  Alcotest.(check bool) "no write" false seen_write;
  Alcotest.(check bool) "responded" true seen_resp

let test_bindings_cover_all_tables () =
  let design = Pctrl.Controller.full_design () in
  let bound =
    Synth.Partial_eval.bind_tables design
      (Pctrl.Controller.bindings Pctrl.Controller.Cached)
  in
  Alcotest.(check int) "no config left" 0 (Rtl.Design.config_bit_count bound)

let test_manual_annotations_valid () =
  List.iter
    (fun mode ->
      (* add_annots + validate run inside manual_design. *)
      let d = Pctrl.Controller.manual_design mode in
      Rtl.Design.validate d;
      Alcotest.(check bool) "has annotations" true
        (List.length d.Rtl.Design.annots >= 6))
    [ Pctrl.Controller.Cached; Pctrl.Controller.Uncached ]

let test_manual_equivalent_to_auto () =
  (* The generator's annotations are facts: honouring them cannot change
     behaviour. *)
  let mode = Pctrl.Controller.Uncached in
  let auto = Synth.Flow.compile lib (Pctrl.Controller.auto_design mode) in
  let manual =
    Synth.Flow.compile
      ~options:{ Synth.Flow.default with honor_generator_annots = true }
      lib (Pctrl.Controller.manual_design mode)
  in
  match
    Synth.Equiv.run (Synth.Equiv.Sim { seed = 3 }) auto.Synth.Flow.aig
      manual.Synth.Flow.aig
  with
  | Synth.Equiv.Refuted c ->
    Alcotest.failf "manual/auto diverge at cycle %d on %s" c.first.cycle
      c.first.output
  | Synth.Equiv.Proved | Synth.Equiv.Undecided _ -> ()

let test_fig9_ordering () =
  let report ?options d = (Synth.Flow.compile ?options lib d).Synth.Flow.report in
  let full = report (Pctrl.Controller.full_design ()) in
  let auto = report (Pctrl.Controller.auto_design Pctrl.Controller.Cached) in
  let manual_opts = { Synth.Flow.default with honor_generator_annots = true } in
  let manual_unc =
    report ~options:manual_opts
      (Pctrl.Controller.manual_design Pctrl.Controller.Uncached)
  in
  let auto_unc = report (Pctrl.Controller.auto_design Pctrl.Controller.Uncached) in
  Alcotest.(check bool) "auto halves comb" true
    (auto.Synth.Map.comb_area < 0.8 *. full.Synth.Map.comb_area);
  Alcotest.(check bool) "auto halves seq" true
    (auto.Synth.Map.seq_area < 0.8 *. full.Synth.Map.seq_area);
  Alcotest.(check bool) "uncached below cached" true
    (Synth.Map.total auto_unc < Synth.Map.total auto);
  Alcotest.(check bool) "manual saves in uncached" true
    (Synth.Map.total manual_unc < Synth.Map.total auto_unc)

let () =
  Alcotest.run "pctrl"
    [
      ( "datapipe",
        [
          Alcotest.test_case "fsm shape" `Quick test_pipe_fsm_shape;
          Alcotest.test_case "streaming states gated" `Quick
            test_pipe_streaming_states_gated;
          Alcotest.test_case "transfer story" `Quick test_pipe_transfer_story;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "programs share geometry" `Quick
            test_programs_share_geometry;
          Alcotest.test_case "uncached smaller" `Quick test_uncached_smaller;
        ] );
      ( "controller",
        [
          Alcotest.test_case "copy_line transaction" `Quick
            test_copy_line_transaction;
          Alcotest.test_case "uncached read" `Quick test_uncached_read_transaction;
          Alcotest.test_case "uncached line op degrades" `Quick
            test_uncached_line_op_degrades;
          Alcotest.test_case "bindings cover tables" `Quick
            test_bindings_cover_all_tables;
          Alcotest.test_case "manual annotations valid" `Quick
            test_manual_annotations_valid;
          Alcotest.test_case "manual equivalent to auto" `Slow
            test_manual_equivalent_to_auto;
          Alcotest.test_case "fig9 ordering" `Slow test_fig9_ordering;
        ] );
    ]

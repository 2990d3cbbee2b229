let mem_size = 32

let full ~program =
  if Array.length program <> mem_size then
    invalid_arg "Machine.full: program must have 32 entries";
  let b = Rtl.Builder.create "ucpu" in
  (* Architectural registers first: the sequencer dispatches on IR. *)
  let ir = Rtl.Builder.reg_declare b "ir" ~width:8 ~reset:Rtl.Design.Sync_reset in
  let pc = Rtl.Builder.reg_declare b "pc" ~width:5 ~reset:Rtl.Design.Sync_reset in
  let acc = Rtl.Builder.reg_declare b "acc" ~width:8 ~reset:Rtl.Design.Sync_reset in
  let opcode = Rtl.Expr.slice ir ~hi:7 ~lo:5 in
  let ir_addr = Rtl.Expr.slice ir ~hi:4 ~lo:0 in
  (* Control unit. *)
  let seq_design = Core.Microcode.to_rtl Control.program in
  let seq =
    Rtl.Compose.instantiate b ~name:"seq" seq_design ~inputs:[ ("op", opcode) ]
  in
  let bit name = seq name in
  let ir_ld = bit Control.f_ir_ld in
  let pc_inc = bit Control.f_pc_inc in
  let pc_load = bit Control.f_pc_load in
  let pc_cond = bit Control.f_pc_cond in
  let acc_ld = bit Control.f_acc_ld in
  let acc_op = seq Control.f_acc_op in
  let mem_we = bit Control.f_mem_we in
  (* Program store. *)
  Rtl.Builder.rom b "prog" ~width:8 program;
  let fetched = Rtl.Builder.read_table b "prog" pc in
  (* Data memory: a register file observable as m0..m31. *)
  let mem_cells =
    List.init mem_size (fun i ->
        let enable =
          Rtl.Expr.and_ mem_we (Rtl.Expr.eq_const ir_addr i)
        in
        Rtl.Builder.reg b
          (Printf.sprintf "m%d" i)
          ~reset:Rtl.Design.Sync_reset ~enable ~d:acc)
  in
  let mem_read =
    Rtl.Expr.select ir_addr
      (List.mapi (fun i cell -> (i, cell)) mem_cells)
      ~default:(Rtl.Expr.of_int ~width:8 0)
  in
  (* Datapath. *)
  let acc_nonzero = Rtl.Expr.red_or acc in
  let pc_load_eff =
    Rtl.Expr.and_ pc_load
      (Rtl.Expr.or_ (Rtl.Expr.not_ pc_cond) acc_nonzero)
  in
  let pc_next =
    Rtl.Expr.mux pc_load_eff ir_addr
      (Rtl.Expr.add pc (Rtl.Expr.of_int ~width:5 1))
  in
  Rtl.Builder.reg_connect b "pc"
    ~enable:(Rtl.Expr.or_ pc_inc pc_load_eff)
    pc_next;
  Rtl.Builder.reg_connect b "ir" ~enable:ir_ld fetched;
  let alu =
    Rtl.Expr.select acc_op
      [
        (Control.alu_load, mem_read);
        (Control.alu_add, Rtl.Expr.add acc mem_read);
        (Control.alu_sub, Rtl.Expr.sub acc mem_read);
        (Control.alu_and, Rtl.Expr.and_ acc mem_read);
        (Control.alu_imm, Rtl.Expr.zero_extend ir_addr 8);
      ]
      ~default:mem_read
  in
  Rtl.Builder.reg_connect b "acc" ~enable:acc_ld alu;
  Rtl.Builder.output b "acc" acc;
  Rtl.Builder.output b "pc" pc;
  Rtl.Builder.output b "halted"
    (Rtl.Expr.eq_const opcode (Isa.opcode Isa.Hlt));
  Rtl.Builder.finish b

let control_bindings ?(patched = false) () =
  let p = if patched then Control.patched_program else Control.program in
  List.map
    (fun (name, contents) -> ("seq_" ^ name, contents))
    (Core.Microcode.config_bindings p)

let specialized ?(patched = false) ~program () =
  Synth.Partial_eval.bind_tables (full ~program) (control_bindings ~patched ())

let run_rtl ?(max_cycles = 2000) ?config design =
  let st = Rtl.Eval.create ?config design in
  let rec go cycle =
    if cycle >= max_cycles then (st, cycle)
    else if Bitvec.reduce_or (Rtl.Eval.peek st "halted") then (st, cycle)
    else begin
      Rtl.Eval.step st;
      go (cycle + 1)
    end
  in
  go 0

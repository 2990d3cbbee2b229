type mode = Dispatch.mode = Cached | Uncached

let pipe_count = 4
let beat_width = 128
let bufs_per_pipe = 8

(* The flexible sequencer's geometry is mode-independent (both programs
   share the format, depth and dispatch-table shape); the cached program is
   used as the geometry donor. *)
let sequencer_geometry () = Dispatch.program Cached

let onehot4 e =
  Rtl.Expr.concat (List.rev (List.init 4 (fun j -> Rtl.Expr.eq_const e j)))

let full_design () =
  let b = Rtl.Builder.create "pctrl" in
  let op = Rtl.Builder.input b "op" Protocol.opcode_bits in
  let src = Rtl.Builder.input b "src" 2 in
  let dst = Rtl.Builder.input b "dst" 2 in
  let rdy = Rtl.Builder.input b "rdy" 1 in
  let data_in = Rtl.Builder.input b "data_in" beat_width in
  (* Dispatch unit: microcode sequencer with registered (pipelined) control
     fields. *)
  let seq_design =
    Core.Microcode.to_rtl ~registered_outputs:true (sequencer_geometry ())
  in
  let seq = Rtl.Compose.instantiate b ~name:"seq" seq_design ~inputs:[ ("op", op) ] in
  let sel_mode = seq "sel_mode" in
  let cmd = seq "cmd" in
  let buf_word = seq "buf_word" in
  let resp_field = seq "resp" in
  (* Registered one-hot pipe select (the Fig. 7 situation: a one-hot encoded
     signal behind a flop boundary). *)
  let src1h = Rtl.Builder.net b "src1h" (onehot4 src) in
  let dst1h = Rtl.Builder.net b "dst1h" (onehot4 dst) in
  let chosen =
    Rtl.Expr.select sel_mode
      [ (Dispatch.sel_src, src1h); (Dispatch.sel_dst, dst1h) ]
      ~default:(Rtl.Expr.of_int ~width:4 0)
  in
  let ysel = Rtl.Builder.reg b "ysel" ~reset:Rtl.Design.Sync_reset ~d:chosen in
  (* Data pipes with table-driven control, plus line buffers. *)
  let pipe_design = Core.Fsm_ir.to_flexible_rtl Datapipe.fsm in
  let pipe i =
    let name = Printf.sprintf "pipe%d" i in
    let yi = Rtl.Expr.bit ysel i in
    let cmd_gated =
      Rtl.Expr.mux yi cmd (Rtl.Expr.of_int ~width:Protocol.cmd_bits 0)
    in
    let pin = Rtl.Expr.concat [ rdy; cmd_gated ] in
    let pout = Rtl.Compose.instantiate b ~name pipe_design ~inputs:[ ("in", pin) ] in
    let out6 = pout "out" in
    let obit k = Rtl.Expr.bit out6 k in
    let cnt_name = Printf.sprintf "%s_cnt" name in
    let cnt = Rtl.Builder.reg_declare b cnt_name ~width:3 ~reset:Rtl.Design.Sync_reset in
    Rtl.Builder.reg_connect b cnt_name
      ~enable:(obit Datapipe.out_cnt_en)
      (Rtl.Expr.add cnt (Rtl.Expr.of_int ~width:3 1));
    let buf j =
      let bname = Printf.sprintf "%s_buf%d" name j in
      let enable =
        Rtl.Expr.and_ (obit Datapipe.out_buf_we) (Rtl.Expr.eq_const cnt j)
      in
      Rtl.Builder.reg b bname ~reset:Rtl.Design.No_reset ~enable ~d:data_in
    in
    let bufs = List.init bufs_per_pipe buf in
    let word_read =
      Rtl.Expr.select buf_word
        (List.mapi (fun j e -> (j, e)) bufs)
        ~default:(List.nth bufs 0)
    in
    (yi, obit Datapipe.out_mem_en, obit Datapipe.out_mem_we,
     obit Datapipe.out_done, obit Datapipe.out_busy, word_read)
  in
  let pipes = List.init pipe_count pipe in
  let concat_rev bits = Rtl.Expr.concat (List.rev bits) in
  Rtl.Builder.output b "mem_en"
    (concat_rev (List.map (fun (_, en, _, _, _, _) -> en) pipes));
  Rtl.Builder.output b "mem_we"
    (concat_rev (List.map (fun (_, _, we, _, _, _) -> we) pipes));
  let or_reduce es =
    match es with
    | [] -> Rtl.Expr.of_int ~width:1 0
    | e :: rest -> List.fold_left Rtl.Expr.or_ e rest
  in
  Rtl.Builder.output b "done_any"
    (or_reduce (List.map (fun (_, _, _, d, _, _) -> d) pipes));
  Rtl.Builder.output b "busy"
    (or_reduce (List.map (fun (_, _, _, _, bz, _) -> bz) pipes));
  (* One-hot AND-OR read mux: redundant muxing if the tool knows ysel is
     one-hot (or zero) — the Fig. 7 consumer. *)
  let zero_beat = Rtl.Expr.of_int ~width:beat_width 0 in
  let data_out =
    List.fold_left
      (fun acc (yi, _, _, _, _, word) -> Rtl.Expr.or_ acc (Rtl.Expr.mux yi word zero_beat))
      zero_beat pipes
  in
  Rtl.Builder.output b "data_out" data_out;
  Rtl.Builder.output b "resp" resp_field;
  Rtl.Builder.finish b

let bindings mode =
  let prefix p l = List.map (fun (n, c) -> (p ^ "_" ^ n, c)) l in
  let seq = prefix "seq" (Core.Microcode.config_bindings (Dispatch.program mode)) in
  let pipes =
    List.concat_map
      (fun i ->
        prefix
          (Printf.sprintf "pipe%d" i)
          (Core.Fsm_ir.config_bindings Datapipe.fsm))
      (List.init pipe_count Fun.id)
  in
  seq @ pipes

let auto_design mode =
  Synth.Partial_eval.bind_tables (full_design ()) (bindings mode)

let certification_pair ?bindings:config mode =
  let config = Option.value config ~default:(bindings mode) in
  let lower d = (Synth.Lower.run d).Synth.Lower.aig in
  let a = Synth.Partial_eval.bind_aig_tables (lower (full_design ())) config in
  (a, lower (auto_design mode))

let manual_annotations mode =
  let p = Dispatch.program mode in
  let seq_annots =
    List.map
      (fun (a : Rtl.Annot.t) -> { a with target = "seq_" ^ a.target })
      (Core.Generator.program_manual_annotations p)
  in
  let ysel =
    Rtl.Annot.value_set "ysel"
      (Bitvec.zero 4 :: List.init 4 (fun i -> Bitvec.one_hot ~width:4 i))
  in
  let pipe_states =
    let codes =
      List.map
        (Core.Fsm_ir.encode Datapipe.fsm)
        (Datapipe.reachable_states_for_cmds (Dispatch.cmd_values mode))
    in
    List.init pipe_count (fun i ->
        Rtl.Annot.fsm_state_vector (Printf.sprintf "pipe%d_state" i) codes)
  in
  (ysel :: seq_annots) @ pipe_states

let manual_design mode =
  Rtl.Design.add_annots (auto_design mode) (manual_annotations mode)

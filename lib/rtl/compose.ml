let instantiate b ~name (sub : Design.t) ~inputs =
  let rename s = name ^ "_" ^ s in
  (* Check the input bindings; a binding's width is checked with every
     other reference when the parent design is made. *)
  List.iter
    (fun (port, _) ->
      if not (List.exists (fun (s : Signal.t) -> s.name = port) sub.inputs) then
        invalid_arg
          (Printf.sprintf "Compose.instantiate %s: no input port %s" name port))
    inputs;
  List.iter
    (fun (s : Signal.t) ->
      if not (List.mem_assoc s.name inputs) then
        invalid_arg
          (Printf.sprintf "Compose.instantiate %s: input %s not bound" name
             s.name))
    sub.inputs;
  let rename_expr e =
    Expr.map_leaves
      ~signal:(fun s -> Expr.signal (Signal.make (rename s.Signal.name) s.width))
      ~table:(fun t addr width -> Expr.table_read ~table:(rename t) ~width ~addr)
      e
  in
  (* Input ports become nets driven by the parent expressions. *)
  List.iter
    (fun ((s : Signal.t), e) -> ignore (Builder.net b (rename s.name) e))
    (List.map
       (fun (s : Signal.t) -> (s, List.assoc s.name inputs))
       sub.inputs);
  (* Tables. *)
  List.iter
    (fun (t : Design.table) ->
      match t.storage with
      | Design.Rom contents ->
        Builder.rom b (rename t.tname) ~width:t.twidth contents
      | Design.Config ->
        Builder.config_table b (rename t.tname) ~width:t.twidth ~depth:t.depth)
    sub.tables;
  (* Registers: declare first (feedback), connect after the nets exist. *)
  List.iter
    (fun (r : Design.reg) ->
      ignore
        (Builder.reg_declare b (rename r.q.Signal.name)
           ~width:r.q.Signal.width ~reset:r.reset ~init:r.init
           ~is_config:r.is_config))
    sub.regs;
  List.iter
    (fun ((s : Signal.t), e) -> ignore (Builder.net b (rename s.name) (rename_expr e)))
    (Design.net_order sub);
  List.iter
    (fun (r : Design.reg) ->
      Builder.reg_connect b
        ?enable:(Option.map rename_expr r.enable)
        (rename r.q.Signal.name) (rename_expr r.d))
    sub.regs;
  (* Outputs become accessible nets. *)
  let out_net ((s : Signal.t), e) =
    (s.name, Builder.net b (rename ("out_" ^ s.name)) (rename_expr e))
  in
  let outs = List.map out_net sub.outputs in
  (* Annotations follow their renamed targets. *)
  List.iter
    (fun (a : Annot.t) ->
      Builder.annotate b { a with target = rename a.target })
    sub.annots;
  fun port ->
    match List.assoc_opt port outs with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "Compose.instantiate %s: no output port %s" name port)

let bind_tables d bindings =
  List.fold_left
    (fun d (name, contents) -> Rtl.Design.with_rom_contents d name contents)
    d bindings

let bind_input (d : Rtl.Design.t) name value =
  let port =
    match List.find_opt (fun (s : Rtl.Signal.t) -> s.name = name) d.inputs with
    | Some s -> s
    | None -> raise Not_found
  in
  if Bitvec.width value <> port.width then
    invalid_arg "Partial_eval.bind_input: width mismatch";
  let subst e =
    Rtl.Expr.map_leaves
      ~signal:(fun s ->
        if s.Rtl.Signal.name = name then Rtl.Expr.const value
        else Rtl.Expr.signal s)
      ~table:(fun t addr width -> Rtl.Expr.table_read ~table:t ~width ~addr)
      e
  in
  {
    d with
    inputs = List.filter (fun (s : Rtl.Signal.t) -> s.name <> name) d.inputs;
    nets = List.map (fun (s, e) -> (s, subst e)) d.nets;
    outputs = List.map (fun (s, e) -> (s, subst e)) d.outputs;
    regs =
      List.map
        (fun (r : Rtl.Design.reg) ->
          { r with d = subst r.d; enable = Option.map subst r.enable })
        d.regs;
    annots = List.filter (fun (a : Rtl.Annot.t) -> a.target <> name) d.annots;
  }

let bind_aig_tables g bindings =
  (* Configuration latch names follow Lower's scheme: "<table>[entry][bit]". *)
  let bound = Hashtbl.create 64 in
  List.iter
    (fun (tname, contents) ->
      Array.iteri
        (fun e v ->
          for b = 0 to Bitvec.width v - 1 do
            Hashtbl.replace bound
              (Printf.sprintf "%s[%d][%d]" tname e b)
              (Bitvec.get v b)
          done)
        contents)
    bindings;
  let matched = Hashtbl.create 64 in
  let u = Aig.create () in
  let kept = ref [] in
  (* One pass in node order rebuilds the graph; structural hashing folds
     the constants through the config-read mux trees as they are re-made. *)
  let xl =
    Aig.copy_into g ~into:u ~leaf:(fun n ->
        match Aig.kind g n with
        | Aig.Pi -> Aig.pi u (Aig.pi_name g n)
        | _ ->
          let name, init, reset, is_config = Aig.latch_info g n in
          (match if is_config then Hashtbl.find_opt bound name else None with
           | Some b ->
             Hashtbl.replace matched name ();
             if b then Aig.true_ else Aig.false_
           | None ->
             let q = Aig.latch u name ~init ~reset ~is_config in
             kept := (q, n) :: !kept;
             q))
  in
  if Hashtbl.length matched <> Hashtbl.length bound then
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem matched name) then
          invalid_arg
            ("Partial_eval.bind_aig_tables: no config latch named " ^ name))
      bound;
  List.iter
    (fun (q, n) -> Aig.set_next u q (xl (Aig.latch_next g n)))
    (List.rev !kept);
  List.iter (fun (name, l) -> Aig.po u name (xl l)) (Aig.pos g);
  u

let specialize ?(inputs = []) ?(tables = []) d =
  let d = bind_tables d tables in
  let d = List.fold_left (fun d (n, v) -> bind_input d n v) d inputs in
  Rtl.Design.validate d;
  d

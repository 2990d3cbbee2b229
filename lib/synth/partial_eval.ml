let bind_tables d bindings =
  List.fold_left
    (fun d (name, contents) -> Rtl.Design.with_rom_contents d name contents)
    d bindings

let bind_aig_tables g bindings =
  let bound = Hashtbl.create 64 in
  List.iter
    (fun (tname, contents) ->
      Array.iteri
        (fun e v ->
          for b = 0 to Bitvec.width v - 1 do
            Hashtbl.replace bound
              (Lower.config_bit_name tname e b)
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

type replacement =
  | Repl_const of bool
  | Repl_node of int * bool  (* representative node, complement *)

let max_vars = 64
let max_bdd = 50_000

let run ~annots g =
  if annots = [] then g
  else begin
    let man = Bdd.make_man () in
    (* Annotated bits are variables 0.., in order of first mention. *)
    let seen = Array.make (Aig.num_nodes g) false in
    let bound =
      List.concat_map (fun (a : Annots.t) -> Array.to_list a.nodes) annots
      |> List.filter (fun n -> (not seen.(n)) && (seen.(n) <- true; true))
      |> Array.of_list
    in
    let annot_var_count = Array.length bound in
    let vars = Symbolic.Vars.create ~max_vars ~first:annot_var_count bound in
    (* Characteristic function of the allowed value combinations. *)
    let chi =
      let annot_chi (a : Annots.t) =
        Symbolic.value_set man a.values ~bit:(fun i b ->
            let var = Symbolic.Vars.var vars a.nodes.(i) in
            if b then Bdd.var man var else Bdd.nvar man var)
      in
      List.fold_left
        (fun acc a -> Bdd.and_ acc (annot_chi a))
        (Bdd.one man) annots
    in
    (* Every node in index order, so leaves are numbered in node order;
       [None] where an effort cap was hit. *)
    let lit =
      Symbolic.converter man ~max_bdd ~leaf:(Symbolic.Vars.var vars) g
    in
    let bdds =
      Array.init (Aig.num_nodes g) (fun n ->
          match lit (Aig.lit_of_node n false) with
          | b -> Some b
          | exception Symbolic.Overflow -> None)
    in
    (* Classify nodes under the constraint. *)
    let replacements = Array.make (Aig.num_nodes g) None in
    let class_reps : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
    for n = 1 to Aig.num_nodes g - 1 do
      if Aig.kind g n = Aig.And then
        match bdds.(n) with
        | None -> ()
        | Some b ->
          (* Annotated bits are variables [0, annot_var_count), and an
             ROBDD's root is the least variable of its support. *)
          let touches_annot =
            (not (Bdd.is_const b)) && Bdd.top_var b < annot_var_count
          in
          if touches_annot then begin
            let c = Bdd.constrain b chi in
            if Bdd.is_zero c then
              replacements.(n) <- Some (Repl_const false)
            else if Bdd.is_one c then
              replacements.(n) <- Some (Repl_const true)
            else begin
              let cn = Bdd.not_ c in
              let key, phase =
                if Bdd.uid c <= Bdd.uid cn then (Bdd.uid c, false)
                else (Bdd.uid cn, true)
              in
              match Hashtbl.find_opt class_reps key with
              | None -> Hashtbl.replace class_reps key (n, phase)
              | Some (rep, rep_phase) ->
                replacements.(n) <- Some (Repl_node (rep, phase <> rep_phase))
            end
          end
    done;
    (* Rebuild with substitutions. *)
    let ng = Aig.create () in
    let copy =
      Aig.rebuild g ~into:ng ~node:(fun copy n ->
          match replacements.(n) with
          | Some (Repl_const v) -> Some (if v then Aig.true_ else Aig.false_)
          | Some (Repl_node (rep, compl)) -> Some (copy (Aig.lit_of_node rep compl))
          | None -> None)
    in
    List.iter (fun (name, l) -> Aig.po ng name (copy l)) (Aig.pos g);
    List.iter
      (fun n ->
        Aig.set_next ng (copy (Aig.lit_of_node n false)) (copy (Aig.latch_next g n)))
      (Aig.latches g);
    ng
  end

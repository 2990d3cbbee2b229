type result =
  | Proved
  | Refuted of string
  | Unproved of string

let max_vars = 96
let max_bdd = 200_000

let inductive g (a : Annots.t) =
  let k = Array.length a.Annots.nodes in
  let all_latches =
    Array.for_all (fun n -> Aig.kind g n = Aig.Latch) a.Annots.nodes
  in
  if not all_latches then
    Unproved "annotation targets input ports (environment assumption)"
  else begin
    (* Base case. *)
    let init_value =
      Bitvec.of_bits
        (Array.to_list
           (Array.map
              (fun n ->
                let _, init, _, _ = Aig.latch_info g n in
                init)
              a.Annots.nodes))
    in
    if not (List.exists (Bitvec.equal init_value) a.Annots.values) then
      Refuted
        (Format.asprintf "initial value %a is outside the set" Bitvec.pp
           init_value)
    else begin
      (* Step case: vars 0..k-1 are the annotated bits; everything else in
         the next-state cones gets a fresh free variable. *)
      let man = Bdd.make_man () in
      let vars = Symbolic.Vars.create ~max_vars ~first:k a.Annots.nodes in
      let lit =
        Symbolic.converter man ~max_bdd ~leaf:(Symbolic.Vars.var vars) g
      in
      match
        let chi =
          Symbolic.value_set man a.Annots.values ~bit:(fun i b ->
              if b then Bdd.var man i else Bdd.nvar man i)
        in
        let nexts =
          Array.map (fun n -> lit (Aig.latch_next g n)) a.Annots.nodes
        in
        (* Characteristic of "the next value is in the set". *)
        let chi_next =
          Symbolic.value_set man a.Annots.values ~bit:(fun i b ->
              if b then nexts.(i) else Bdd.not_ nexts.(i))
        in
        Bdd.is_one (Bdd.imp chi chi_next)
      with
      | true -> Proved
      | false ->
        Unproved
          "induction step fails with other registers unconstrained"
      | exception Symbolic.Overflow -> Unproved "BDD effort cap exceeded"
    end
  end
